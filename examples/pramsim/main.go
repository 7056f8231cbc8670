// Oblivious PRAM simulation (Theorem 4.1): take an off-the-shelf CRCW PRAM
// program — Wyllie pointer jumping for list ranking — and run it under the
// oblivious compiler, showing that the direct execution leaks the list
// structure while the oblivious simulation does not.
package main

import (
	"fmt"
	"log"

	"oblivmc"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/pram"
	"oblivmc/internal/prng"
)

func randomList(seed uint64, n int) []int {
	src := prng.New(seed)
	order := src.Perm(n)
	succ := make([]int, n)
	for k := 0; k < n-1; k++ {
		succ[order[k]] = order[k+1]
	}
	succ[order[n-1]] = order[n-1]
	return succ
}

func main() {
	const n = 32
	succ := randomList(1, n)
	m := &pram.PointerJumpMachine{N: n, Succ: succ}

	// Run the machine under the oblivious simulation via the public API.
	final, rep, err := oblivmc.SimulatePRAM(oblivmc.Config{
		Mode: oblivmc.ModeMetered, CacheM: 1 << 10, CacheB: 32, Seed: 1,
	}, m, m.InitialMemory())
	if err != nil {
		log.Fatal(err)
	}
	ranks := m.Ranks(final)
	fmt.Printf("list ranking via oblivious PRAM simulation (n=%d, %d steps):\n", n, m.Steps())
	fmt.Printf("  first ranks: %v ...\n", ranks[:8])
	fmt.Printf("  work=%d span=%d cache misses=%d\n", rep.Work, rep.Span, rep.CacheMisses)

	// Leakage comparison: the adversary's view of the DIRECT execution
	// depends on the secret list; the oblivious simulation's does not.
	direct := func(seed uint64) string {
		mm := &pram.PointerJumpMachine{N: n, Succ: randomList(seed, n)}
		sp := mem.NewSpace()
		met := forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			pram.RunDirect(c, sp, mm, mm.InitialMemory())
		})
		return fmt.Sprintf("%016x", met.Trace.Hash)
	}
	oblivious := func(seed uint64) string {
		mm := &pram.PointerJumpMachine{N: n, Succ: randomList(seed, n)}
		sp := mem.NewSpace()
		met := forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
			pram.RunOblivious(c, sp, mm, mm.InitialMemory())
		})
		return fmt.Sprintf("%016x", met.Trace.Hash)
	}

	fmt.Println("\nadversary's view, two different secret lists:")
	fmt.Printf("  direct CRCW:     list1=%s list2=%s (leak!)\n", direct(10), direct(20))
	fmt.Printf("  oblivious (4.1): list1=%s list2=%s (identical)\n", oblivious(10), oblivious(20))
}
