package experiments

import (
	"fmt"
	"io"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/graph"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/pram"
	"oblivmc/internal/prng"
)

// OblivCheck runs the §B obliviousness verification across the stack: each
// component is executed on two different inputs of the same size with the
// same random tape, and the adversary's-view fingerprints must be
// identical. Returns true iff every check passes.
func OblivCheck(w io.Writer) bool {
	fmt.Fprintln(w, "\n== §B — access-pattern independence (fixed-tape trace equality) ==")
	allOK := true
	check := func(name string, run func(variant uint64) *forkjoin.Metrics) {
		a, b := run(1), run(2)
		ok := a.Trace.Equal(b.Trace)
		status := "PASS"
		if !ok {
			status = "FAIL"
			allOK = false
		}
		fmt.Fprintf(w, "%-34s %s  (events: %d)\n", name, status, a.Trace.Count)
	}
	trace := forkjoin.MeterOpts{EnableTrace: true}
	srt := bitonic.CacheAgnostic{}

	check("bitonic sort (cache-agnostic)", func(v uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		a := elemsOf(sp, distinctKeys(v, 256))
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			srt.Sort(c, sp, a, 0, 256, func(e obliv.Elem) uint64 { return e.Key })
		})
	})
	check("bin placement (§C.1)", func(v uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		src := prng.New(v)
		in := mem.Alloc[obliv.Elem](sp, 32)
		for i := 0; i < 32; i++ {
			in.Data()[i] = obliv.Elem{Lbl: src.Uint64n(4), Val: uint64(i), Kind: obliv.Real}
		}
		out := mem.Alloc[obliv.Elem](sp, 4*16)
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			obliv.BinPlace(c, sp, in, out, 4, 16, func(e obliv.Elem) uint64 { return e.Lbl }, srt)
		})
	})
	check("send-receive (§F)", func(v uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		src := prng.New(v)
		sources := mem.Alloc[obliv.Elem](sp, 64)
		dests := mem.Alloc[obliv.Elem](sp, 64)
		for i := 0; i < 64; i++ {
			sources.Data()[i] = obliv.Elem{Key: uint64(i), Val: src.Uint64(), Kind: obliv.Real}
			dests.Data()[i] = obliv.Elem{Key: src.Uint64n(100), Kind: obliv.Real}
		}
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			obliv.SendReceive(c, sp, sources, dests, srt)
		})
	})
	check("REC-ORBA (§D.1)", func(v uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		in := elemsOf(sp, distinctKeys(v, 256))
		p := core.Params{Z: 32, Gamma: 4}
		tape := prng.NewTape(99, core.TapeLen(256, p))
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			core.RecORBA(c, sp, in, tape, p)
		})
	})
	check("random permutation (§C.3)", func(v uint64) *forkjoin.Metrics {
		sp := mem.NewSpace()
		in := elemsOf(sp, distinctKeys(v, 200))
		p := core.Params{Z: 32, Gamma: 4}
		tape := prng.NewTape(55, core.TapeLen(200, p))
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			core.RandomPermutation(c, sp, in, tape, p)
		})
	})
	check("PRAM simulation (Thm 4.1)", func(v uint64) *forkjoin.Metrics {
		src := prng.New(v)
		const n = 16
		order := src.Perm(n)
		succ := make([]int, n)
		for k := 0; k < n-1; k++ {
			succ[order[k]] = order[k+1]
		}
		succ[order[n-1]] = order[n-1]
		m := &pram.PointerJumpMachine{N: n, Succ: succ}
		sp := mem.NewSpace()
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			pram.RunOblivious(c, sp, m, m.InitialMemory())
		})
	})
	check("Euler tour (§5.2)", func(v uint64) *forkjoin.Metrics {
		edges := randomTreeEdges(v, 40)
		sp := mem.NewSpace()
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			graph.EulerTourOblivious(c, sp, 40, edges, 0)
		})
	})
	check("connected components (§5.3)", func(v uint64) *forkjoin.Metrics {
		edges := randomGraphEdges(v, 12, 10)
		sp := mem.NewSpace()
		return forkjoin.RunMetered(trace, func(c *forkjoin.Ctx) {
			graph.ConnectedComponentsOblivious(c, sp, 12, edges)
		})
	})

	fmt.Fprintln(w, `
Each component ran on two different inputs of equal size under the same
random tape; PASS means the full address-and-DAG fingerprints matched.
(Randomized components with data-dependent *revealed* quantities — the
practical sort after ORP, MSF's convergence, ORAM leaves — are checked by
distribution tests in the unit suites instead; see README, Testing and benchmarks.)`)
	return allOK
}
