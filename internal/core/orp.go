package core

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// PermStats reports diagnostics of an oblivious random permutation run,
// gathered outside the adversary's view.
type PermStats struct {
	// Lost counts real elements dropped by ORBA bin overflow (the
	// negligible-probability failure event; callers that need exactness
	// retry with a fresh tape — see MustRandomPermutation).
	Lost int
	// MaxBinLoad is the largest bin occupancy observed.
	MaxBinLoad int
	// Beta and Z record the bin structure used.
	Beta, Z int
}

// TapeLen returns the number of random words RandomPermutation consumes for
// an input of length n under params p: one routing label per element plus
// one shuffle label per bin slot.
func TapeLen(n int, p Params) int {
	p = p.Normalized(n)
	half := p.Z / 2
	beta := obliv.NextPow2((n + half - 1) / half)
	return n + beta*p.Z
}

// RandomPermutation obliviously applies a uniformly random permutation to
// in (§C.3, implemented with REC-ORBA per §D.2): route elements to random
// bins, obliviously shuffle within each bin by fresh random labels, then
// reveal only the bin loads while removing fillers. Key/Val/Aux payloads
// are preserved. The returned array has length n − Lost.
//
// With the tape fixed, the access pattern depends only on (n, params, tape)
// — in particular not on the input contents.
func RandomPermutation(c *forkjoin.Ctx, sp *mem.Space, in *mem.Array[obliv.Elem], tape *prng.Tape, p Params) (*mem.Array[obliv.Elem], PermStats) {
	n := in.Len()
	p = p.Normalized(n)
	res := RecORBA(c, sp, in, tape, p)
	beta, z := res.Beta, res.Z
	buf := res.Bins

	// Within-bin oblivious shuffle: fresh tape labels, positional by slot,
	// then a network sort per bin keyed by label (fillers to the end).
	shuffleKey := func(e obliv.Elem) uint64 {
		if e.Kind != obliv.Real {
			return obliv.InfKey
		}
		return e.Lbl
	}
	forkjoin.ParallelFor(c, 0, beta, 1, func(c *forkjoin.Ctx, b int) {
		for k := 0; k < z; k++ {
			e := buf.Get(c, b*z+k)
			e.Lbl = tape.At(n + b*z + k)
			buf.Set(c, b*z+k, e)
		}
		p.Sorter.Sort(c, sp, buf, b*z, z, shuffleKey)
	})

	// Reveal bin loads (simulatable: the loads depend only on the tape)
	// and compact the real elements into the output.
	loads := mem.Alloc[uint64](sp, beta)
	forkjoin.ParallelFor(c, 0, beta, 1, func(c *forkjoin.Ctx, b int) {
		cnt := uint64(0)
		for k := 0; k < z; k++ {
			if buf.Get(c, b*z+k).Kind == obliv.Real {
				cnt++
			}
		}
		loads.Set(c, b, cnt)
	})
	offsets := mem.Alloc[uint64](sp, beta)
	mem.CopyPar(c, offsets, 0, loads, 0, beta)
	obliv.PrefixSumU64(c, sp, offsets, false)

	total := n - res.Lost
	out := mem.Alloc[obliv.Elem](sp, total)
	forkjoin.ParallelFor(c, 0, beta, 1, func(c *forkjoin.Ctx, b int) {
		off := int(offsets.Get(c, b))
		cnt := int(loads.Get(c, b))
		for k := 0; k < cnt; k++ {
			e := buf.Get(c, b*z+k)
			e.Lbl = 0
			out.Set(c, off+k, e)
		}
	})

	stats := PermStats{Lost: res.Lost, Beta: beta, Z: z}
	for _, l := range res.BinLoads() {
		if l > stats.MaxBinLoad {
			stats.MaxBinLoad = l
		}
	}
	return out, stats
}

// MustRandomPermutation retries RandomPermutation with fresh tapes derived
// from seed until no element is lost (the per-attempt failure probability
// is negligible in n; a handful of attempts suffices at any size). It
// returns the permutation and the number of attempts used.
func MustRandomPermutation(c *forkjoin.Ctx, sp *mem.Space, in *mem.Array[obliv.Elem], seed uint64, p Params) (*mem.Array[obliv.Elem], int) {
	n := in.Len()
	p = p.Normalized(n)
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			panic("core: random permutation failed 64 times; params far too tight")
		}
		tape := prng.NewTape(prng.Mix64(seed+uint64(attempt)*0x9e3779b9), TapeLen(n, p))
		out, stats := RandomPermutation(c, sp, in, tape, p)
		if stats.Lost == 0 {
			return out, attempt + 1
		}
	}
}
