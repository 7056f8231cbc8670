package core

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// SortStats reports diagnostics of a full oblivious sort.
type SortStats struct {
	// Attempts is the number of ORP (and, for the practical variant,
	// REC-SORT) attempts before a loss-free run.
	Attempts int
	// Perm carries the permutation diagnostics of the successful attempt.
	Perm PermStats
	// RecSort carries REC-SORT diagnostics (practical variant only).
	RecSort RecSortStats
}

// InsecureSort is a comparison-based, not-necessarily-oblivious sorting
// routine applied after the oblivious random permutation. Theorem 3.2
// instantiates it with SPMS; internal/spms provides the stand-ins.
type InsecureSort func(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem])

// SortWith is the composition of Theorem 3.2 / §C.4: obliviously permute,
// then run any comparison-based insecure sort on the permuted array (whose
// access-pattern distribution is then input-independent). Elements are
// ordered by Key; Key values must be distinct for the security argument of
// [CGLS18, ACN+20] to apply. The input array is not modified.
func SortWith(c *forkjoin.Ctx, sp *mem.Space, in *mem.Array[obliv.Elem], seed uint64, p Params, insecure InsecureSort) (*mem.Array[obliv.Elem], SortStats) {
	p = p.Normalized(in.Len())
	perm, attempts := MustRandomPermutation(c, sp, in, seed, p)
	insecure(c, sp, perm)
	return perm, SortStats{Attempts: attempts}
}

// SortPractical is the practical variant of §3.4/§E: REC-ORBA-based ORP
// (with bitonic inner sorts), pivot selection, and REC-SORT. It retries
// with fresh randomness in the negligible-probability event that a bin
// overflow dropped elements, so the result is always a complete sort.
func SortPractical(c *forkjoin.Ctx, sp *mem.Space, in *mem.Array[obliv.Elem], seed uint64, p Params) (*mem.Array[obliv.Elem], SortStats) {
	n := in.Len()
	p = p.Normalized(n)
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			panic("core: practical sort failed 64 times; params far too tight")
		}
		aseed := prng.Mix64(seed + uint64(attempt)*0x632be59bd9b4e019)
		tape := prng.NewTape(aseed, TapeLen(n, p))
		perm, pstats := RandomPermutation(c, sp, in, tape, p)
		if pstats.Lost != 0 {
			continue
		}
		out, rstats := RecSortPermuted(c, sp, perm, aseed, p)
		if rstats.Lost != 0 {
			continue
		}
		return out, SortStats{Attempts: attempt + 1, Perm: pstats, RecSort: rstats}
	}
}

// SortKeys is a convenience wrapper sorting a raw key slice with the
// practical variant; it returns a fresh sorted slice.
func SortKeys(c *forkjoin.Ctx, sp *mem.Space, keys []uint64, seed uint64, p Params) []uint64 {
	in := mem.Alloc[obliv.Elem](sp, len(keys))
	for i, k := range keys {
		in.Data()[i] = obliv.Elem{Key: k, Kind: obliv.Real}
	}
	out, _ := SortPractical(c, sp, in, seed, p)
	res := make([]uint64, out.Len())
	for i, e := range out.Data() {
		res[i] = e.Key
	}
	return res
}
