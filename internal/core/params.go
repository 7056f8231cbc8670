// Package core implements the paper's primary contribution: oblivious
// random bin assignment (META-ORBA §C.2 and its cache-agnostic binary
// fork-join implementation REC-ORBA §D.1), oblivious random permutation
// (§C.3/§D.2), the full oblivious sort (Theorems 3.2/D.1), and the
// practical variant built on pivot selection and REC-SORT (§E.2).
package core

import (
	"oblivmc/internal/bitonic"
	"oblivmc/internal/obliv"
)

// Params carries the paper's tunables. Zero fields are filled by
// ParamsForN; tests override them to force deep recursions at small n and
// to run the overflow experiments.
type Params struct {
	// Z is the bin capacity (power of two). The paper uses Z = log² n
	// (Theorem C.1); bins start half full.
	Z int
	// Gamma is the butterfly branching factor γ (power of two). The paper
	// uses γ = Θ(log n); γ = 2 recovers the prior algorithms of
	// [ACN+20, CGLS18] and is exposed for the Lemma 3.1 ablation.
	Gamma int
	// Sorter is the oblivious sorter used for the small poly-logarithmic
	// subproblems (AKS in the theory bound, bitonic in the practical
	// variant — see README, "Deviations from the paper", 1). It must support the
	// key-schedule seam (obliv.ScheduledSorter). The PRAM layer's gathers
	// and scatters do not use it: they sort word planes on the
	// cache-agnostic bitonic network (bitonic.SortRecorded).
	Sorter obliv.ScheduledSorter

	// SampleRate: REC-SORT samples each element with probability
	// 1/SampleRate during pivot selection (paper: log n).
	SampleRate int
	// PivotSpacing: every PivotSpacing-th sorted sample becomes a pivot
	// (paper: log² n, making regions of expected size ~log³ n).
	PivotSpacing int
	// BinCapFactor scales REC-SORT's bin capacity relative to the mean
	// load (slack for the Chernoff fluctuations of §E.2's analysis).
	BinCapFactor int
}

// ParamsForN returns the paper's default parameters for input size n.
func ParamsForN(n int) Params {
	if n < 1 {
		n = 1
	}
	lg := obliv.Log2Ceil(n)
	if lg < 2 {
		lg = 2
	}
	z := obliv.NextPow2(lg * lg)
	if z < 16 {
		z = 16
	}
	gamma := obliv.NextPow2(lg)
	if gamma < 2 {
		gamma = 2
	}
	return Params{
		Z:            z,
		Gamma:        gamma,
		Sorter:       bitonic.CacheAgnostic{},
		SampleRate:   lg,
		PivotSpacing: obliv.NextPow2(lg * lg),
		BinCapFactor: 4,
	}
}

// Normalized fills zero fields with the defaults for n and validates
// power-of-two constraints.
func (p Params) Normalized(n int) Params {
	def := ParamsForN(n)
	if p.Z == 0 {
		p.Z = def.Z
	}
	if p.Gamma == 0 {
		p.Gamma = def.Gamma
	}
	if p.Sorter == nil {
		p.Sorter = def.Sorter
	}
	if p.SampleRate == 0 {
		p.SampleRate = def.SampleRate
	}
	if p.PivotSpacing == 0 {
		p.PivotSpacing = def.PivotSpacing
	}
	if p.BinCapFactor == 0 {
		p.BinCapFactor = def.BinCapFactor
	}
	if !obliv.IsPow2(p.Z) || p.Z < 2 {
		panic("core: Z must be a power of two >= 2")
	}
	if !obliv.IsPow2(p.Gamma) || p.Gamma < 2 {
		panic("core: Gamma must be a power of two >= 2")
	}
	return p
}

// digit extracts the label bits [s, s+width) of lbl, where bit 0 is the
// most significant of a labelBits-wide label. This is the "next unconsumed
// Θ(log log n) bits" selector of META-ORBA.
func digit(lbl uint64, labelBits, s, width int) uint64 {
	return (lbl >> uint(labelBits-s-width)) & ((1 << uint(width)) - 1)
}
