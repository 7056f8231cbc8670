package core

import (
	"sync/atomic"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/matrix"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// BinsResult is the output of an oblivious random bin assignment: Beta bins
// of Z slots each, concatenated in Bins; real elements of bin b carry a
// label whose value is b. Lost counts real elements dropped by bin
// overflow — the negligible-probability failure event of Theorem C.1,
// reported for diagnostics (read outside the adversary's view).
type BinsResult struct {
	Bins *mem.Array[obliv.Elem]
	Beta int
	Z    int
	Lost int
}

// setupBins pads the input to β bins of Z slots, each half filled, and
// assigns element i the random label tape.At(i) (its target bin, stored in
// Lbl; Key/Val/Aux are preserved). Returns the bin buffer, β, and the
// label width.
func setupBins(c *forkjoin.Ctx, sp *mem.Space, in *mem.Array[obliv.Elem], tape *prng.Tape, p Params) (*mem.Array[obliv.Elem], int, int) {
	n := in.Len()
	half := p.Z / 2
	beta := obliv.NextPow2((n + half - 1) / half)
	labelBits := obliv.Log2(beta)
	buf := mem.Alloc[obliv.Elem](sp, beta*p.Z)
	forkjoin.ParallelRange(c, 0, beta*p.Z, 0, func(c *forkjoin.Ctx, lo, hi int) {
		for slot := lo; slot < hi; slot++ {
			b := slot / p.Z
			k := slot % p.Z
			i := b*half + k
			var e obliv.Elem // filler by default
			if k < half && i < n {
				e = in.Get(c, i)
				e.Kind = obliv.Real
				e.Lbl = tape.At(i) & uint64(beta-1)
			}
			buf.Set(c, slot, e)
		}
	})
	return buf, beta, labelBits
}

// RecORBA is the paper's REC-ORBA (§D.1): the cache-agnostic, binary
// fork-join implementation of oblivious random bin assignment. Each real
// input element is routed to the uniformly random bin named by its tape
// word. Costs (Lemma 3.1, with the practical bitonic instantiation of the
// small sorts): O(n log n · log log n) work, O(log n · polyloglog) span,
// O((n/B)·log_M n) cache misses for M = Ω(log^{1+ε} n).
//
// The tape must provide at least in.Len() words; with the tape fixed, the
// access pattern is a deterministic function of (n, params) — the property
// the obliviousness tests assert.
func RecORBA(c *forkjoin.Ctx, sp *mem.Space, in *mem.Array[obliv.Elem], tape *prng.Tape, p Params) BinsResult {
	p = p.Normalized(in.Len())
	buf, beta, labelBits := setupBins(c, sp, in, tape, p)
	scratch := mem.Alloc[obliv.Elem](sp, beta*p.Z)
	var lost atomic.Int64
	recORBA(c, sp, buf, scratch, 0, beta, 0, labelBits, p, &lost)
	return BinsResult{Bins: buf, Beta: beta, Z: p.Z, Lost: int(lost.Load())}
}

// recORBA distributes the β bins at bin offset off of buf by label bits
// [s, s+log β), in place.
func recORBA(c *forkjoin.Ctx, sp *mem.Space, buf, scratch *mem.Array[obliv.Elem], off, beta, s, labelBits int, p Params, lost *atomic.Int64) {
	if beta <= 1 {
		return
	}
	region := buf.View(off*p.Z, beta*p.Z)
	bits := obliv.Log2(beta)
	if beta <= p.Gamma {
		groupOf := func(e obliv.Elem) uint64 { return digit(e.Lbl, labelBits, s, bits) }
		// BinPlace copies its input to internal scratch first, so output
		// may alias input.
		l := obliv.BinPlace(c, sp, region, region, beta, p.Z, groupOf, p.Sorter)
		if l > 0 {
			lost.Add(int64(l))
		}
		return
	}

	k := bits
	b1 := 1 << uint((k+1)/2) // √β rounded up to a power of two
	b2 := beta / b1

	// Phase 1: β1 subproblems of β2 consecutive bins, consuming the next
	// log β2 label bits.
	forkjoin.ParallelFor(c, 0, b1, 1, func(c *forkjoin.Ctx, j int) {
		recORBA(c, sp, buf, scratch, off+j*b2, b2, s, labelBits, p, lost)
	})

	// Transpose the β1×β2 matrix of bins so that bins agreeing on the
	// consumed bits become consecutive.
	sregion := scratch.View(off*p.Z, beta*p.Z)
	matrix.TransposeBlocks(c, sregion, region, b1, b2, p.Z)
	mem.CopyPar(c, region, 0, sregion, 0, beta*p.Z)

	// Phase 2: β2 subproblems of β1 bins, consuming the remaining bits.
	forkjoin.ParallelFor(c, 0, b2, 1, func(c *forkjoin.Ctx, i int) {
		recORBA(c, sp, buf, scratch, off+i*b1, b1, s+obliv.Log2(b2), labelBits, p, lost)
	})
}

// MetaORBA is the layer-by-layer meta-algorithm (§C.2, Theorem C.1): a
// γ-way butterfly of log_γ β layers, each layer obliviously distributing
// groups of γ bins by the next log γ label bits. It computes exactly the
// same functionality as RecORBA (same tape → same final bins) but without
// the cache-friendly recursion; the ORBA benchmarks compare the two.
func MetaORBA(c *forkjoin.Ctx, sp *mem.Space, in *mem.Array[obliv.Elem], tape *prng.Tape, p Params) BinsResult {
	p = p.Normalized(in.Len())
	buf, beta, labelBits := setupBins(c, sp, in, tape, p)
	var lost atomic.Int64

	gammaBits := obliv.Log2(p.Gamma)
	for s := 0; s < labelBits; {
		cb := gammaBits
		if s+cb > labelBits {
			cb = labelBits - s
		}
		layerGamma := 1 << uint(cb)
		stride := 1 << uint(labelBits-s-cb)
		hiCount := 1 << uint(s)
		groups := hiCount * stride
		sCur := s
		forkjoin.ParallelFor(c, 0, groups, 1, func(c *forkjoin.Ctx, g int) {
			hi := g / stride
			lo := g % stride
			// Gather the γ strided bins into contiguous scratch.
			w := mem.Alloc[obliv.Elem](sp, layerGamma*p.Z)
			for kk := 0; kk < layerGamma; kk++ {
				src := hi*(stride*layerGamma) + kk*stride + lo
				mem.CopyPar(c, w, kk*p.Z, buf, src*p.Z, p.Z)
			}
			groupOf := func(e obliv.Elem) uint64 { return digit(e.Lbl, labelBits, sCur, cb) }
			l := obliv.BinPlace(c, sp, w, w, layerGamma, p.Z, groupOf, p.Sorter)
			if l > 0 {
				lost.Add(int64(l))
			}
			// Scatter back.
			for kk := 0; kk < layerGamma; kk++ {
				dst := hi*(stride*layerGamma) + kk*stride + lo
				mem.CopyPar(c, buf, dst*p.Z, w, kk*p.Z, p.Z)
			}
		})
		s += cb
	}
	return BinsResult{Bins: buf, Beta: beta, Z: p.Z, Lost: int(lost.Load())}
}

// BinLoads returns the number of real elements in each bin (diagnostics,
// raw access).
func (r BinsResult) BinLoads() []int {
	loads := make([]int, r.Beta)
	data := r.Bins.Data()
	for b := 0; b < r.Beta; b++ {
		for k := 0; k < r.Z; k++ {
			if data[b*r.Z+k].Kind == obliv.Real {
				loads[b]++
			}
		}
	}
	return loads
}
