// Keyed (key-schedule) variant of the insecure sample sort: the post-ORP
// stage of the shuffle-then-sort composition (Theorem 3.2) generalized for
// the relational engine. The sort orders elements by the lexicographic
// order of their cached key-schedule words, breaking full-vector ties by
// the elements' in-register (Kind, Tag, Aux) triple (obliv.TiePos, the one
// tie-break of every keyed sort, which makes the sort stable in the
// relational sense and realizes the keyed networks' order) and breaking *those*
// ties by a caller-supplied random tie word per element. With the tie plane
// drawn fresh from the seed tape, every comparison is strict, so the
// sequence being sorted always has distinct effective keys — the
// precondition of the [CGLS18, ACN+20] security argument that lets an
// insecure comparison sort follow an oblivious random permutation.
//
// Every element move carries the element, all schedule words, and the tie
// word together (the planes stay in lockstep with the array, exactly as in
// the keyed bitonic networks), so on return the schedule still caches the
// keys of the array it describes.
//
// Unlike everything else in this module, the access pattern of this sort
// is NOT a fixed function of the input length: it depends on the relative
// order of the (permuted) keys. That is the Theorem 3.2 trade-off — the
// preceding oblivious random permutation makes the order type of the
// input, and hence the trace distribution, independent of the data.
package spms

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
)

// kseq bundles the three lockstep components of a keyed sequence: the
// element array, its key schedule, and the tie plane, all indexed
// identically, plus the cached schedule width.
type kseq struct {
	a   *mem.Array[obliv.Elem]
	ks  *obliv.KeySchedule
	tie *mem.Array[uint64]
	w   int
}

func newKseq(a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, tie *mem.Array[uint64]) kseq {
	return kseq{a: a, ks: ks, tie: tie, w: ks.Width()}
}

func allocKseq(sp *mem.Space, n, w int) kseq {
	return kseq{
		a:   mem.Alloc[obliv.Elem](sp, n),
		ks:  obliv.AllocKeySchedule(sp, n, w),
		tie: mem.Alloc[uint64](sp, n),
		w:   w,
	}
}

// krow is one element with its cached key words and tie word — the unit the
// keyed sort moves and compares.
type krow struct {
	e obliv.Elem
	k [obliv.MaxScheduleWidth]uint64
	t uint64
}

func (s kseq) load(c *forkjoin.Ctx, i int) krow {
	var r krow
	r.e = s.a.Get(c, i)
	for p := 0; p < s.w; p++ {
		r.k[p] = s.ks.Plane(p).Get(c, i)
	}
	r.t = s.tie.Get(c, i)
	return r
}

func (s kseq) store(c *forkjoin.Ctx, i int, r krow) {
	s.a.Set(c, i, r.e)
	for p := 0; p < s.w; p++ {
		s.ks.Plane(p).Set(c, i, r.k[p])
	}
	s.tie.Set(c, i, r.t)
}

// after reports whether x sorts strictly after y: lexicographic cached key
// words, then the TiePos (Kind, Tag, Aux) triple — obliv.PosAfter, the
// rule shared with the keyed networks so both backends realize the same
// order — then the tie word. With distinct tie words the order is total
// and strict.
func after(x, y *krow, w int) bool {
	for p := 0; p < w; p++ {
		if x.k[p] != y.k[p] {
			return x.k[p] > y.k[p]
		}
	}
	if obliv.PosAfter(x.e, y.e) {
		return true
	}
	if obliv.PosAfter(y.e, x.e) {
		return false
	}
	return x.t > y.t
}

// rawSeq is a kseq seen through mem.Array.Raw: what the serial and pool
// executors, which record nothing, sort over. Its kernels compare and move
// rows in place by index — a comparison usually reads one key word per side
// and never the 48-byte element — where the per-access path, the
// specification a metered run executes, loads and stores whole krow values.
type rawSeq struct {
	e   []obliv.Elem
	k   [obliv.MaxScheduleWidth][]uint64
	tie []uint64
	w   int
}

// raw returns the raw view of s, or ok == false under the metered executor.
func (s kseq) raw(c *forkjoin.Ctx) (r rawSeq, ok bool) {
	if r.e = s.a.Raw(c); r.e == nil {
		return r, false
	}
	for p := 0; p < s.w; p++ {
		r.k[p] = s.ks.Plane(p).Raw(c)
	}
	r.tie, r.w = s.tie.Raw(c), s.w
	return r, true
}

// afterAt reports whether row i of s sorts strictly after row j of t: the
// order of after, read in place.
func afterAt(s *rawSeq, i int, t *rawSeq, j int) bool {
	for p := 0; p < s.w; p++ {
		if x, y := s.k[p][i], t.k[p][j]; x != y {
			return x > y
		}
	}
	x, y := &s.e[i], &t.e[j]
	if xf, yf := x.Kind != obliv.Real, y.Kind != obliv.Real; xf != yf {
		return xf
	}
	if x.Tag != y.Tag {
		return x.Tag > y.Tag
	}
	if x.Aux != y.Aux {
		return x.Aux > y.Aux
	}
	return s.tie[i] > t.tie[j]
}

// moveRow copies row i of src over row o of dst.
func moveRow(dst *rawSeq, o int, src *rawSeq, i int) {
	dst.e[o] = src.e[i]
	for p := 0; p < src.w; p++ {
		dst.k[p][o] = src.k[p][i]
	}
	dst.tie[o] = src.tie[i]
}

// SampleSortScheduled sorts a[lo:lo+n) ascending by (cached schedule words,
// TiePos triple, tie word), keeping every plane of ks and the tie plane in
// lockstep with the elements. tie must cover the same index range as a.
// scr and kscr are the caller's sorting scratch (length >= n past lo=0,
// width matching ks); tscr is tie-plane scratch of length >= n; any of them
// may be nil, in which case fresh scratch is allocated from sp. seed drives
// pivot sampling.
func SampleSortScheduled(
	c *forkjoin.Ctx, sp *mem.Space,
	a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, tie *mem.Array[uint64],
	scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, tscr *mem.Array[uint64],
	lo, n int, seed uint64,
) {
	if n <= 1 {
		return
	}
	w := ks.Width()
	s := newKseq(a.View(lo, n), ks.View(lo, n), tie.View(lo, n))
	if scr == nil {
		scr = mem.Alloc[obliv.Elem](sp, n)
	}
	if kscr == nil {
		kscr = obliv.AllocKeySchedule(sp, n, w)
	}
	if tscr == nil {
		tscr = mem.Alloc[uint64](sp, n)
	}
	scratch := newKseq(scr.View(0, n), kscr.View(0, n), tscr.View(0, n))
	sampleSortRecK(c, sp, s, scratch, 0, n, prng.Mix64(seed), 0)
}

// insertionSortK sorts s[lo:hi) serially: per access under metering, in
// place by index otherwise, with row lo of scratch — free while its range
// of s is a leaf — holding the row being inserted.
func insertionSortK(c *forkjoin.Ctx, s, scratch kseq, lo, hi int) {
	if rs, ok := s.raw(c); ok {
		tmp, _ := scratch.raw(c)
		for i := lo + 1; i < hi; i++ {
			if !afterAt(&rs, i-1, &rs, i) {
				continue
			}
			moveRow(&tmp, lo, &rs, i)
			j := i - 1
			for j >= lo && afterAt(&rs, j, &tmp, lo) {
				moveRow(&rs, j+1, &rs, j)
				j--
			}
			moveRow(&rs, j+1, &tmp, lo)
		}
		return
	}
	for i := lo + 1; i < hi; i++ {
		r := s.load(c, i)
		j := i - 1
		for j >= lo {
			f := s.load(c, j)
			c.Op(1)
			if !after(&f, &r, s.w) {
				break
			}
			s.store(c, j+1, f)
			j--
		}
		s.store(c, j+1, r)
	}
}

// sampleSortRecK sorts s[lo:lo+n); scratch parallels s (same length, same
// relative offsets). The recursion shape mirrors SampleSort's: ~√n buckets
// per level carved out by a binary tree of stable parallel partitions, with
// the mergesort fallback keeping the span polylog on small ranges.
func sampleSortRecK(c *forkjoin.Ctx, sp *mem.Space, s, scratch kseq, lo, n int, seed uint64, depth int) {
	if n <= leafFor(c) {
		insertionSortK(c, s, scratch, lo, lo+n)
		return
	}
	if n <= 64 || depth > 12 {
		mergeSortRecK(c, s, scratch, lo, n)
		return
	}
	q := 2
	for q*q < n {
		q++
	}

	// Sample with a small oversampling factor and sort the sample
	// recursively (capping at n/2 keeps the sample recursion shrinking).
	sn := 3*q - 1
	if sn > n/2 {
		sn = n / 2
	}
	src := prng.New(seed)
	idx := make([]int, sn) // drawn serially: Source is not goroutine-safe
	for i := range idx {
		idx[i] = src.Intn(n)
	}
	samp := allocKseq(sp, sn, s.w)
	forkjoin.ParallelFor(c, 0, sn, 0, func(c *forkjoin.Ctx, i int) {
		samp.store(c, i, s.load(c, lo+idx[i]))
	})
	sampScratch := allocKseq(sp, sn, s.w)
	sampleSortRecK(c, sp, samp, sampScratch, 0, sn, prng.Mix64(seed+1), depth+1)

	pivots := loadPivots(c, samp, sn, q)

	// Partition into q buckets with one stable q-way scatter.
	bounds := make([]int, q+1)
	partitionK(c, s, scratch, lo, n, pivots, bounds)

	// Recurse on buckets.
	forkjoin.ParallelFor(c, 0, q, 1, func(c *forkjoin.Ctx, b int) {
		sz := bounds[b+1] - bounds[b]
		if sz > 1 {
			sampleSortRecK(c, sp, s, scratch, lo+bounds[b], sz, prng.Mix64(seed+uint64(b)+2), depth+1)
		}
	})
}

// pivotTable holds the q−1 pivots of one partition — rows (t+1)·sn/q of the
// sorted sample — in harness memory: as in-register krow copies for the
// per-access path, gathered plane by plane for the raw one.
type pivotTable struct {
	rows []krow
	raw  rawSeq
	n    int
}

func loadPivots(c *forkjoin.Ctx, samp kseq, sn, q int) pivotTable {
	pv := pivotTable{n: q - 1}
	if rs, ok := samp.raw(c); ok {
		pv.raw = rawSeq{e: make([]obliv.Elem, q-1), tie: make([]uint64, q-1), w: rs.w}
		for p := 0; p < rs.w; p++ {
			pv.raw.k[p] = make([]uint64, q-1)
		}
		for t := 0; t < q-1; t++ {
			moveRow(&pv.raw, t, &rs, (t+1)*sn/q)
		}
		return pv
	}
	pv.rows = make([]krow, q-1)
	for t := range pv.rows {
		pv.rows[t] = samp.load(c, (t+1)*sn/q)
	}
	return pv
}

// bucketOf returns the bucket of r under the pivots: the first b with
// r <= pivot[b] (bucket t holds keys in (pivot[t-1], pivot[t]]), found by
// binary search over the in-register pivot copies — no memory traffic.
func (pv *pivotTable) bucketOf(r *krow, w int) int {
	lo, hi := 0, pv.n
	for lo < hi {
		mid := (lo + hi) / 2
		if after(r, &pv.rows[mid], w) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bucketAt is bucketOf for row i of the raw sequence s.
func (pv *pivotTable) bucketAt(s *rawSeq, i int) int {
	lo, hi := 0, pv.n
	for lo < hi {
		mid := (lo + hi) / 2
		if afterAt(s, i, &pv.raw, mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// partitionChunk bounds the per-chunk serial work of the q-way scatter.
const partitionChunk = 4096

// prefixParThreshold is the q·chunks table size past which the scatter's
// (bucket, chunk) offset prefix is worth forking; prefixBucketGrain is how
// many bucket columns a leaf walks (each column is `chunks` ints, strided
// q apart, so a leaf touches grain·chunks counters).
const (
	prefixParThreshold = 1 << 14
	prefixBucketGrain  = 16
)

// partitionK stably partitions s[lo:lo+n) into pivots.n+1 buckets,
// filling bounds (offsets relative to lo, pivots.n+2 entries) and
// leaving the buckets contiguous in s. Two element passes: chunk-local
// histograms (classification is a register binary search per element),
// then a stable scatter through scratch at offsets derived from the
// histogram prefix, plus the copy back. The counters live in harness
// memory like the pivot table — this is the insecure stage, so only the
// element traffic is instrumented.
func partitionK(c *forkjoin.Ctx, s, scratch kseq, lo, n int, pivots pivotTable, bounds []int) {
	q := pivots.n + 1
	chunks := (n + partitionChunk - 1) / partitionChunk
	counts := make([]int, chunks*q)
	forkjoin.ParallelFor(c, 0, chunks, 1, func(c *forkjoin.Ctx, ch int) {
		from, to := ch*partitionChunk, (ch+1)*partitionChunk
		if to > n {
			to = n
		}
		local := counts[ch*q : (ch+1)*q]
		if rs, ok := s.raw(c); ok {
			for i := from; i < to; i++ {
				local[pivots.bucketAt(&rs, lo+i)]++
			}
			return
		}
		for i := from; i < to; i++ {
			r := s.load(c, lo+i)
			c.Op(1)
			local[pivots.bucketOf(&r, s.w)]++
		}
	})
	// Exclusive prefix in (bucket, chunk) order: chunk ch of bucket b
	// scatters behind every chunk of earlier buckets and earlier chunks of
	// its own — the stable order. O(q·chunks) harness work; with q ~ √n and
	// chunks ~ n/partitionChunk that is ~n/64 at the top level, enough to be
	// a visible serial tail, so in pool mode it splits per bucket: totals
	// first, then a q-length serial prefix for the bucket bases, then each
	// bucket rewrites its own column of counts independently.
	if c.ParallelMode() && q*chunks >= prefixParThreshold {
		totals := make([]int, q)
		forkjoin.ParallelRange(c, 0, q, prefixBucketGrain, func(_ *forkjoin.Ctx, bFrom, bTo int) {
			for b := bFrom; b < bTo; b++ {
				t := 0
				for ch := 0; ch < chunks; ch++ {
					t += counts[ch*q+b]
				}
				totals[b] = t
			}
		})
		off := 0
		for b := 0; b < q; b++ {
			bounds[b] = off
			off += totals[b]
		}
		forkjoin.ParallelRange(c, 0, q, prefixBucketGrain, func(_ *forkjoin.Ctx, bFrom, bTo int) {
			for b := bFrom; b < bTo; b++ {
				off := bounds[b]
				for ch := 0; ch < chunks; ch++ {
					cnt := counts[ch*q+b]
					counts[ch*q+b] = off
					off += cnt
				}
			}
		})
	} else {
		off := 0
		for b := 0; b < q; b++ {
			bounds[b] = off
			for ch := 0; ch < chunks; ch++ {
				cnt := counts[ch*q+b]
				counts[ch*q+b] = off
				off += cnt
			}
		}
	}
	bounds[q] = n
	forkjoin.ParallelFor(c, 0, chunks, 1, func(c *forkjoin.Ctx, ch int) {
		from, to := ch*partitionChunk, (ch+1)*partitionChunk
		if to > n {
			to = n
		}
		next := counts[ch*q : (ch+1)*q]
		if rs, ok := s.raw(c); ok {
			rscr, _ := scratch.raw(c)
			for i := from; i < to; i++ {
				b := pivots.bucketAt(&rs, lo+i)
				moveRow(&rscr, lo+next[b], &rs, lo+i)
				next[b]++
			}
			return
		}
		for i := from; i < to; i++ {
			r := s.load(c, lo+i)
			c.Op(1)
			b := pivots.bucketOf(&r, s.w)
			scratch.store(c, lo+next[b], r)
			next[b]++
		}
	})
	copyK(c, s, scratch, lo, n)
}

// copyK copies scratch[lo:lo+n) back into s[lo:lo+n), plane by plane.
func copyK(c *forkjoin.Ctx, s, scratch kseq, lo, n int) {
	mem.CopyPar(c, s.a, lo, scratch.a, lo, n)
	for p := 0; p < s.w; p++ {
		mem.CopyPar(c, s.ks.Plane(p), lo, scratch.ks.Plane(p), lo, n)
	}
	mem.CopyPar(c, s.tie, lo, scratch.tie, lo, n)
}

// mergeSortRecK is the cache-agnostic parallel mergesort fallback.
func mergeSortRecK(c *forkjoin.Ctx, s, scratch kseq, lo, n int) {
	if n <= leafFor(c) {
		insertionSortK(c, s, scratch, lo, lo+n)
		return
	}
	half := n / 2
	c.Fork(
		func(c *forkjoin.Ctx) { mergeSortRecK(c, s, scratch, lo, half) },
		func(c *forkjoin.Ctx) { mergeSortRecK(c, s, scratch, lo+half, n-half) },
	)
	parMergeK(c, s, scratch, lo, lo+half, lo+half, lo+n, lo)
	copyK(c, s, scratch, lo, n)
}

// parMergeK merges s[alo:ahi) and s[blo:bhi) into scratch starting at out.
func parMergeK(c *forkjoin.Ctx, s, scratch kseq, alo, ahi, blo, bhi, out int) {
	an, bn := ahi-alo, bhi-blo
	if an+bn <= 2*leafFor(c) {
		i, j, o := alo, blo, out
		for i < ahi && j < bhi {
			x, y := s.load(c, i), s.load(c, j)
			c.Op(1)
			if !after(&x, &y, s.w) {
				scratch.store(c, o, x)
				i++
			} else {
				scratch.store(c, o, y)
				j++
			}
			o++
		}
		for i < ahi {
			scratch.store(c, o, s.load(c, i))
			i, o = i+1, o+1
		}
		for j < bhi {
			scratch.store(c, o, s.load(c, j))
			j, o = j+1, o+1
		}
		return
	}
	// Split on the median of the larger run; binary search in the other.
	if an < bn {
		alo, ahi, blo, bhi = blo, bhi, alo, ahi
	}
	amid := alo + (ahi-alo)/2
	pivot := s.load(c, amid)
	bmid := lowerBoundK(c, s, blo, bhi, &pivot)
	leftOut := out
	rightOut := out + (amid - alo) + (bmid - blo)
	c.Fork(
		func(c *forkjoin.Ctx) { parMergeK(c, s, scratch, alo, amid, blo, bmid, leftOut) },
		func(c *forkjoin.Ctx) { parMergeK(c, s, scratch, amid, ahi, bmid, bhi, rightOut) },
	)
}

// lowerBoundK returns the first index in s[lo:hi) ordering >= pv.
func lowerBoundK(c *forkjoin.Ctx, s kseq, lo, hi int, pv *krow) int {
	for lo < hi {
		mid := (lo + hi) / 2
		r := s.load(c, mid)
		c.Op(1)
		if after(pv, &r, s.w) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
