// Package relops implements data-oblivious relational operators over
// multi-column (keys..., value) records — the private-analytics workload
// layer the paper motivates in §1 (analytics on secret databases hosted on
// secure multicore processors).
//
// Every operator is composed entirely from the oblivious building blocks
// of internal/obliv (oblivious sorting networks, parallel prefix scans,
// segmented aggregation and propagation) running in the binary fork-join
// model, so each operator inherits the work/span/cache bounds of the
// primitives it is built from and — crucially — produces a memory trace
// that is a deterministic function of the *relation sizes and schema
// widths only*, never of the record contents. The test suite asserts this
// by trace-fingerprint equality across same-shape, different-content
// inputs.
//
// Representation: a relation of n width-w records lives in a Rel — a
// power-of-two obliv.Elem array (Load pads with fillers) plus its public
// key-column count. Within an element,
//
//	Key  — key column 0
//	Key2 — key column 1 (width-2 relations)
//	Val  — the record's payload value
//	Aux  — the record's original position (stable tie-break, < MaxRows)
//	Lbl  — scratch (aggregates, joined values)
//	Mark — scratch survivor flag (group heads, join matches)
//
// Sort keys are no longer packed into one word: every sort materializes a
// width-parameterized obliv.KeySchedule — one cached word plane per key
// column — and the networks compare the cached vectors lexicographically,
// breaking full ties by the elements' in-register (Kind, Tag, Aux) triple
// (obliv.TiePos), which realizes the logical (key columns..., position)
// order without a dedicated position plane of comparator traffic. Key
// columns therefore span the full uint64 range below the filler sentinel
// (KeyLimit = obliv.InfKey) and relations may hold up to MaxRows = 2^40
// rows — both limits derive from the schedule's sentinel layout rather
// than from bit-packing headroom.
//
// Operators keep the array length fixed: records that logically leave a
// relation (filtered rows, duplicate keys, non-matching join rows) become
// fillers sorted to the tail, so the occupancy of the relation is never
// visible in the access pattern. Survivor counts are computed from raw
// memory outside the adversary's view (harness diagnostics, same
// convention as obliv.BinPlace's overflow count).
//
// The unary operators have one execution surface: the executor (Execute,
// engine.go) running the pass sequence the internal/plan sort-fusion
// planner compiles from a query shape — a stand-alone Filter, Distinct,
// GroupBy or TopK is simply a one-stage shape. The binary join, JoinAll, is
// an operator of its own and sizes its own output when asked to (CapAuto);
// the primary-key join is obliv.SendReceive, which the public Join and
// Lookup route through. Every sort goes through the key-schedule fast
// path (obliv.ScheduledSorter, the only sorter type the relational layer
// accepts); TopK sorts nothing — its bitonic tournament runs the block
// comparator (obliv.CexKernel) over the same cached schedule. Scratch
// comes from an Arena.
package relops

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

const (
	// MaxKeyCols is the number of key columns a relation may declare — the
	// key words an obliv.Elem carries (Key, Key2).
	MaxKeyCols = 2
	// maxRowsLog is log2(MaxRows), kept separate so the error message and
	// the bound derive from one constant without ever converting MaxRows
	// to a (possibly 32-bit) int.
	maxRowsLog = 40
	// MaxRows bounds the number of records in a relation. Positions appear
	// as schedule words in the compaction sorts, whose filler sentinel is
	// obliv.InfKey, so positions must stay strictly below it; 2^40 is the
	// enforced (memory-realistic) cap under that ceiling.
	MaxRows = 1 << maxRowsLog
	// KeyLimit bounds record key column values: obliv.InfKey is the filler
	// sentinel of every schedule word, so key columns span the full uint64
	// range below it (0 .. 2^64-2).
	KeyLimit = obliv.InfKey
	// passGrain is the leaf size of the operators' fixed elementwise passes
	// outside metered mode. At the forkjoin default of 64 the fork
	// bookkeeping rivaled these passes' loop bodies on 2^20+ relations —
	// the serial-equivalent tail behind join_all losing throughput at 4
	// workers. 2^10 elements per leaf keeps stealing profitable while a
	// 2^20 pass still splits 2^10 ways; metered runs are pinned to grain 1
	// by forkjoin.grainFor, so fingerprints never move when this is retuned.
	passGrain = 1 << 10
)

// Boundary errors. The messages are derived from the active constants so
// they can never drift from the enforced bounds.
var (
	// ErrKeyTooLarge is returned for a record key column >= KeyLimit.
	ErrKeyTooLarge = fmt.Errorf("relops: record key column exceeds KeyLimit (max key %d)", uint64(KeyLimit-1))
	// ErrTooManyRows is returned for a relation of more than MaxRows
	// records.
	ErrTooManyRows = fmt.Errorf("relops: relation exceeds MaxRows (2^%d rows)", maxRowsLog)
	// ErrBadWidth is returned for a key-column count outside
	// [1, MaxKeyCols].
	ErrBadWidth = fmt.Errorf("relops: key-column count must be in [1, %d]", MaxKeyCols)
	// ErrBadCapacity is returned for a join output capacity (maxOut)
	// outside [1, MaxRows] — the capacity is a public relation shape and is
	// bounded like a row count.
	ErrBadCapacity = fmt.Errorf("relops: join capacity maxOut must be in [1, 2^%d] rows", maxRowsLog)
	// ErrJoinOverflow is returned when a join's true match count exceeds
	// the caller-supplied public output capacity maxOut. The match count is
	// data, so the capacity must be chosen from public knowledge (at worst
	// len(left)*len(right), itself capped by the MaxRows capacity bound).
	ErrJoinOverflow = fmt.Errorf("relops: join match count exceeds the public output capacity maxOut (capacities range up to 2^%d rows)", maxRowsLog)
	// ErrCapTooLarge is returned by a CapAuto join when the worst-case match
	// bound Σ|L_g|·|R_g| exceeds MaxRows: no legal capacity can hold the
	// join, so the caller must shrink the inputs rather than retry.
	ErrCapTooLarge = fmt.Errorf("relops: join match bound exceeds MaxRows (2^%d rows)", maxRowsLog)
)

// CapAuto, passed as the maxOut of JoinAll / JoinAllDeferred, sizes the
// output from the join's own key sort: once the group multiplicities are
// in hand (joinExpand step 2b) the worst-case match bound Σ over key groups
// of |left group|·|right group| — which is the true match count — becomes
// the capacity, floored to the legal minimum of 1. No extra pass runs; the
// bound is public shape from that point on, exactly like a hand-picked
// maxOut.
const CapAuto = -1

// CheckCapacity validates a public join output capacity against the same
// row bound CheckShape enforces, without materializing anything. maxOut is
// an int64 so the above-MaxRows range stays expressible on 32-bit
// platforms.
func CheckCapacity(maxOut int64) error {
	if maxOut < 1 || maxOut > MaxRows {
		return fmt.Errorf("%w: capacity %d", ErrBadCapacity, maxOut)
	}
	return nil
}

// Record is one relational (keys..., value) record. Key is column 0; Key2
// is column 1 and is ignored by width-1 relations.
type Record struct {
	Key, Key2, Val uint64
}

// Col returns key column k of r.
func (r Record) Col(k int) uint64 {
	if k == 0 {
		return r.Key
	}
	return r.Key2
}

// Rel is a loaded relation: the padded power-of-two element array plus its
// public schema width (key-column count). The width, like the row count,
// is query shape — it determines the sort schedules' word count and
// nothing about the record contents.
type Rel struct {
	A *mem.Array[obliv.Elem]
	W int
}

// Len returns the padded array length.
func (r Rel) Len() int { return r.A.Len() }

// CheckShape validates a public relation shape (row count, key-column
// count) against the packing bounds without materializing anything. Load
// applies it; callers with shape-only knowledge (API validation, tests of
// bounds too large to allocate) use it directly. rows is an int64 so the
// above-MaxRows range stays expressible on 32-bit platforms.
func CheckShape(rows int64, cols int) error {
	if cols < 1 || cols > MaxKeyCols {
		return fmt.Errorf("%w: %d columns", ErrBadWidth, cols)
	}
	if rows > MaxRows {
		return fmt.Errorf("%w: %d records", ErrTooManyRows, rows)
	}
	return nil
}

// Load validates recs against the schedule bounds (key columns < KeyLimit,
// at most MaxRows records, 1 <= w <= MaxKeyCols — violations return
// ErrKeyTooLarge / ErrTooManyRows / ErrBadWidth) and places them into a
// fresh power-of-two element array padded with fillers, recording each
// record's original position in Aux. w is the relation's public key-column
// count; columns beyond w are ignored. The copy is a harness operation
// (input loading) and is not instrumented.
func Load(sp *mem.Space, recs []Record, w int) (Rel, error) {
	if err := CheckShape(int64(len(recs)), w); err != nil {
		return Rel{}, err
	}
	for i, r := range recs {
		for k := 0; k < w; k++ {
			if r.Col(k) >= KeyLimit {
				return Rel{}, fmt.Errorf("%w: record %d column %d key %d", ErrKeyTooLarge, i, k, r.Col(k))
			}
		}
	}
	a := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(len(recs)))
	for i, r := range recs {
		e := obliv.Elem{Key: r.Key, Val: r.Val, Aux: uint64(i), Kind: obliv.Real}
		if w > 1 {
			e.Key2 = r.Key2
		}
		a.Data()[i] = e
	}
	return Rel{A: a, W: w}, nil
}

// Unload extracts the real records of r in array order. Like Load it is a
// harness operation outside the adversary's view.
func Unload(r Rel) []Record {
	out := make([]Record, 0, countReal(r.A))
	for _, e := range r.A.Data() {
		if e.Kind == obliv.Real {
			out = append(out, Record{Key: e.Key, Key2: e.Key2, Val: e.Val})
		}
	}
	return out
}

// countReal counts the real records of a from raw memory (outside the
// adversary's view; diagnostics only).
func countReal(a *mem.Array[obliv.Elem]) int {
	n := 0
	for _, e := range a.Data() {
		if e.Kind == obliv.Real {
			n++
		}
	}
	return n
}

// keyCol returns key column k of e.
func keyCol(e obliv.Elem, k int) uint64 {
	if k == 0 {
		return e.Key
	}
	return e.Key2
}

// schedule is the public description of one sort's key layout: the number
// of words per element and the emitter filling them. Width and emitter
// identity are functions of the relation's schema, never of its contents;
// full ties break by obliv.TiePos in every schedule.
type schedule struct {
	w    int
	emit func(e obliv.Elem, out []uint64)
}

// keyIdxSched is the (key columns..., position) schedule: it orders by the
// key tuple with a stable, deterministic position tie-break, and sorts
// fillers last (every cached word of a filler is the obliv.InfKey
// sentinel, above every legal key column). Only the key columns occupy
// schedule planes — the position word of the logical order rides inside
// the elements via obliv.TiePos, so widening the key never pays a
// dedicated position plane of comparator traffic.
func keyIdxSched(w int) schedule {
	return schedule{w: w, emit: func(e obliv.Elem, out []uint64) {
		if e.Kind != obliv.Real {
			fillInf(out)
			return
		}
		for k := 0; k < w; k++ {
			out[k] = keyCol(e, k)
		}
	}}
}

// posSched orders real elements by original position with fillers last —
// the compaction schedule that restores the operators' public output
// order.
func posSched() schedule {
	return schedule{w: 1, emit: func(e obliv.Elem, out []uint64) {
		if e.Kind != obliv.Real {
			out[0] = obliv.InfKey
			return
		}
		out[0] = e.Aux
	}}
}

// descValSched orders real elements by descending value, equal values by
// input position, with fillers last: the order the top-k tournament
// selects by (a record with Val == 0 ties the fillers' obliv.InfKey word,
// and TiePos puts it first). No full sort runs on it.
func descValSched() schedule {
	return schedule{w: 1, emit: func(e obliv.Elem, out []uint64) {
		if e.Kind != obliv.Real {
			out[0] = obliv.InfKey
			return
		}
		out[0] = ^e.Val
	}}
}

func fillInf(out []uint64) {
	for i := range out {
		out[i] = obliv.InfKey
	}
}

// sameGroup reports whether two adjacent elements of a key-sorted relation
// belong to the same key group at width w. Fillers form their own group:
// grouping is Kind-aware, so even a real record whose key columns all
// carry the maximal legal value can never merge with the filler tail.
func sameGroup(w int) func(x, y obliv.Elem) bool {
	return func(x, y obliv.Elem) bool {
		if x.Kind != y.Kind {
			return false
		}
		if x.Kind != obliv.Real {
			return true
		}
		if x.Key != y.Key {
			return false
		}
		return w < 2 || x.Key2 == y.Key2
	}
}

// sortSched sorts all of a ascending by the lexicographic schedule sc. The
// key words are materialized once into an arena-backed obliv.KeySchedule
// (one fixed linear pass) and the sorter orders by the cached vectors — no
// single closure word can express a multi-word schedule, which is why the
// relational layer takes obliv.ScheduledSorter. Backend selection happens inside
// the sorter: the keyed bitonic networks run everywhere, and the
// shuffle-then-sort backend (core.ShuffleSorter) switches between its
// composition and its bitonic fallback at a public size crossover — a
// function of a's length alone, so which machinery runs is itself query
// shape. Either way every pass moves the schedule planes in lockstep with
// the elements, and the trace shape depends only on public quantities:
// (length, sc.w) exactly for the networks, (length, sc.w, coins, permuted
// key order) for the shuffle composition (input-independent in
// distribution over its secret permutation; see core.ShuffleSorter).
func sortSched(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, a *mem.Array[obliv.Elem], sc schedule, srt obliv.ScheduledSorter) {
	n := a.Len()
	if n <= 1 {
		return
	}
	c.SortPass("relops.sort")
	ks := ar.Keys(sp, n, sc.w)
	kscr := ar.KeyScratch(sp, n, sc.w)
	obliv.BuildKeySchedule(c, a, ks, 0, n, sc.emit)
	srt.SortScheduled(c, sp, a, ks, ar.ElemScratch(sp, n), kscr, 0, n)
}

// markBoundaries sets Mark=1 on every real element whose predecessor
// belongs to a different key group (the group heads of a key-sorted
// relation) and Mark=0 elsewhere. The neighbor reads form a fixed access
// pattern. Like obliv.PropagateFirst, the boundary scan writes to a
// scratch array so no leaf reads a position another leaf writes (a
// read-and-write pass over the same positions would race under the
// parallel executor).
func markBoundaries(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel) {
	n := r.Len()
	a := r.A
	same := sameGroup(r.W)
	head := ar.Marks(sp, n)
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			h := i == 0
			if i > 0 {
				prev := a.Get(c, i-1)
				c.Op(1)
				h = !same(prev, e)
			}
			var b uint8
			if h && e.Kind == obliv.Real {
				b = 1
			}
			head.Set(c, i, b)
		}
	})
	forkjoin.ParallelRange(c, 0, n, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := a.Get(c, i)
			e.Mark = head.Get(c, i)
			a.Set(c, i, e)
		}
	})
}
