package relops

import (
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// Arena caches the scratch arrays the relational passes need — sorting
// scratch, cached key schedules, boundary marks, rank counters — so a
// multi-pass operator or a whole planned query allocates each of them once
// instead of once per pass. Reuse is trace-safe: the allocation sequence,
// like everything else here, is a function of the relation sizes and
// schema widths only, and every pass fully overwrites the region it reads.
//
// Every request goes through an arena (NewArena; there is no nil mode).
// Arenas are not safe for concurrent use; passes are issued sequentially
// from the orchestration path, which is the only place they are requested.
type Arena struct {
	// sp is the address space the cached arrays were reserved in. Cached
	// arrays are only valid in their own space — addresses from one space
	// would alias independently reserved ranges of another — so a request
	// under a different space drops the cache and reallocates.
	sp *mem.Space
	// keys and keyScr back the key schedules: one maximal word array each,
	// re-carved per request into a strided width-w schedule (passes of
	// different widths share the same backing).
	keys    *mem.Array[uint64]
	keyScr  *mem.Array[uint64]
	ranks   *mem.Array[uint64]
	elemScr *mem.Array[obliv.Elem]
	marks   *mem.Array[uint8]
}

// NewArena returns an empty arena; arrays are allocated on first use and
// grown when a larger relation shows up (JoinAll's interleaved array).
func NewArena() *Arena { return &Arena{} }

// rebind invalidates the cache when the requesting space changes.
func (ar *Arena) rebind(sp *mem.Space) {
	if ar.sp != sp {
		*ar = Arena{sp: sp}
	}
}

// Keys returns a width-w cached key schedule covering n elements.
func (ar *Arena) Keys(sp *mem.Space, n, w int) *obliv.KeySchedule {
	ar.rebind(sp)
	if ar.keys == nil || ar.keys.Len() < n*w {
		ar.keys = mem.Alloc[uint64](sp, n*w)
	}
	return obliv.NewKeySchedule(ar.keys, n, w)
}

// KeyScratch returns a width-w key-schedule sorting scratch covering n
// elements.
func (ar *Arena) KeyScratch(sp *mem.Space, n, w int) *obliv.KeySchedule {
	ar.rebind(sp)
	if ar.keyScr == nil || ar.keyScr.Len() < n*w {
		ar.keyScr = mem.Alloc[uint64](sp, n*w)
	}
	return obliv.NewKeySchedule(ar.keyScr, n, w)
}

// Ranks returns the prefix-rank array of length n (JoinAll's expansion
// offsets, its only user).
func (ar *Arena) Ranks(sp *mem.Space, n int) *mem.Array[uint64] {
	ar.rebind(sp)
	if ar.ranks == nil || ar.ranks.Len() < n {
		ar.ranks = mem.Alloc[uint64](sp, n)
	}
	return ar.ranks.View(0, n)
}

// ElemScratch returns the element sorting scratch of length n.
func (ar *Arena) ElemScratch(sp *mem.Space, n int) *mem.Array[obliv.Elem] {
	ar.rebind(sp)
	if ar.elemScr == nil || ar.elemScr.Len() < n {
		ar.elemScr = mem.Alloc[obliv.Elem](sp, n)
	}
	return ar.elemScr.View(0, n)
}

// Marks returns the boundary-mark scratch of length n (markBoundaries).
func (ar *Arena) Marks(sp *mem.Space, n int) *mem.Array[uint8] {
	ar.rebind(sp)
	if ar.marks == nil || ar.marks.Len() < n {
		ar.marks = mem.Alloc[uint8](sp, n)
	}
	return ar.marks.View(0, n)
}
