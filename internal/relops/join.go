package relops

import (
	"fmt"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// Joined is one output record of JoinAll: a right record together with the
// value of a left record sharing its key tuple.
type Joined struct {
	Key, Key2, LeftVal, RightVal uint64
}

// Side tags of JoinAll's interleaved work array: tagLeft sorts before
// tagRight under the TiePos tie-break, putting each key group's left
// records ahead of its right records.
const (
	tagLeft  = 0
	tagRight = 1
)

// interleave is JoinAll's first step: it copies left then right into a
// fresh array of NextPow2(len(left)+len(right)) elements (trailing slots
// are fillers), tagging each record with its side. Two fixed elementwise
// passes — the trace depends only on the two lengths.
func interleave(c *forkjoin.Ctx, sp *mem.Space, left, right Rel) *mem.Array[obliv.Elem] {
	if left.W != right.W {
		panic(fmt.Sprintf("relops: join of width-%d and width-%d relations", left.W, right.W))
	}
	nl, nr := left.Len(), right.Len()
	a := mem.Alloc[obliv.Elem](sp, obliv.NextPow2(nl+nr))
	forkjoin.ParallelRange(c, 0, nl, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := left.A.Get(c, i)
			e.Tag = tagLeft
			a.Set(c, i, e)
		}
	})
	forkjoin.ParallelRange(c, 0, nr, passGrain, func(c *forkjoin.Ctx, lo, hi int) {
		for j := lo; j < hi; j++ {
			e := right.A.Get(c, j)
			e.Tag = tagRight
			a.Set(c, nl+j, e)
		}
	})
	return a
}

// UnloadJoined extracts the real joined records of a JoinAll result in
// array order (harness operation, outside the adversary's view).
func UnloadJoined(r Rel) []Joined {
	out := make([]Joined, 0, countReal(r.A))
	for _, e := range r.A.Data() {
		if e.Kind == obliv.Real {
			out = append(out, Joined{Key: e.Key, Key2: e.Key2, LeftVal: e.Lbl, RightVal: e.Val})
		}
	}
	return out
}
