package relops

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// Distinct obliviously deduplicates r by its key columns: for every key
// tuple the earliest record (smallest original position) survives,
// survivors move to the front in original input order, and the
// distinct-key count is returned.
//
// Pipeline: sort by (key columns..., position) so duplicates are adjacent
// with the earliest record first, mark group heads with a fixed
// neighbor-compare pass, then compact the marked records — two
// data-independent sorts and two elementwise passes, trace a function of
// r's shape only. ar supplies reusable scratch (nil = allocate fresh).
func Distinct(c *forkjoin.Ctx, sp *mem.Space, ar *Arena, r Rel, srt obliv.ScheduledSorter) int {
	sortSched(c, sp, ar, r.A, keyIdxSched(r.W), srt)
	markBoundaries(c, sp, ar, r)
	return compactMarked(c, sp, ar, r.A, srt)
}
