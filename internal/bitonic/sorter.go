package bitonic

import (
	"sync/atomic"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
)

// networkCalls counts entries into the package's sorting networks (every
// Sort/SortScheduled that actually runs a network, across all sorter
// types). It exists for backend-routing regression tests: a run that
// selected the shuffle backend end to end must leave the counter
// untouched. The counter is advisory test instrumentation, not part of
// the oblivious cost model.
var networkCalls atomic.Int64

// NetworkCalls returns the number of bitonic/odd-even network invocations
// since process start (a plane sort, recorded or not, is one). Tests snapshot it around a
// run and assert on the delta.
func NetworkCalls() int64 { return networkCalls.Load() }

// replayCalls counts un-sorts (CacheAgnostic.Unsort calls that run a
// replay), the recorded sorts' inverses; advisory like networkCalls.
var replayCalls atomic.Int64

// ReplayCalls returns the number of un-sorts since process start.
func ReplayCalls() int64 { return replayCalls.Load() }

// CacheAgnostic is the obliv.ScheduledSorter backed by the paper's
// cache-agnostic BITONIC-SORT (§E.1) on the cached-key comparator. It is
// the sorter used by REC-ORBA, REC-SORT and all higher-level primitives in
// the practical configuration. n must be a power of two.
type CacheAgnostic struct{}

var (
	_ obliv.ScheduledSorter = CacheAgnostic{}
	_ obliv.RecordingSorter = CacheAgnostic{}
)

// Name implements obliv.ScheduledSorter.
func (CacheAgnostic) Name() string { return "bitonic-cache-agnostic" }

// Sort implements obliv.ScheduledSorter: one key-build pass, then the keyed
// network.
func (s CacheAgnostic) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	obliv.SortKeyed(c, sp, a.View(lo, n), n, key, s)
}

// SortScheduled implements obliv.ScheduledSorter (the space is unused; the
// network sorts through the caller's scratch).
func (CacheAgnostic) SortScheduled(c *forkjoin.Ctx, _ *mem.Space, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, lo, n int) {
	if n <= 1 {
		return
	}
	networkCalls.Add(1)
	SortCAKeyed(c, a, scr, ks, kscr, lo, n, true, 0)
}

// RecordWords implements obliv.RecordingSorter.
func (CacheAgnostic) RecordWords(c *forkjoin.Ctx, n int) int { return RecordWords(c, n, 0) }

// SortRecorded implements obliv.RecordingSorter: the plane sort, recording
// one swap bit per comparator when rec is non-nil.
func (CacheAgnostic) SortRecorded(c *forkjoin.Ctx, _ *mem.Space, ws, wscr *obliv.KeySchedule, k int, rec *mem.Array[uint64], lo, n int) {
	if n <= 1 {
		return
	}
	networkCalls.Add(1)
	SortCAPlanes(c, ws, wscr, k, rec, lo, n, true, 0)
}

// Unsort implements obliv.RecordingSorter by replaying the record backwards
// over the word planes of vs.
func (CacheAgnostic) Unsort(c *forkjoin.Ctx, _ *mem.Space, vs, vscr *obliv.KeySchedule, rec *mem.Array[uint64], lo, n int) {
	if n <= 1 {
		return
	}
	replayCalls.Add(1)
	UnsortCA(c, vs, vscr, rec, lo, n, 0)
}

// Recorder is srt's obliv.RecordingSorter, or CacheAgnostic for a sorter
// that does not sort planes (the shuffle backend, the selection network, a
// test or timing decorator): a plane sort always has a network to run on,
// and never the shuffle path's coin-addressed scratch.
func Recorder(srt obliv.ScheduledSorter) obliv.RecordingSorter {
	if rs, ok := srt.(obliv.RecordingSorter); ok {
		return rs
	}
	return CacheAgnostic{}
}
