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

// replayCalls counts un-sorts (Unsort calls that run a replay), the
// recorded sorts' inverses; advisory like networkCalls.
var replayCalls atomic.Int64

// ReplayCalls returns the number of un-sorts since process start.
func ReplayCalls() int64 { return replayCalls.Load() }

// The network obliv's send-receive sorts its union on: obliv sits below
// this package, so it cannot call SortRecorded itself.
func init() {
	obliv.PlaneNetwork.SortRecorded, obliv.PlaneNetwork.Unsort, obliv.PlaneNetwork.RecordWords = SortRecorded, Unsort, RecordWords
}

// CacheAgnostic is the obliv.ScheduledSorter backed by the paper's
// cache-agnostic BITONIC-SORT (§E.1) on the cached-key comparator. It is
// the sorter used by REC-ORBA, REC-SORT and all higher-level primitives in
// the practical configuration. n must be a power of two.
type CacheAgnostic struct{}

var _ obliv.ScheduledSorter = CacheAgnostic{}

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

// SortRecorded is the word-plane sort of the PRAM layer, the entry of every
// plane sort a kernel runs: a sort-pass checkpoint (forkjoin.Ctx.SortPass,
// which counts it on the run's token), then SortCAPlanes ascending over
// ws[0:n) at the default leaf — by the first k planes, the rest carried,
// recording one swap bit per comparator into rec (RecordWords(c, n, 0)
// words) when rec is non-nil. n must be a power of two.
func SortRecorded(c *forkjoin.Ctx, ws, wscr *obliv.KeySchedule, k int, rec *mem.Array[uint64], n int) {
	c.SortPass("bitonic.layer")
	if n <= 1 {
		return
	}
	networkCalls.Add(1)
	SortCAPlanes(c, ws, wscr, k, rec, 0, n, true, 0)
}

// Unsort undoes SortRecorded's recorded sort on the word planes of
// vs[0:n) by replaying rec backwards (UnsortCA at the default leaf); it
// reads no key and is not a sort pass.
func Unsort(c *forkjoin.Ctx, vs, vscr *obliv.KeySchedule, rec *mem.Array[uint64], n int) {
	if n <= 1 {
		return
	}
	replayCalls.Add(1)
	UnsortCA(c, vs, vscr, rec, 0, n, 0)
}
