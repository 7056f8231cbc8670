package oblivmc

import (
	"errors"
	"fmt"
	"testing"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/faultinject"
	"oblivmc/internal/relops"
)

// sendRecvOps are the public operators whose send-receive or group
// aggregation is one recorded plane sort and one un-sort: Lookup, Join and
// GroupTotals, each over a small fixed input with hits, misses and
// repeated groups.
func sendRecvOps(t *testing.T) []struct {
	name string
	run  func(cfg Config) (*Report, error)
} {
	keys, vals := make([]uint64, 64), make([]uint64, 64)
	for i := range keys {
		keys[i], vals[i] = uint64(i*3), uint64(i*i+1)
	}
	queries := make([]uint64, 32)
	for i := range queries {
		queries[i] = uint64(i * 2)
	}
	left, right := make([]Row, len(keys)), make([]Row, len(queries))
	for i := range left {
		left[i] = Row{Key: keys[i], Val: vals[i]}
	}
	for j := range right {
		right[j] = Row{Key: queries[j], Val: uint64(j)}
	}
	lt, rt := mustTable(t, left), mustTable(t, right)
	groups := make([]uint64, 40)
	for i := range groups {
		groups[i] = uint64(i % 7)
	}
	return []struct {
		name string
		run  func(cfg Config) (*Report, error)
	}{
		{"Lookup", func(cfg Config) (*Report, error) {
			_, _, rep, err := Lookup(cfg, keys, vals, queries)
			return rep, err
		}},
		{"Join", func(cfg Config) (*Report, error) {
			_, rep, err := Join(cfg, lt, rt)
			return rep, err
		}},
		{"GroupTotals", func(cfg Config) (*Report, error) {
			_, rep, err := GroupTotals(cfg, groups, vals[:len(groups)])
			return rep, err
		}},
	}
}

// TestSendReceiveOpsRunOneSortAndOneUnsort pins the backend independence
// of Lookup, Join and GroupTotals: on every sort backend each runs exactly
// one bitonic network sort and one un-sort (the package-level call
// counters; tests in this package do not use t.Parallel, so the deltas are
// not racy), and its metered trace is the same on every backend.
func TestSendReceiveOpsRunOneSortAndOneUnsort(t *testing.T) {
	for _, op := range sendRecvOps(t) {
		var views []string
		for _, be := range []SortBackend{SortAuto, SortBitonic, SortShuffle} {
			cfg := Config{SortBackend: be, DeterministicShuffle: true, Seed: 3}
			sorts, unsorts := bitonic.NetworkCalls(), bitonic.ReplayCalls()
			if _, err := op.run(cfg); err != nil {
				t.Fatal(err)
			}
			if d, u := bitonic.NetworkCalls()-sorts, bitonic.ReplayCalls()-unsorts; d != 1 || u != 1 {
				t.Fatalf("%s on backend %d: %d network sorts and %d un-sorts, want 1 and 1", op.name, be, d, u)
			}
			cfg.Mode, cfg.Trace = ModeMetered, true
			rep, err := op.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, fmt.Sprintf("W=%d span=%d fp=%v", rep.Work, rep.Span, rep.TraceFingerprint))
		}
		for i, v := range views[1:] {
			if v != views[0] {
				t.Fatalf("%s: metered view on backend %d is %s, on SortAuto %s", op.name, i+1, v, views[0])
			}
		}
	}
}

// TestSendReceiveSortPassInjection: the one sort of Lookup, Join and
// GroupTotals starts at the sort-pass checkpoint, so an armed sort.pass
// fault site trips each of them into a *PanicError (ErrInternal).
func TestSendReceiveSortPassInjection(t *testing.T) {
	defer faultinject.Reset()
	for _, op := range sendRecvOps(t) {
		faultinject.Reset()
		faultinject.PanicAt("sort.pass", 1)
		_, err := op.run(Config{Mode: ModeSerial})
		var pe *PanicError
		if !errors.Is(err, ErrInternal) || !errors.As(err, &pe) {
			t.Fatalf("%s with sort.pass armed: err = %v, want a *PanicError (ErrInternal)", op.name, err)
		}
		if _, ok := pe.Val.(*faultinject.Injected); !ok {
			t.Fatalf("%s: PanicError.Val = %T (%v), want *faultinject.Injected", op.name, pe.Val, pe.Val)
		}
	}
}

// TestGroupTotalsEveryExecutor: GroupTotals equals a map of group sums on
// the serial, pool and metered executors, at 1 and 2^k±1 records, with
// repeated groups spread over the key range up to relops.KeyLimit−1.
func TestGroupTotalsEveryExecutor(t *testing.T) {
	pool := []uint64{0, 1, 7, 1 << 62, 1 << 63, relops.KeyLimit - 1}
	for _, n := range []int{1, 3, 5, 7, 9, 31, 33, 255, 257} {
		groups, values := make([]uint64, n), make([]uint64, n)
		sums := map[uint64]uint64{}
		for i := range groups {
			groups[i] = pool[(i*i+3*i)%len(pool)]
			values[i] = uint64(i)*0x9e3779b97f4a7c15 + 1 // sums wrap
			sums[groups[i]] += values[i]
		}
		for _, cfg := range []Config{{Mode: ModeSerial}, {Mode: ModeParallel, Workers: 2}, {Mode: ModeMetered}} {
			got, _, err := GroupTotals(cfg, groups, values)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range groups {
				if got[i] != sums[g] {
					t.Fatalf("n=%d mode %d: record %d (group %d) total %d, want %d", n, cfg.Mode, i, g, got[i], sums[g])
				}
			}
		}
	}
}
