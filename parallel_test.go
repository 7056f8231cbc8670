package oblivmc

// Parallel-correctness property tests for the multicore path: the same
// queries under ModeSerial and ModeParallel (several pool sizes) across
// both sort backends must produce byte-identical public results, and the
// trace fingerprint — which is defined by the metered executor, sequential
// by construction — must be unaffected by however many workers the pool
// runs. These tests run under -race by design: the pool's deques, the
// per-level Beneš routing fan-out, the grained scan sweeps, and the
// sample-sort scatter all execute with real concurrency here.

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"oblivmc/internal/benchdata"
	"oblivmc/internal/prng"
	"oblivmc/internal/relops"
)

// stressQueryRows draws a workload with heavy key duplication so Distinct,
// GroupBy, and TopK all do real work, padded past a power of two so the
// oblivious padding paths run too.
func stressQueryRows(n int, seed uint64) []Row {
	src := prng.New(seed)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: src.Uint64n(97), Val: src.Uint64n(1 << 30)}
	}
	return rows
}

func TestModeParallelMatchesSerial(t *testing.T) {
	tab := mustTable(t, stressQueryRows(3000, 1234)) // pads to 4096 slots
	queries := []Query{
		{
			Filter:   func(r Row) bool { return r.Val%7 != 0 },
			Distinct: true,
			GroupBy:  AggSum,
			TopK:     11,
		},
		{GroupBy: AggMax},
	}
	for qi, q := range queries {
		for _, backend := range []SortBackend{SortBitonic, SortShuffle} {
			ref, _, err := RunQuery(Config{Mode: ModeSerial, SortBackend: backend, Seed: 7}, tab, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				cfg := Config{Mode: ModeParallel, Workers: workers, SortBackend: backend, Seed: 7}
				got, _, err := RunQuery(cfg, tab, q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("query %d, backend %d, workers %d", qi, backend, workers)
				if len(got.Rows()) != len(ref.Rows()) {
					t.Fatalf("%s: %d rows, want %d", label, len(got.Rows()), len(ref.Rows()))
				}
				for j := range ref.Rows() {
					if got.Rows()[j] != ref.Rows()[j] {
						t.Fatalf("%s: row %d = %v, want %v", label, j, got.Rows()[j], ref.Rows()[j])
					}
				}
			}
		}
	}
}

// TestFingerprintUnaffectedByParallelRuns pins that the adversary's-view
// fingerprint is a property of the metered (sequential) executor alone:
// metered runs bracketing a batch of multi-worker pool runs report the
// same fingerprint bit for bit.
func TestFingerprintUnaffectedByParallelRuns(t *testing.T) {
	tab := mustTable(t, stressQueryRows(700, 99)) // pads to 1024 slots
	q := Query{GroupBy: AggSum, TopK: 5}
	metered := func() interface{} {
		_, rep, err := RunQuery(Config{Mode: ModeMetered, Trace: true, SortBackend: SortBitonic}, tab, q)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	before := metered()
	for _, workers := range []int{2, 8} {
		if _, _, err := RunQuery(Config{Mode: ModeParallel, Workers: workers, SortBackend: SortBitonic}, tab, q); err != nil {
			t.Fatal(err)
		}
	}
	if after := metered(); after != before {
		t.Fatalf("metered fingerprint moved across parallel runs: %v != %v", after, before)
	}
}

// TestScalingSmoke is the CI guard against parallelism regressions: a 2^18
// fused query at 4 workers must be no slower than the serial run (within a
// noise margin — it asserts "parallel doesn't lose", not a brittle speedup
// ratio, so it stays green on loaded runners). The measured ratio is
// logged, and appended to the job summary when GITHUB_STEP_SUMMARY is set,
// so the actual speedup trend is visible per run without gating on it.
func TestScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke skipped in -short")
	}
	if raceEnabled {
		t.Skip("scaling smoke is a timing check; the race detector distorts it")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("scaling smoke needs >= 2 CPUs, have %d", runtime.NumCPU())
	}
	const n = 1 << 18
	tab := mustTable(t, stressQueryRows(n-n/8, 4321)) // pads to 2^18 slots
	q := Query{
		Filter:   func(r Row) bool { return r.Val%3 != 0 },
		Distinct: true,
		GroupBy:  AggSum,
		TopK:     benchTopKSmoke,
	}
	cfgs := [2]Config{
		{Mode: ModeSerial, SortBackend: SortShuffle, Seed: 1, DeterministicShuffle: true},
		{Mode: ModeParallel, Workers: 4, SortBackend: SortShuffle, Seed: 1, DeterministicShuffle: true},
	}
	// Warm both, then alternate them and keep each side's best of two: the
	// minimum damps one-off scheduler and allocator noise without
	// averaging away a real regression, and alternating puts both sides
	// under the same background load (other packages' tests share the
	// CPUs under go test ./...).
	var best [2]float64
	for round := -1; round < 2; round++ {
		for i, cfg := range cfgs {
			start := time.Now()
			if _, _, err := RunQuery(cfg, tab, q); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start).Seconds(); round >= 0 && (best[i] == 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	serial, par := best[0], best[1]
	ratio := serial / par // >1 means the parallel run was faster
	line := fmt.Sprintf("scaling smoke: n=%d serial=%.3fs 4-workers=%.3fs speedup=%.2fx (NumCPU=%d)",
		n, serial, par, ratio, runtime.NumCPU())
	t.Log(line)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			fmt.Fprintf(f, "%s\n\n", line)
			f.Close()
		}
	}
	// 10% headroom: on >= 2 real cores a 4-worker pool must at minimum not
	// lose to serial; anything below that is a scheduling or contention
	// regression, not noise.
	if par > serial*1.10 {
		t.Fatalf("4-worker run slower than serial beyond noise: %s", line)
	}
}

// benchTopKSmoke keeps the smoke query's TopK in one place.
const benchTopKSmoke = 9

// joinStressTables builds a genuinely many-to-many pair at width w: keys
// repeat on both sides, so the expansion pipeline (DistributeOrdered, the
// scatter/propagate/compact tail) does real duplication work.
func joinStressTables(t *testing.T, nl, nr int, w int, seed uint64) (Table, Table) {
	t.Helper()
	src := prng.New(seed)
	mk := func(n int, keySpace uint64) Table {
		rows := make([]WideRow, n)
		for i := range rows {
			keys := make([]uint64, w)
			for c := range keys {
				keys[c] = src.Uint64n(keySpace)
			}
			rows[i] = WideRow{Keys: keys, Val: src.Uint64n(1 << 30)}
		}
		tab, err := NewWideTable(rows)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	return mk(nl, 23), mk(nr, 23)
}

// TestJoinAllModeParallelMatchesSerial: the many-to-many join under
// ModeSerial and ModeParallel (several pool sizes, both sort backends, both
// key widths) must produce byte-identical joined rows. The capacity rides
// JoinCapAuto, so the advisor's parallel path is exercised too. Runs under
// -race by design: the bitonic-merge fan-out and the grained expansion
// scans execute with real concurrency here.
func TestJoinAllModeParallelMatchesSerial(t *testing.T) {
	for _, w := range []int{1, 2} {
		left, right := joinStressTables(t, 120, 400, w, 777)
		for _, backend := range []SortBackend{SortBitonic, SortShuffle} {
			ref, _, err := JoinAllRows(Config{Mode: ModeSerial, SortBackend: backend, Seed: 7}, left, right, JoinCapAuto)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				cfg := Config{Mode: ModeParallel, Workers: workers, SortBackend: backend, Seed: 7}
				got, _, err := JoinAllRows(cfg, left, right, JoinCapAuto)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("width %d, backend %d, workers %d", w, backend, workers)
				if len(got) != len(ref) {
					t.Fatalf("%s: %d rows, want %d", label, len(got), len(ref))
				}
				for j := range ref {
					if fmt.Sprint(got[j]) != fmt.Sprint(ref[j]) {
						t.Fatalf("%s: row %d = %v, want %v", label, j, got[j], ref[j])
					}
				}
			}
		}
	}
}

// TestJoinAllFingerprintUnaffectedByParallelRuns pins that the join
// pipeline's adversary's-view fingerprint is a property of the metered
// (sequential) executor alone: metered runs bracketing multi-worker pool
// runs of the same join report the same fingerprint bit for bit.
func TestJoinAllFingerprintUnaffectedByParallelRuns(t *testing.T) {
	left, right := joinStressTables(t, 60, 200, 1, 424242)
	const maxOut = 2048
	metered := func() interface{} {
		_, rep, err := JoinAllRows(Config{Mode: ModeMetered, Trace: true, SortBackend: SortBitonic}, left, right, maxOut)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	before := metered()
	for _, workers := range []int{2, 8} {
		if _, _, err := JoinAllRows(Config{Mode: ModeParallel, Workers: workers, SortBackend: SortBitonic}, left, right, maxOut); err != nil {
			t.Fatal(err)
		}
	}
	if after := metered(); after != before {
		t.Fatalf("metered join fingerprint moved across parallel runs: %v != %v", after, before)
	}
}

// TestJoinAllScalingSmoke guards the join_all parallel path specifically
// (the 4-worker regression this PR fixed): a 2^18 many-to-many join at 4
// workers must be no slower than the serial run, same skip rules and noise
// margin as TestScalingSmoke.
func TestJoinAllScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke skipped in -short")
	}
	if raceEnabled {
		t.Skip("scaling smoke is a timing check; the race detector distorts it")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("scaling smoke needs >= 2 CPUs, have %d", runtime.NumCPU())
	}
	const n = 1 << 18
	lrecs, rrecs, maxOut := benchdata.JoinAllRecords(n)
	toRows := func(recs []relops.Record) []Row {
		rows := make([]Row, len(recs))
		for i, r := range recs {
			rows[i] = Row{Key: r.Key, Val: r.Val}
		}
		return rows
	}
	left := mustTable(t, toRows(lrecs))
	right := mustTable(t, toRows(rrecs))
	run := func(cfg Config) float64 {
		// Warm, then best-of-two, as in TestScalingSmoke.
		if _, _, err := JoinAllRows(cfg, left, right, maxOut); err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for i := 0; i < 2; i++ {
			start := time.Now()
			if _, _, err := JoinAllRows(cfg, left, right, maxOut); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start).Seconds(); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	serial := run(Config{Mode: ModeSerial, SortBackend: SortShuffle, Seed: 1, DeterministicShuffle: true})
	par := run(Config{Mode: ModeParallel, Workers: 4, SortBackend: SortShuffle, Seed: 1, DeterministicShuffle: true})
	ratio := serial / par
	line := fmt.Sprintf("join_all scaling smoke: n=%d serial=%.3fs 4-workers=%.3fs speedup=%.2fx (NumCPU=%d)",
		n, serial, par, ratio, runtime.NumCPU())
	t.Log(line)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			fmt.Fprintf(f, "%s\n\n", line)
			f.Close()
		}
	}
	if par > serial*1.10 {
		t.Fatalf("4-worker join_all slower than serial beyond noise: %s", line)
	}
}
