package oblivmc

import (
	"testing"

	"oblivmc/internal/prng"
	"oblivmc/internal/trace"
)

// The metered per-access path is the specification the unmetered block
// kernels are held equal to, so its cost model must not drift silently:
// these are the work / span / memory-operation / fork counts and the trace
// fingerprints of three operators under SortBitonic, recorded at commit
// 9ea1bc9 — the last one before the block kernels, with bitonic leaf 32 and
// transpose tile 8 — and a function of the public shape alone. They hold
// unchanged at the block-sized leaf constants because metered runs ignore
// those; a change that moves one of them changed the specification, not a
// kernel.

type specCounts struct {
	Work, Span, MemOps, Forks int64
	Trace                     trace.Fingerprint
}

func countsOf(r *Report) specCounts {
	return specCounts{Work: r.Work, Span: r.Span, MemOps: r.MemOps, Forks: r.Forks, Trace: r.TraceFingerprint}
}

func specConfig() Config {
	return Config{Mode: ModeMetered, Trace: true, Seed: 1, SortBackend: SortBitonic}
}

func specRows(seed uint64, n, keys int) []Row {
	src := prng.New(seed)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: uint64(src.Intn(keys)), Val: uint64(src.Intn(1 << 20))}
	}
	return rows
}

func specEdges(seed uint64, n, m int) Table {
	src := prng.New(seed)
	edges := make([]WeightedEdge, m)
	for i := range edges {
		edges[i] = WeightedEdge{U: src.Intn(n), V: src.Intn(n), W: 1}
	}
	edges[0].V = n - 1 // pin the public vertex count
	tab, err := NewEdgeTable(edges)
	if err != nil {
		panic(err)
	}
	return tab
}

func specQuery(t *testing.T, seed uint64) *Report {
	t.Helper()
	tab, err := NewTable(specRows(seed, 1<<12, 400))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Filter: func(r Row) bool { return r.Val >= 1<<18 }, Distinct: true, GroupBy: AggSum, TopK: 10}
	_, rep, err := RunQuery(specConfig(), tab, q)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestMeteredSpecGolden(t *testing.T) {
	t.Run("query", func(t *testing.T) {
		want := specCounts{Work: 11557112, Span: 7507, MemOps: 6991867, Forks: 2102400,
			Trace: trace.Fingerprint{Hash: 12710906732347129727, Count: 11196667}}
		if got := countsOf(specQuery(t, 3)); got != want {
			t.Fatalf("RunQuery F→D→G→T on 2^12 rows: %+v, recorded %+v", got, want)
		}
	})
	t.Run("join_all", func(t *testing.T) {
		left, err := NewTable(specRows(5, 1<<8, 64))
		if err != nil {
			t.Fatal(err)
		}
		right, err := NewTable(specRows(6, 1<<10, 512))
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := JoinAllRows(specConfig(), left, right, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		want := specCounts{Work: 19780464, Span: 14601, MemOps: 12214761, Forks: 3533002,
			Trace: trace.Fingerprint{Hash: 3491173136911289372, Count: 19280765}}
		if got := countsOf(rep); got != want {
			t.Fatalf("JoinAllRows 2^8 × 2^10 cap 2^10: %+v, recorded %+v", got, want)
		}
	})
	t.Run("components", func(t *testing.T) {
		_, rep, err := Components(specConfig(), specEdges(7, 1<<8, 1<<10), 4)
		if err != nil {
			t.Fatal(err)
		}
		want := specCounts{Work: 75823884, Span: 97639, MemOps: 45971612, Forks: 13743958,
			Trace: trace.Fingerprint{Hash: 13824040820306690115, Count: 73459528}}
		if got := countsOf(rep); got != want {
			t.Fatalf("Components rounds 4 on 2^10 edges: %+v, recorded %+v", got, want)
		}
	})
}
