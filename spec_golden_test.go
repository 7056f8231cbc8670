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
// kernel. The four one-operator rows are the spec of the public Filter /
// Distinct / GroupBy / TopK — each a one-stage query — recorded from
// RunQuery of that one-stage Query at commit dce8244, the last one where
// the wrappers still ran a second operator family. The query and top_k
// rows were re-recorded when TopK's value sort and rank prefix sum became
// one bitonic tournament (every other row unchanged): query W 11557112 →
// 6160872, Span 7507 → 4976, MemOps 6991867 → 3763829; top_k W 5788794 →
// 392554, Span 3789 → 1258, MemOps 3502076 → 274038. The components row
// was re-recorded when pram.Gather and ScatterResolve stopped sorting the
// union of their already-ordered sides and began merging them (one
// recorded bitonic merge and its un-merge per send-receive): W 75823884 →
// 30730236, Span 97639 → 72067, MemOps 45971612 → 18542748, Forks
// 13743958 → 5455310. The join_all and components rows were re-recorded
// when the bitonic merge and its un-merge moved onto obliv.Layer, whose
// metered fork tree has one leaf per comparator instead of one per
// position (half of them idle): only fork and join events moved — the
// read/write stream, MemOps, Reads and Writes are unchanged, and Work and
// the trace count fall by two per fork dropped. join_all: Forks 3533002 →
// 3508426, W 19780464 → 19731312, Span 14601 → 14577, trace count
// 19280765 → 19231613; components: Forks 5455310 → 5131726, W 30730236 →
// 30083068, Span 72067 → 71411, trace count 29453368 → 28806200. The
// components row was re-recorded (every other row unchanged) when
// pram.Gather began recording its request sort and un-sorting its results
// by replay instead of sorting them back, and min-hook CC's static
// endpoint gather began recording its sort once, in its first round, and
// replaying it every round — 28 sorts became 13 sorts and 12 replays: W
// 30083068 → 18317780, Span 71411 → 52997, MemOps 18542748 → 11382940,
// Forks 5131726 → 2943674, trace count 28806200 → 17270288. Its trace
// hash was re-recorded (11223912000145505483 → 1625243168940545884; every
// count unchanged: W 18317780, Span 52997, MemOps 11382940, Forks 2943674,
// trace count 17270288) when the gather's un-sort and send-receive's
// un-merge began replaying their swaps over the routed value words — the
// merge's dead key plane, then the request sort's key plane and key
// scratch — instead of over element arrays: the metered model charges one
// address per element and per word alike, so only the addresses moved.
// The components row was re-recorded (every other row unchanged) when the
// PRAM layer stopped moving elements: the gather's request sort became a
// recorded sort of one address plane, the scatter's sort a sort of
// (address, priority) planes carrying the value, whose winner the
// send-receive picks by a neighbour compare instead of a propagation, and
// send-receive a merge of (routing word, value) planes whose un-merge
// replays the value plane, its work space allocated once per gatherer. A
// plane comparator reads and rewrites one address per plane where the
// element comparator touched the element and its key word, so the
// scatter's three-plane sort costs a memory operation more per side and
// the gather's one-plane sort one fewer: W 18317780 → 18289312, Span
// 52997 → 49908, MemOps 11382940 → 11422892, Forks 2943674 → 2943252,
// trace count 17270288 → 17309396 (hash 1625243168940545884 →
// 4998677507959125296). Its trace hash was re-recorded (4998677507959125296
// → 11008180800158423161; every count unchanged: W 18289312, Span 49908,
// MemOps 11422892, Forks 2943252, trace count 17309396) when min-hook CC
// began allocating its PRAM work space once per run: the scatter's request
// planes (pram.Scatterer, written directly by the hook pass instead of
// through an element array and a load pass — three writes per request
// there, one read and one write per request in the scatterer's address
// clamp, the same count), one gatherer re-sorted onto each pointer jump's
// addresses, and one obliv.Router all of them share on prefixes of its
// planes. Reused buffers keep their addresses from round to round, so only
// the addresses moved.

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
		want := specCounts{Work: 6160872, Span: 4976, MemOps: 3763829, Forks: 1092050,
			Trace: trace.Fingerprint{Hash: 8711762884611439002, Count: 5947929}}
		if got := countsOf(specQuery(t, 3)); got != want {
			t.Fatalf("RunQuery F→D→G→T on 2^12 rows: %+v, recorded %+v", got, want)
		}
	})
	for _, op := range []struct {
		name string
		run  func(Config, Table) (Table, *Report, error)
		want specCounts
	}{
		{"filter", func(cfg Config, tab Table) (Table, *Report, error) {
			return Filter(cfg, tab, func(r Row) bool { return r.Val >= 1<<18 })
		}, specCounts{Work: 5702790, Span: 3636, MemOps: 3457024, Forks: 1038915,
			Trace: trace.Fingerprint{Hash: 6518450721149442630, Count: 5534854}}},
		{"distinct", Distinct,
			specCounts{Work: 11430152, Span: 7300, MemOps: 6930431, Forks: 2081925,
				Trace: trace.Fingerprint{Hash: 6811358394835245318, Count: 11094281}}},
		{"group_by", func(cfg Config, tab Table) (Table, *Report, error) { return GroupBy(cfg, tab, AggSum) },
			specCounts{Work: 11540728, Span: 7481, MemOps: 6987770, Forks: 2098305,
				Trace: trace.Fingerprint{Hash: 14211492601299617204, Count: 11184380}}},
		{"top_k", func(cfg Config, tab Table) (Table, *Report, error) { return TopK(cfg, tab, 10) },
			specCounts{Work: 392554, Span: 1258, MemOps: 274038, Forks: 40850,
				Trace: trace.Fingerprint{Hash: 13609242156703820756, Count: 355738}}},
	} {
		t.Run(op.name, func(t *testing.T) {
			tab, err := NewTable(specRows(3, 1<<12, 400))
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := op.run(specConfig(), tab)
			if err != nil {
				t.Fatal(err)
			}
			if got := countsOf(rep); got != op.want {
				t.Fatalf("%s on 2^12 rows: %+v, recorded %+v", op.name, got, op.want)
			}
		})
	}
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
		want := specCounts{Work: 19731312, Span: 14577, MemOps: 12214761, Forks: 3508426,
			Trace: trace.Fingerprint{Hash: 14196845382905693148, Count: 19231613}}
		if got := countsOf(rep); got != want {
			t.Fatalf("JoinAllRows 2^8 × 2^10 cap 2^10: %+v, recorded %+v", got, want)
		}
	})
	t.Run("components", func(t *testing.T) {
		_, rep, err := Components(specConfig(), specEdges(7, 1<<8, 1<<10), 4)
		if err != nil {
			t.Fatal(err)
		}
		want := specCounts{Work: 18289312, Span: 49908, MemOps: 11422892, Forks: 2943252,
			Trace: trace.Fingerprint{Hash: 11008180800158423161, Count: 17309396}}
		if got := countsOf(rep); got != want {
			t.Fatalf("Components rounds 4 on 2^10 edges: %+v, recorded %+v", got, want)
		}
	})
}
