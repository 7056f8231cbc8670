package experiments

import (
	"bytes"
	"strings"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// The experiment harness is itself part of the deliverable; smoke-test
// that every experiment runs in quick mode and produces the expected
// sections.

func TestFig1Renders(t *testing.T) {
	var buf bytes.Buffer
	Fig1(&buf)
	out := buf.String()
	if !strings.Contains(out, "layers: 10, comparators: 80") {
		t.Fatalf("figure 1 structure wrong:\n%s", out)
	}
	if strings.Count(out, "layer ") != 10 {
		t.Fatal("expected 10 layers")
	}
}

func TestOverflowRuns(t *testing.T) {
	var buf bytes.Buffer
	Overflow(&buf, true)
	out := buf.String()
	if !strings.Contains(out, "Z\truns-with-loss") {
		t.Fatalf("overflow table missing:\n%s", out)
	}
	// Z=128 with n=1024 must show zero loss runs.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "128\t") && !strings.Contains(line, "0/") {
			t.Fatalf("Z=128 lost elements: %s", line)
		}
	}
}

func TestOblivCheckPasses(t *testing.T) {
	var buf bytes.Buffer
	if !OblivCheck(&buf) {
		t.Fatalf("obliviousness checks failed:\n%s", buf.String())
	}
	if strings.Count(buf.String(), "PASS") < 7 {
		t.Fatal("expected at least 7 component checks")
	}
}

func TestMeterProducesMetrics(t *testing.T) {
	m := Meter(1<<8, 16, func(c *forkjoin.Ctx, sp *mem.Space) {
		a := mem.Alloc[uint64](sp, 64)
		for i := 0; i < 64; i++ {
			a.Set(c, i, uint64(i))
		}
	})
	if m.Work != 64 || m.MemOps != 64 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.CacheMisses != 4 { // 64 words / block 16
		t.Fatalf("cache misses = %d, want 4", m.CacheMisses)
	}
}

func TestQuickTablesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	Table2(&buf, DefaultCacheM, DefaultCacheB, true)
	if !strings.Contains(buf.String(), "Aggr") || !strings.Contains(buf.String(), "PRAM-step") {
		t.Fatal("table 2 rows missing")
	}
	buf.Reset()
	ORBAAblation(&buf, DefaultCacheM, DefaultCacheB, true)
	if !strings.Contains(buf.String(), "REC-ORBA γ=2") {
		t.Fatal("ORBA ablation rows missing")
	}
}

// TestBitonicAblationCounts pins the Theorem E.1 ablation's quick rows at
// the harness cache (M = 4096, B = 32): work, span and cache misses of the
// cache-agnostic, naive and odd–even networks. The counts are the
// one-word-per-side comparator model's; any change to the networks' schedules,
// their transposes or the comparator's access set moves them.
func TestBitonicAblationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type counts struct{ work, span, misses int64 }
	want := map[int]map[string]counts{
		1 << 10: {
			"bitonic-cache-agnostic": {520390, 1373, 64},
			"bitonic-naive":          {197010, 1265, 32},
			"odd-even":               {168331, 1247, 32},
		},
		1 << 12: {
			"bitonic-cache-agnostic": {3026822, 2074, 1260},
			"bitonic-naive":          {1118052, 2106, 128},
			"odd-even":               {974685, 2084, 128},
		},
	}
	rows := bitonicRows(DefaultCacheM, DefaultCacheB, []int{1 << 10, 1 << 12})
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.N][r.Impl]
		if !ok {
			t.Fatalf("unexpected row %s n=%d", r.Impl, r.N)
		}
		got := counts{r.M.Work, r.M.Span, r.M.CacheMisses}
		if got != w {
			t.Errorf("%s n=%d: work/span/misses = %v, want %v", r.Impl, r.N, got, w)
		}
	}
}
