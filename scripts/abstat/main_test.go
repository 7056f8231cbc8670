package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.75, 2.5, 3.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{2, 3, 4}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Fatalf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestSignTestP pins the exact binomial tails: 10/10 wins is 2/1024, 9/10
// is 22/1024, 8/10 is 112/1024 (unresolved), a tie count is 1.
func TestSignTestP(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024}, {9, 1, 22.0 / 1024}, {1, 9, 22.0 / 1024}, {8, 2, 112.0 / 1024},
		{5, 5, 1}, {0, 0, 1}, {1, 0, 1},
	} {
		if got := signTestP(tc.wins, tc.losses); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("signTestP(%d, %d) = %v, want %v", tc.wins, tc.losses, got, tc.want)
		}
	}
}

// TestSummarize runs the whole comparison on fixed runs: a lower-is-better
// metric the change wins on every pair, a higher-is-better one it loses on
// every pair, one with mixed outcomes, and a pair missing its change run.
func TestSummarize(t *testing.T) {
	sp, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	line := func(side string, pair int, p50, ops, rss float64) {
		fmt.Fprintf(&in, `{"workload":"graph_cc_det","side":%q,"pair":%d,"result":{"attempted":4,"failed":0,"metrics":{"op_p50_s":{"value":%g},"ops_per_s":{"value":%g},"peak_rss_mb":{"value":%g}}}}`+"\n",
			side, pair, p50, ops, rss)
	}
	for i := 0; i < 10; i++ {
		rss := 20.0
		if i%2 == 0 {
			rss = 21
		}
		line("base", i, 0.128+0.001*float64(i), 8, 20.5)
		line("change", i, 0.096+0.001*float64(i), 7, rss)
	}
	line("base", 10, 1, 1, 1) // no change run: not a pair
	runs, err := readRuns(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	rows := summarize(sp, runs)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want op_p50_s, ops_per_s and peak_rss_mb: %+v", len(rows), rows)
	}
	p50, ops, rss := rows[0], rows[1], rows[2]
	if p50.Metric != "op_p50_s" || p50.Wins != 10 || p50.Pairs != 10 || p50.Verdict != "better" ||
		math.Abs(p50.P-2.0/1024) > 1e-12 || math.Abs(p50.Base[1]-0.1325) > 1e-12 || math.Abs(p50.Change[1]-0.1005) > 1e-12 {
		t.Fatalf("op_p50_s row %+v", p50)
	}
	if r := p50.Ratio; r < 0.75 || r > 0.76 {
		t.Fatalf("op_p50_s median pair ratio %v", r)
	}
	if ops.Metric != "ops_per_s" || ops.Wins != 0 || ops.Verdict != "worse" {
		t.Fatalf("ops_per_s row %+v", ops)
	}
	if rss.Metric != "peak_rss_mb" || rss.Wins != 5 || rss.Verdict != "unresolved" || rss.P != 1 {
		t.Fatalf("peak_rss_mb row %+v", rss)
	}
	var out bytes.Buffer
	report(&out, runs, rows)
	for _, want := range []string{"failed ops", "0/44", "0/40", "10/10", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestReadBench reads side- and pair-prefixed `go test -bench` lines: the
// binary's chatter is skipped, every (value, unit) pair is a metric, a
// custom unit is lower-is-better and a rate higher-is-better.
func TestReadBench(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 10; i++ {
		for _, side := range []string{"base", "change"} {
			ns, mbs := 2000+10*i, 50
			if side == "change" {
				ns, mbs = 1500+10*i, 40
			}
			fmt.Fprintf(&in, "%s %d goos: linux\n", side, i)
			fmt.Fprintf(&in, "%s %d BenchmarkLookup/n=65536-2  \t 3\t %d ns/op\t %d MB/s\t 7.5 ns/elem\t 4096 B/op\t 12 allocs/op\n", side, i, ns, mbs)
			fmt.Fprintf(&in, "%s %d PASS\n", side, i)
		}
	}
	runs, sp, err := readBench(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 20 || runs[1].Side != "change" || runs[1].Pair != 0 || runs[1].Result.Metrics["ns/op"].Value != 1500 {
		t.Fatalf("runs %+v", runs[:2])
	}
	if len(sp.Workloads) != 1 || sp.Workloads[0].Name != "BenchmarkLookup/n=65536-2" {
		t.Fatalf("workloads %+v", sp.Workloads)
	}
	got := map[string]row{}
	for _, r := range summarize(sp, runs) {
		got[r.Metric] = r
	}
	if units := len(sp.EndToEnd); len(got) != 5 || units != 5 || sp.EndToEnd[0].Name != "ns/op" || sp.EndToEnd[1].Better != "higher" {
		t.Fatalf("got metrics %v, want ns/op, MB/s, ns/elem, B/op, allocs/op", got)
	}
	if r := got["ns/op"]; r.Wins != 10 || r.Verdict != "better" || math.Abs(r.Base[1]-2045) > 1e-9 {
		t.Fatalf("ns/op row %+v", r)
	}
	if r := got["MB/s"]; r.Wins != 0 || r.Verdict != "worse" {
		t.Fatalf("MB/s row %+v", r)
	}
	if r := got["ns/elem"]; r.Verdict != "unresolved" || r.Ratio != 1 {
		t.Fatalf("ns/elem row %+v", r)
	}
}
