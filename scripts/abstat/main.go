// Command abstat summarises alternating base/change runs of the benchmark
// harness (scripts/abbench.sh writes them): for every workload and every
// end-to-end metric BENCHMARK.json declares, both sides' medians and
// interquartile ranges, the median of the per-pair change/base ratios, how
// many pairs the change won, and the exact two-sided sign-test p of those
// wins. A difference whose p exceeds 0.05 is reported "unresolved".
//
//	go run ./scripts/abstat -spec BENCHMARK.json runs.jsonl
//	go run ./scripts/abstat -spec BENCHMARK.json -workloads
//	go run ./scripts/abstat -bench runs.txt
//
// Each input line is one run: {"workload": ..., "side": "base"|"change",
// "pair": i, "result": <the harness's result line>}. With -bench the input
// is `go test -bench` result lines instead, each prefixed by its side and
// pair (abbench.sh --go-bench writes them): every benchmark is a workload
// and every unit it reports (ns/op, B/op, allocs/op, custom units) a
// metric, lower-is-better unless it is a rate (a unit ending in "/s").
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json abstat reads (encoding/json matches
// the lower-case keys to these fields).
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
}

type metricSpec struct{ Name, Better string }

// run is one input line.
type run struct {
	Workload string
	Side     string
	Pair     int
	Result   struct {
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
}

// row is the comparison of one metric on one workload.
type row struct {
	Workload, Metric string
	Base, Change     [3]float64 // first quartile, median, third quartile
	Ratio            float64    // median over pairs of change / base
	Wins, Pairs      int        // pairs the change won; pairs with both values
	P                float64    // exact two-sided sign-test p (ties dropped)
	Verdict          string     // "better", "worse" or "unresolved"
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark declaration")
	list := flag.Bool("workloads", false, "print the declared workload names and exit")
	bench := flag.Bool("bench", false, "read side- and pair-prefixed `go test -bench` lines; no spec is read")
	flag.Parse()
	var sp spec
	var err error
	if !*bench {
		if sp, err = readSpec(*specPath); err != nil {
			log.Fatal(err)
		}
	}
	if *list {
		for _, w := range sp.Workloads {
			fmt.Println(w.Name)
		}
		return
	}
	var in []io.Reader
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = append(in, f)
	}
	var runs []run
	if *bench {
		runs, sp, err = readBench(io.MultiReader(in...))
	} else {
		runs, err = readRuns(io.MultiReader(in...))
	}
	if err != nil {
		log.Fatal(err)
	}
	report(os.Stdout, runs, summarize(sp, runs))
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(b, &sp)
}

func readRuns(r io.Reader) ([]run, error) {
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rn run
		if err := json.Unmarshal(sc.Bytes(), &rn); err != nil {
			return nil, err
		}
		runs = append(runs, rn)
	}
	return runs, sc.Err()
}

// readBench reads `go test -bench` result lines prefixed by side and pair
// ("base 3 BenchmarkLookup/n=4096-2  100  1234 ns/op  56 B/op  7 allocs/op"),
// one run per line, and skips every other line. Its spec declares each
// benchmark a workload and each unit a metric, in order of first
// appearance: a rate (a unit ending in "/s") higher-is-better, every other
// unit lower-is-better.
func readBench(r io.Reader) ([]run, spec, error) {
	var runs []run
	var sp spec
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasPrefix(f[2], "Benchmark") {
			continue
		}
		pair, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, sp, err
		}
		rn := run{Workload: f[2], Side: f[0], Pair: pair}
		rn.Result.Attempted, rn.Result.Metrics = 1, map[string]struct{ Value float64 }{}
		if !seen[f[2]] {
			seen[f[2]] = true
			sp.Workloads = append(sp.Workloads, struct{ Name string }{f[2]})
		}
		for k := 4; k+1 < len(f); k += 2 {
			v, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				return nil, sp, err
			}
			u := f[k+1]
			rn.Result.Metrics[u] = struct{ Value float64 }{v}
			if !seen[u] {
				seen[u] = true
				better := "lower"
				if strings.HasSuffix(u, "/s") {
					better = "higher"
				}
				sp.EndToEnd = append(sp.EndToEnd, metricSpec{u, better})
			}
		}
		runs = append(runs, rn)
	}
	return runs, sp, sc.Err()
}

// summarize compares the sides metric by metric, in the spec's workload
// and metric order, over the pairs that hold the metric on both sides.
func summarize(sp spec, runs []run) []row {
	type key struct {
		w    string
		pair int
	}
	sides := map[string]map[key]run{"base": {}, "change": {}}
	for _, r := range runs {
		if m, ok := sides[r.Side]; ok {
			m[key{r.Workload, r.Pair}] = r
		}
	}
	var rows []row
	for _, w := range sp.Workloads {
		var pairs []int
		for k := range sides["base"] {
			if _, ok := sides["change"][k]; ok && k.w == w.Name {
				pairs = append(pairs, k.pair)
			}
		}
		slices.Sort(pairs)
		for _, m := range sp.EndToEnd {
			var base, change, ratios []float64
			wins, losses := 0, 0
			for _, p := range pairs {
				b, okb := sides["base"][key{w.Name, p}].Result.Metrics[m.Name]
				c, okc := sides["change"][key{w.Name, p}].Result.Metrics[m.Name]
				if !okb || !okc {
					continue
				}
				base, change = append(base, b.Value), append(change, c.Value)
				if b.Value != 0 {
					ratios = append(ratios, c.Value/b.Value)
				}
				switch better := m.Better == "lower"; {
				case c.Value == b.Value:
				case (c.Value < b.Value) == better:
					wins++
				default:
					losses++
				}
			}
			if len(base) == 0 {
				continue
			}
			r := row{Workload: w.Name, Metric: m.Name, Base: quartiles(base), Change: quartiles(change),
				Ratio: math.NaN(), Wins: wins, Pairs: len(base), P: signTestP(wins, losses), Verdict: "unresolved"}
			if len(ratios) > 0 {
				r.Ratio = quartiles(ratios)[1]
			}
			if r.P <= 0.05 {
				r.Verdict = "better"
				if losses > wins {
					r.Verdict = "worse"
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		h := q * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// signTestP is the exact two-sided sign-test p of wins against losses
// (ties already dropped): twice the binomial(n, 1/2) tail at the smaller
// count, capped at 1; 1 when there is nothing to test.
func signTestP(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	if n == 0 {
		return 1
	}
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail/math.Pow(2, float64(n)))
}

func report(w io.Writer, runs []run, rows []row) {
	failed := map[string][2]int{} // "workload side" → failed, attempted ops
	for _, r := range runs {
		f := failed[r.Workload+" "+r.Side]
		failed[r.Workload+" "+r.Side] = [2]int{f[0] + r.Result.Failed, f[1] + r.Result.Attempted}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase IQR\tchange median\tchange IQR\tpair ratio\twins\tsign p\tverdict")
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			b, c := failed[r.Workload+" base"], failed[r.Workload+" change"]
			fmt.Fprintf(tw, "%s\tfailed ops\t%d/%d\t\t%d/%d\t\t\t\t\t\n", r.Workload, b[0], b[1], c[0], c[1])
			last = r.Workload
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.3g\t%.4g\t%.3g\t%.3fx\t%d/%d\t%.4f\t%s\n", r.Workload, r.Metric,
			r.Base[1], r.Base[2]-r.Base[0], r.Change[1], r.Change[2]-r.Change[0], r.Ratio, r.Wins, r.Pairs, r.P, r.Verdict)
	}
	tw.Flush()
}
