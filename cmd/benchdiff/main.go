// Command benchdiff compares two relational-layer benchmark artifacts
// (the BENCH_*.json documents written by cmd/relbench) and flags elems/s
// regressions beyond a noise threshold — the ROADMAP follow-on to the CI
// perf-trend upload.
//
// Points are matched by (name, n, workers). Schema-1 artifacts carry no
// per-result workers field; those results inherit the file-level workers
// value, so a schema-2 sweep diffs cleanly against the old single-pool
// artifacts at the matching pool size. New points (present only in the new
// artifact) and retired points (present only in the base) are reported but
// never flagged. When an artifact contains a -procs sweep, benchdiff also
// prints its scaling curves — each point's speedup over the fewest-workers
// run — for both sides, so a flattening curve is visible even when every
// individual point is within the noise threshold. Exit status is 1 when
// any matched point regresses beyond the threshold, unless -warn is set
// (CI runs warn-only: shared runners are noisy and the artifact is a trend
// indicator, not a gate).
//
// Usage:
//
//	benchdiff -base BENCH_8.json -new BENCH_9.json
//	benchdiff -base BENCH_8.json -new BENCH_9.json -threshold 0.30 -warn
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
)

// Result mirrors cmd/relbench's per-point measurement (the fields benchdiff
// consumes; unknown fields are ignored). Workers is absent (0) in schema-1
// artifacts.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Workers     int     `json:"workers"`
	ElemsPerSec float64 `json:"elems_per_sec"`
}

// File mirrors the artifact envelope. The file-level Workers backfills
// per-result workers for schema-1 artifacts.
type File struct {
	Schema    string   `json:"schema"`
	Generated string   `json:"generated"`
	Workers   int      `json:"workers"`
	Results   []Result `json:"results"`
}

// normalize resolves every result's workers, inheriting the file-level
// value when the per-result field is absent.
func (f *File) normalize() {
	for i := range f.Results {
		if f.Results[i].Workers == 0 {
			f.Results[i].Workers = f.Workers
		}
	}
}

type pointKey struct {
	Name    string
	N       int
	Workers int
}

// diffLine is one matched point's comparison.
type diffLine struct {
	Key        pointKey
	Base, New  float64
	Ratio      float64 // new/base
	Regression bool
}

// diff matches the two artifacts' points by (name, n, workers) and flags
// matched points whose new throughput falls below base*(1-threshold). It
// returns the matched comparisons plus the unmatched point keys of either
// side.
func diff(base, cur File, threshold float64) (lines []diffLine, onlyBase, onlyNew []pointKey) {
	baseBy := map[pointKey]float64{}
	for _, r := range base.Results {
		baseBy[pointKey{r.Name, r.N, r.Workers}] = r.ElemsPerSec
	}
	seen := map[pointKey]bool{}
	for _, r := range cur.Results {
		k := pointKey{r.Name, r.N, r.Workers}
		seen[k] = true
		b, ok := baseBy[k]
		if !ok {
			onlyNew = append(onlyNew, k)
			continue
		}
		l := diffLine{Key: k, Base: b, New: r.ElemsPerSec}
		if b > 0 {
			l.Ratio = r.ElemsPerSec / b
			l.Regression = l.Ratio < 1-threshold
		}
		lines = append(lines, l)
	}
	for _, r := range base.Results {
		if k := (pointKey{r.Name, r.N, r.Workers}); !seen[k] {
			onlyBase = append(onlyBase, k)
		}
	}
	sortKeys := func(ks []pointKey) {
		sort.Slice(ks, func(i, j int) bool { return keyLess(ks[i], ks[j]) })
	}
	sort.Slice(lines, func(i, j int) bool { return keyLess(lines[i].Key, lines[j].Key) })
	sortKeys(onlyBase)
	sortKeys(onlyNew)
	return lines, onlyBase, onlyNew
}

func keyLess(a, b pointKey) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.N != b.N {
		return a.N < b.N
	}
	return a.Workers < b.Workers
}

// curvePoint is one (workers, throughput) sample of a scaling curve.
type curvePoint struct {
	Workers     int
	ElemsPerSec float64
}

// curves groups an artifact's results into per-(name, n) scaling curves,
// returning only those measured at more than one pool size, sorted by
// workers within each curve.
func curves(f File) map[[2]interface{}][]curvePoint {
	type nk struct {
		Name string
		N    int
	}
	by := map[nk][]curvePoint{}
	for _, r := range f.Results {
		k := nk{r.Name, r.N}
		by[k] = append(by[k], curvePoint{r.Workers, r.ElemsPerSec})
	}
	out := map[[2]interface{}][]curvePoint{}
	for k, pts := range by {
		ws := map[int]bool{}
		for _, p := range pts {
			ws[p.Workers] = true
		}
		if len(ws) < 2 {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Workers < pts[j].Workers })
		out[[2]interface{}{k.Name, k.N}] = pts
	}
	return out
}

// printCurves renders an artifact's scaling curves as speedups over its
// fewest-workers point.
func printCurves(label string, f File) {
	cs := curves(f)
	if len(cs) == 0 {
		return
	}
	keys := make([][2]interface{}, 0, len(cs))
	for k := range cs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0].(string) != keys[j][0].(string) {
			return keys[i][0].(string) < keys[j][0].(string)
		}
		return keys[i][1].(int) < keys[j][1].(int)
	})
	fmt.Printf("\nscaling curves (%s, speedup vs fewest workers):\n", label)
	for _, k := range keys {
		pts := cs[k]
		base := pts[0].ElemsPerSec
		fmt.Printf("  %-22s n=%-9d", k[0].(string), k[1].(int))
		for _, p := range pts {
			if base > 0 {
				fmt.Printf("  %dw=%.2fx", p.Workers, p.ElemsPerSec/base)
			} else {
				fmt.Printf("  %dw=?", p.Workers)
			}
		}
		fmt.Println()
	}
}

func load(path string) (File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	f.normalize()
	return f, nil
}

func main() {
	basePath := flag.String("base", "BENCH_8.json", "baseline artifact")
	newPath := flag.String("new", "BENCH_9.json", "new artifact")
	threshold := flag.Float64("threshold", 0.20, "flag matched points slower than base by more than this fraction")
	warn := flag.Bool("warn", false, "report regressions but exit 0 (CI trend mode)")
	flag.Parse()

	base, err := load(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	cur, err := load(*newPath)
	if err != nil {
		log.Fatal(err)
	}

	lines, onlyBase, onlyNew := diff(base, cur, *threshold)
	regressions := 0
	fmt.Printf("%-22s %10s %4s %14s %14s %8s\n", "benchmark", "n", "w", "base elems/s", "new elems/s", "ratio")
	for _, l := range lines {
		flagStr := ""
		if l.Regression {
			flagStr = "  << REGRESSION"
			regressions++
		}
		fmt.Printf("%-22s %10d %4d %14.0f %14.0f %7.2fx%s\n", l.Key.Name, l.Key.N, l.Key.Workers, l.Base, l.New, l.Ratio, flagStr)
	}
	for _, k := range onlyNew {
		fmt.Printf("%-22s %10d %4d %14s %14s   (new point, no baseline)\n", k.Name, k.N, k.Workers, "-", "-")
	}
	for _, k := range onlyBase {
		fmt.Printf("%-22s %10d %4d %14s %14s   (retired point)\n", k.Name, k.N, k.Workers, "-", "-")
	}

	printCurves("base", base)
	printCurves("new", cur)

	if regressions > 0 {
		fmt.Printf("\n%d point(s) regressed beyond %.0f%% (%s → %s)\n",
			regressions, *threshold*100, base.Generated, cur.Generated)
		if !*warn {
			os.Exit(1)
		}
		fmt.Println("(warn-only mode: exiting 0)")
		return
	}
	fmt.Printf("\nno regressions beyond %.0f%%\n", *threshold*100)
}
