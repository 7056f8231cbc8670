package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metric is one reported number. Names and units are the ones declared in
// BENCHMARK.json; bench_test.go checks the two lists against each other.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits names every end-to-end metric, measured with tracing off.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"op_p50_s":        "s",
	"ops_per_s":       "1/s",
	"rows_per_s":      "1/s",
	"tax_x":           "x",
	"peak_rss_mb":     "MiB",
	"alloc_mb_per_op": "MiB",
}

// perLayerUnits names every per-layer metric, <module>.<metric>. Unit
// "count" marks the exact counters: they repeat bit for bit between runs of
// one build, and agree.sh fails on any difference.
var perLayerUnits = map[string]string{
	"mem.copy_ns_per_elem":   "ns",
	"mem.getset_ns_per_elem": "ns",
	"mem.access_overhead_x":  "x",

	"forkjoin.fork_ns":          "ns",
	"forkjoin.range_speedup_w2": "x",
	"forkjoin.pool_start_us":    "us",

	"obliv.cex_ns":                     "ns",
	"obliv.cex_w2_ns":                  "ns",
	"obliv.keysched_build_ns_per_elem": "ns",
	"obliv.scan_ns_per_elem":           "ns",
	"obliv.aggsuffix_ns_per_elem":      "ns",
	"obliv.distribute_ns_per_elem":     "ns",
	"obliv.sendrecv_ns_per_elem":       "ns",

	"bitonic.sort_ns_per_elem":       "ns",
	"bitonic.sort_small_ns_per_elem": "ns",
	"bitonic.sort_w2_ns_per_elem":    "ns",
	"bitonic.merge_ns_per_elem":      "ns",
	"bitonic.network_calls_per_op":   "count",

	"spms.samplesort_ns_per_elem": "ns",
	"spms.vs_slices_x":            "x",

	"core.shuffle_sort_ns_per_elem": "ns",
	"core.benes_ns_per_elem":        "ns",
	"core.benes_share":              "ratio",
	"core.bitonic_vs_shuffle_x":     "x",
	"core.sort_allocs_per_op":       "count",

	"relops.load_ns_per_row":      "ns",
	"relops.execute_s":            "s",
	"relops.sort_s":               "s",
	"relops.nonsort_s":            "s",
	"relops.sort_share":           "ratio",
	"relops.sort_passes":          "count",
	"relops.sorted_elems_per_row": "count",
	"relops.pad_frac":             "count",

	"plan.build_us":     "us",
	"plan.sorts_fused":  "count",
	"plan.sorts_staged": "count",

	"pram.gather_ns_per_elem":      "ns",
	"pram.scatter_min_ns_per_elem": "ns",

	"graph.cc_round_s":               "s",
	"graph.cc_sorts_per_round":       "count",
	"graph.cc_sort_share":            "ratio",
	"graph.cc_sorted_elems_per_edge": "count",

	"oblivmc.newtable_ns_per_row":        "ns",
	"oblivmc.rows_out_ns_per_row":        "ns",
	"oblivmc.session_overhead_s":         "s",
	"oblivmc.oneshot_vs_session_x":       "x",
	"oblivmc.metered_work_per_row":       "count",
	"oblivmc.metered_span":               "count",
	"oblivmc.metered_memops_per_row":     "count",
	"oblivmc.metered_cache_miss_per_row": "count",

	"serve.cache_hit_frac":         "ratio",
	"serve.op_p99_ms":              "ms",
	"serve.hit_p50_ms":             "ms",
	"serve.miss_small_p50_ms":      "ms",
	"serve.miss_large_p50_ms":      "ms",
	"serve.token_p50_ms":           "ms",
	"serve.reload_p50_ms":          "ms",
	"serve.token_sorts_saved_frac": "count",
	"serve.busy_frac":              "ratio",
	"serve.peak_concurrency":       "count",
	"serve.execute_direct_p50_ms":  "ms",

	"client.wire_overhead_ms": "ms",
	"client.retries":          "count",

	"trace_overhead_frac": "ratio",
}

// metricSet collects the metrics of one run under their declared units, so a
// name the contract does not know cannot be emitted.
type metricSet struct {
	units map[string]string
	m     map[string]metric
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, m: make(map[string]metric, len(units))}
}

func (s *metricSet) set(name string, v float64) {
	unit, ok := s.units[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// complete fills every declared metric the run did not set with 0: the layer
// is not exercised by this workload (README, "Which workload reports which
// metric").
func (s *metricSet) complete() map[string]metric {
	for name, unit := range s.units {
		if _, ok := s.m[name]; !ok {
			s.m[name] = metric{Unit: unit}
		}
	}
	return s.m
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the nearest-rank q-quantile of v; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
