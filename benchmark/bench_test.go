package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// toySizes keeps the smoke test inside a few seconds: every workload and its
// traced replay at no more than 2^10 rows, and the serving mix at one block.
var toySizes = sizes{
	queryRows:  1 << 10,
	raggedRows: 601,
	joinLeft:   1 << 6,
	joinRight:  1 << 9,
	ccVerts:    1 << 6,
	ccEdges:    1 << 8,
	ccRounds:   4,
	serveSmall: 1 << 8,
	serveLarge: 1 << 10,
	serveWarm:  mixBlock,
	directReqs: 20,
	probeN:     1 << 10,
	probeSmall: 1 << 8,
	probeSortN: 1 << 9,
	pramCells:  1 << 6,
	pramReqs:   1 << 8,
	meteredN:   1 << 8,
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestHarnessMatchesContract runs every workload untraced and traced at toy
// sizes and checks what it emits against what BENCHMARK.json declares: the
// same workloads for the same reasons, the same metric names and units, and
// no failed op.
func TestHarnessMatchesContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range c.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		declared[true][m.Name] = m.Unit
	}

	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 7, sz: toySizes, window: 20 * time.Millisecond, setups: 1, outDir: t.TempDir()}
			res, err := runWorkload(w, trace, o)
			if raceEnabled {
				if err == nil {
					t.Errorf("%s: a -race build produced numbers", w.name)
				}
				// Still drive the harness, for the race detector's sake.
				res, err = dispatch(w, trace, o)
			}
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d ops failed", w.name, trace, res.failed, res.attempted)
			}
			want := declared[trace]
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, %d declared", w.name, trace, len(res.metrics), len(want))
			}
			for name, m := range res.metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is outside the contract's alphabet", w.name, name)
				}
				if unit, ok := want[name]; !ok || unit != m.Unit || unit == "" {
					t.Errorf("%s trace=%t: metric %s emitted with unit %q, declared %q (declared: %t)", w.name, trace, name, m.Unit, unit, ok)
				}
			}
		}
	}
}
