// Command oblivbench regenerates the paper's tables and figures (the
// experiments are listed below). All measurements come from the
// metered executor: exact work, span and ideal-cache misses, normalized by
// the paper's bounds.
//
// Usage:
//
//	oblivbench -exp all            # everything (a few minutes)
//	oblivbench -exp table1,fig1    # selected experiments
//	oblivbench -exp table1 -quick  # smaller sizes
//
// Experiments: table1, table2, fig1, bitonic, orba, overflow, oram,
// oblivcheck.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"oblivmc/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table1,table2,fig1,bitonic,orba,overflow,oram,oblivcheck,all")
	quick := flag.Bool("quick", false, "smaller input sizes")
	cacheM := flag.Int("cacheM", experiments.DefaultCacheM, "simulated cache size (elements)")
	cacheB := flag.Int("cacheB", experiments.DefaultCacheB, "simulated cache block size (elements)")
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	w := os.Stdout

	fmt.Fprintf(w, "oblivmc experiment harness — cache M=%d B=%d (elements), quick=%v\n",
		*cacheM, *cacheB, *quick)

	ok := true
	if all || want["fig1"] {
		experiments.Fig1(w)
	}
	if all || want["table1"] {
		experiments.Table1(w, *cacheM, *cacheB, *quick)
	}
	if all || want["table2"] {
		experiments.Table2(w, *cacheM, *cacheB, *quick)
	}
	if all || want["bitonic"] {
		experiments.BitonicAblation(w, *cacheM, *cacheB, *quick)
	}
	if all || want["orba"] {
		experiments.ORBAAblation(w, *cacheM, *cacheB, *quick)
	}
	if all || want["overflow"] {
		experiments.Overflow(w, *quick)
	}
	if all || want["oram"] {
		experiments.ORAMScaling(w, *cacheM, *cacheB, *quick)
	}
	if all || want["oblivcheck"] {
		ok = experiments.OblivCheck(w)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "oblivcheck: FAILURES detected")
		os.Exit(1)
	}
}
