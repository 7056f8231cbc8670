// Command oblivquery runs a data-oblivious relational query pipeline
// (join → filter → distinct → group-by → top-k) over a table read from
// stdin or generated randomly, reporting throughput and (optionally) the
// metered cost profile plus the adversary's-view fingerprint. Tables may
// declare one or two key columns (-cols); multi-column tables group by the
// full key tuple — GROUP BY (a, b). With -join N a generated N-row
// dimension table (keys drawn from the same -groups space, so keys repeat:
// the join is many-to-many) is equi-joined against the table first; the
// output capacity -joincap is public query shape, and a run whose true
// match count exceeds it fails with the count a retry needs. -joincap auto
// lets the join size itself from its own key sort (the worst-case match
// bound, which can never overflow — revealed as public shape).
//
// Usage:
//
//	oblivquery -n 65536 -agg sum -top 10        # top-10 groups by total value
//	printf "1 120\n2 95\n1 140\n" | oblivquery -stdin -agg sum
//	printf "1 7 120\n1 8 95\n1 7 140\n" | oblivquery -stdin -cols 2 -agg avg
//	oblivquery -n 4096 -min 100 -agg count -metered
//	oblivquery -n 4096 -cols 2 -agg var -explain
//	oblivquery -n 4096 -join 64 -agg count -explain   # many-to-many join feed
//
// With -graph the table is a width-2 edge table ("u v w" rows on stdin, or
// the canonical benchmark graph of -n edges) and the query is a graph
// operator instead of the relational pipeline:
//
//	oblivquery -graph cc -n 65536 -backend shuffle    # min-hook components
//	oblivquery -graph cc -rounds 4 -explain           # fixed-round, fixed trace
//	oblivquery -graph msf -n 4096 -metered
//	printf "0 1 5\n1 2 3\n" | oblivquery -graph pagerank -rounds 8 -stdin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"oblivmc"
	"oblivmc/internal/benchdata"
	"oblivmc/internal/prng"
)

// execConfig builds the run's Config from the execution flags shared by the
// relational and -graph paths.
func execConfig(seed uint64, workers int, backend string, detShuffle, metered bool) oblivmc.Config {
	cfg := oblivmc.Config{Seed: seed, Workers: workers, DeterministicShuffle: detShuffle}
	switch backend {
	case "auto":
		cfg.SortBackend = oblivmc.SortAuto
	case "bitonic":
		cfg.SortBackend = oblivmc.SortBitonic
	case "shuffle":
		cfg.SortBackend = oblivmc.SortShuffle
	default:
		log.Fatalf("unknown backend %q (auto|bitonic|shuffle)", backend)
	}
	if metered {
		cfg.Mode = oblivmc.ModeMetered
		cfg.CacheM = 1 << 12
		cfg.CacheB = 32
		cfg.Trace = true
	}
	return cfg
}

// printReport writes a metered run's cost profile and the adversary's-view
// fingerprint (followed by viewNote) to stderr; rep is nil outside -metered.
func printReport(rep *oblivmc.Report, viewNote string) {
	if rep == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "work=%d span=%d parallelism=%.0fx memops=%d cache-misses=%d\n",
		rep.Work, rep.Span, float64(rep.Work)/float64(rep.Span), rep.MemOps, rep.CacheMisses)
	fmt.Fprintf(os.Stderr, "adversary's view: %016x/%d%s\n",
		rep.TraceFingerprint.Hash, rep.TraceFingerprint.Count, viewNote)
}

// printRows writes at most limit result rows to stdout, one
// tab-separated "keys... value" line each.
func printRows(table oblivmc.Table, limit int) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i, r := range table.WideRows() {
		if i >= limit {
			fmt.Fprintf(w, "... (%d more rows)\n", table.Len()-limit)
			break
		}
		keys := make([]string, len(r.Keys))
		for c, k := range r.Keys {
			keys[c] = strconv.FormatUint(k, 10)
		}
		fmt.Fprintf(w, "%s\t%d\n", strings.Join(keys, "\t"), r.Val)
	}
}

// randRows generates n rows of cols key columns drawn from [0, groups) and
// values in [base, base+2^20), reproducibly from seed.
func randRows(seed uint64, n, cols, groups int, base uint64) []oblivmc.WideRow {
	src := prng.New(seed)
	rows := make([]oblivmc.WideRow, n)
	for i := range rows {
		keys := make([]uint64, cols)
		for c := range keys {
			keys[c] = src.Uint64n(uint64(groups))
		}
		rows[i] = oblivmc.WideRow{Keys: keys, Val: base + src.Uint64n(1<<20)}
	}
	return rows
}

// runGraph executes the -graph path: build a width-2 edge table (stdin
// "u v w" rows, or the canonical benchmark graph of n edges), run the
// operator, report like the relational path.
func runGraph(op string, rounds, n int, useStdin, explain, metered bool, limit int,
	seed uint64, workers int, backend string, detShuffle bool) {
	var gop oblivmc.GraphOp
	switch op {
	case "cc":
		gop = oblivmc.GraphOpComponents
	case "msf":
		gop = oblivmc.GraphOpMSF
	case "pagerank":
		gop = oblivmc.GraphOpPageRank
	default:
		log.Fatalf("unknown graph op %q (cc, msf, pagerank)", op)
	}

	var edges []oblivmc.WeightedEdge
	if useStdin {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for ln := 1; sc.Scan(); ln++ {
			fields := strings.Fields(sc.Text())
			if len(fields) == 0 {
				continue
			}
			if len(fields) != 3 {
				log.Fatalf("line %d: edge rows are \"u v w\"", ln)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			w, err3 := strconv.ParseUint(fields[2], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				log.Fatalf("line %d: bad edge %q", ln, sc.Text())
			}
			edges = append(edges, oblivmc.WeightedEdge{U: u, V: v, W: w})
		}
	} else {
		_, edges = benchdata.GraphEdges(n)
	}
	table, err := oblivmc.NewEdgeTable(edges)
	if err != nil {
		log.Fatal(err)
	}

	if explain {
		pl, err := oblivmc.GraphExplainTable(gop, table, rounds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "plan: %s\n", pl)
	}

	cfg := execConfig(seed, workers, backend, detShuffle, metered)
	start := time.Now()
	var res oblivmc.Table
	var rep *oblivmc.Report
	switch gop {
	case oblivmc.GraphOpMSF:
		res, rep, err = oblivmc.MSF(cfg, table)
	case oblivmc.GraphOpPageRank:
		if rounds == 0 {
			rounds = 5
		}
		res, rep, err = oblivmc.PageRank(cfg, table, rounds)
	default:
		res, rep, err = oblivmc.Components(cfg, table, rounds)
	}
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(os.Stderr, "%s over %d edges obliviously in %v (%.0f edges/s), %d result rows\n",
		op, table.Len(), elapsed, float64(table.Len())/elapsed.Seconds(), res.Len())
	printReport(rep, "")
	printRows(res, limit)
}

func main() {
	n := flag.Int("n", 1<<14, "random workload size (ignored with -stdin)")
	groups := flag.Int("groups", 64, "distinct keys per column in the random workload")
	cols := flag.Int("cols", 1, "key columns per row (1 or 2; 2 groups by the full (a, b) tuple)")
	useStdin := flag.Bool("stdin", false, "read \"key... value\" rows (one per line, -cols keys) from stdin")
	joinN := flag.Int("join", 0, "many-to-many join: equi-join a generated dimension table of this many rows against the table first (0 = no join)")
	joinCap := flag.String("joincap", "", "public output capacity of the join: a row count, \"auto\" to let the join size itself to the worst-case match bound, or empty for 4x the table's rows")
	minVal := flag.Uint64("min", 0, "filter: keep rows with value >= min (0 = no filter; any width)")
	minKey := flag.Uint64("minkey", 0, "key-only filter: keep rows with key column 0 >= minkey (0 = none; plannable below distinct/group-by; any width)")
	distinct := flag.Bool("distinct", false, "deduplicate rows by key tuple before aggregating")
	explain := flag.Bool("explain", false, "print the planner's physical pass sequence before running")
	agg := flag.String("agg", "sum", "aggregation: sum|count|min|max|avg|var|none")
	top := flag.Int("top", 0, "keep only the k largest-value result rows (0 = all)")
	limit := flag.Int("limit", 20, "print at most this many result rows")
	metered := flag.Bool("metered", false, "report exact work/span/cache metrics and trace fingerprint")
	seed := flag.Uint64("seed", 1, "randomness seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	backend := flag.String("backend", "auto", "relational sort backend: auto|bitonic|shuffle (auto switches at the size crossover)")
	detShuffle := flag.Bool("det-shuffle", false, "derive the shuffle backend's permutations from -seed for reproducible traces (testing only: a known seed forfeits the backend's obliviousness guarantee)")
	graphOp := flag.String("graph", "", "graph workload over an edge table: cc, msf, pagerank (-n counts edges; -stdin reads \"u v w\" rows)")
	rounds := flag.Int("rounds", 0, "graph round parameter: fixed cc rounds (0 = converge) or pagerank iterations (0 = 5)")
	flag.Parse()

	if *graphOp != "" {
		runGraph(*graphOp, *rounds, *n, *useStdin, *explain, *metered, *limit,
			*seed, *workers, *backend, *detShuffle)
		return
	}

	if *cols < 1 || *cols > 2 {
		log.Fatalf("-cols must be 1 or 2 (got %d)", *cols)
	}
	if !*useStdin && (*n < 1 || *groups < 1) {
		log.Fatalf("-n and -groups must be >= 1 (got %d, %d)", *n, *groups)
	}

	var rows []oblivmc.WideRow
	if *useStdin {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		sc.Split(bufio.ScanWords)
		words := func() (uint64, bool) {
			if !sc.Scan() {
				return 0, false
			}
			v, err := strconv.ParseUint(sc.Text(), 10, 64)
			if err != nil {
				log.Fatalf("bad input %q: %v", sc.Text(), err)
			}
			return v, true
		}
		for {
			keys := make([]uint64, *cols)
			k0, ok := words()
			if !ok {
				break
			}
			keys[0] = k0
			for c := 1; c < *cols; c++ {
				k, ok := words()
				if !ok {
					log.Fatalf("truncated input: rows are %d key(s) plus a value", *cols)
				}
				keys[c] = k
			}
			v, ok := words()
			if !ok {
				log.Fatalf("truncated input: rows are %d key(s) plus a value", *cols)
			}
			rows = append(rows, oblivmc.WideRow{Keys: keys, Val: v})
		}
	} else {
		rows = randRows(*seed^0xbeef, *n, *cols, *groups, 0)
	}
	table, err := oblivmc.NewWideTable(rows)
	if err != nil {
		log.Fatal(err)
	}

	q := oblivmc.Query{Distinct: *distinct, TopK: *top}
	if *joinN > 0 {
		// The dimension table's keys repeat (same -groups space as the fact
		// table), so the expansion is genuinely many-to-many.
		dim, err := oblivmc.NewWideTable(randRows(*seed^0xd1e5e1, *joinN, *cols, *groups, 1_000_000))
		if err != nil {
			log.Fatal(err)
		}
		capacity := 4 * table.Len()
		switch *joinCap {
		case "", "0":
		case "auto":
			capacity = oblivmc.JoinCapAuto
		default:
			capacity, err = strconv.Atoi(*joinCap)
			if err != nil {
				log.Fatalf("-joincap must be a row count or \"auto\": %v", err)
			}
		}
		q.Join = &oblivmc.JoinSpec{Left: dim, MaxOut: capacity}
	}
	// Multi-column tables filter through the wide-predicate form
	// (Query.FilterWide); the narrow form keeps exercising the width-1 path.
	switch {
	case *minVal > 0 && *minKey > 0:
		log.Fatal("-min and -minkey are mutually exclusive")
	case *minVal > 0:
		m := *minVal
		if *cols > 1 {
			q.FilterWide = func(r oblivmc.WideRow) bool { return r.Val >= m }
		} else {
			q.Filter = func(r oblivmc.Row) bool { return r.Val >= m }
		}
	case *minKey > 0:
		m := *minKey
		if *cols > 1 {
			q.FilterWide = func(r oblivmc.WideRow) bool { return r.Keys[0] >= m }
		} else {
			q.Filter = func(r oblivmc.Row) bool { return r.Key >= m }
		}
		q.FilterKeyOnly = true
	}
	switch *agg {
	case "sum":
		q.GroupBy = oblivmc.AggSum
	case "count":
		q.GroupBy = oblivmc.AggCount
	case "min":
		q.GroupBy = oblivmc.AggMin
	case "max":
		q.GroupBy = oblivmc.AggMax
	case "avg":
		q.GroupBy = oblivmc.AggAvg
	case "var":
		q.GroupBy = oblivmc.AggVar
	case "none":
		q.GroupBy = oblivmc.AggNone
	default:
		log.Fatalf("unknown aggregation %q", *agg)
	}

	if *explain {
		pl, err := oblivmc.ExplainWidth(q, table.Width())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "plan: %s\n", pl)
	}

	cfg := execConfig(*seed, *workers, *backend, *detShuffle, *metered)
	start := time.Now()
	res, rep, err := oblivmc.RunQuery(cfg, table, q)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(os.Stderr, "queried %d rows (%d key column(s)) obliviously in %v (%.0f rows/s), %d result rows\n",
		table.Len(), table.Width(), elapsed, float64(table.Len())/elapsed.Seconds(), res.Len())
	printReport(rep, " (bitonic: a function of row count, width, and query shape; shuffle: input-independent in distribution over its secret permutation)")
	printRows(res, *limit)
}
