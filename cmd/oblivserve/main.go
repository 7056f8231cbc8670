// Command oblivserve is the long-running oblivious analytics server and
// its CLI: `serve` hosts loaded relations behind the HTTP/JSON surface
// (bounded-admission session lanes, cross-query result cache, order-token
// planning), `load` pushes a relation from a file or generator, `query`
// runs a declarative spec and reports the executed sort passes, and
// `explain` renders the order-aware plan without running it.
//
// Usage:
//
//	oblivserve serve -addr :8344 -lanes 4
//	oblivserve load -name sales -rows 4096 -groups 64        # generated example
//	printf "1 120\n2 95\n" | oblivserve load -name t -stdin  # "key... value" lines
//	oblivserve query -table sales -agg sum -keyorder -as totals
//	oblivserve query -table totals -agg max                  # rides the order token
//	oblivserve explain -table totals -agg max
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oblivmc"
	"oblivmc/client"
	"oblivmc/internal/prng"
	"oblivmc/internal/serve"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		cmdServe(os.Args[2:])
	case "load":
		cmdLoad(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:], false)
	case "explain":
		cmdQuery(os.Args[2:], true)
	default:
		usage()
	}
}

func usage() {
	log.Fatal("usage: oblivserve <serve|load|query|explain> [flags] (-h per subcommand)")
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8344", "listen address")
	lanes := fs.Int("lanes", 0, "concurrent query lanes (0 = GOMAXPROCS/2)")
	workers := fs.Int("workers", 0, "fork-join workers per lane (0 = GOMAXPROCS/lanes)")
	queueTimeout := fs.Duration("queue-timeout", 5*time.Second, "admission queue timeout before 429")
	queryTimeout := fs.Duration("query-timeout", 0, "per-query execution deadline before 504 (0 = unlimited)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain deadline before canceling stragglers (0 = wait forever)")
	cacheSize := fs.Int("cache", 128, "result cache entries")
	backend := fs.String("backend", "auto", "sort backend: auto, bitonic, shuffle")
	serial := fs.Bool("serial", false, "serial execution per lane (tests, debugging)")
	_ = fs.Parse(args)

	cfg := oblivmc.Config{Workers: *workers}
	if *serial {
		cfg.Mode = oblivmc.ModeSerial
	}
	switch *backend {
	case "auto":
	case "bitonic":
		cfg.SortBackend = oblivmc.SortBitonic
	case "shuffle":
		cfg.SortBackend = oblivmc.SortShuffle
	default:
		log.Fatalf("unknown -backend %q (auto, bitonic, shuffle)", *backend)
	}
	srv := serve.NewServer(serve.Options{
		Lanes: *lanes, QueueTimeout: *queueTimeout, QueryTimeout: *queryTimeout,
		CacheSize: *cacheSize, Exec: cfg,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("oblivserve: draining (%d in flight, deadline %v)", srv.Running(), *drain)
		// Finish in-flight queries, cancel stragglers past the deadline,
		// close lane sessions — then drop the listener.
		if canceled := srv.ShutdownDrain(*drain); canceled > 0 {
			log.Printf("oblivserve: drain deadline hit, canceled %d straggler(s)", canceled)
		}
		_ = hs.Close()
		close(done)
	}()
	log.Printf("oblivserve: listening on %s (%d lanes × %d workers)", *addr, srv.Lanes(), srv.WorkersPerLane())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

func cmdLoad(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8344", "server base URL")
	name := fs.String("name", "", "table name (required)")
	replace := fs.Bool("replace", false, "replace an existing binding (bumps its version)")
	useStdin := fs.Bool("stdin", false, "read \"key... value\" rows (one per line) from stdin")
	n := fs.Int("rows", 1<<12, "generated workload size (ignored with -stdin)")
	groups := fs.Int("groups", 64, "distinct keys in the generated workload")
	cols := fs.Int("cols", 1, "key columns per generated row")
	seed := fs.Uint64("seed", 1, "generator seed")
	_ = fs.Parse(args)
	if *name == "" {
		log.Fatal("load: -name is required")
	}
	var rows []client.Row
	if *useStdin {
		sc := bufio.NewScanner(os.Stdin)
		for ln := 1; sc.Scan(); ln++ {
			fields := strings.Fields(sc.Text())
			if len(fields) == 0 {
				continue
			}
			if len(fields) < 2 {
				log.Fatalf("load: line %d: need at least \"key value\"", ln)
			}
			row := client.Row{}
			for _, f := range fields[:len(fields)-1] {
				k, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					log.Fatalf("load: line %d: %v", ln, err)
				}
				row.Keys = append(row.Keys, k)
			}
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			if err != nil {
				log.Fatalf("load: line %d: %v", ln, err)
			}
			row.Val = v
			rows = append(rows, row)
		}
		if err := sc.Err(); err != nil {
			log.Fatal(err)
		}
	} else {
		src := prng.New(*seed)
		rows = make([]client.Row, *n)
		for i := range rows {
			keys := make([]uint64, *cols)
			for c := range keys {
				keys[c] = src.Uint64n(uint64(*groups))
			}
			rows[i] = client.Row{Keys: keys, Val: src.Uint64n(1000)}
		}
	}
	info, err := client.New(*addr).Load(*name, rows, *replace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s@%d: %d rows, %d key column(s)\n",
		info.Name, info.Version, info.Rows, info.Width)
}

// specFlags builds a query spec from shared query/explain flags.
func specFlags(fs *flag.FlagSet) (*string, func() client.Spec) {
	addr := fs.String("addr", "http://localhost:8344", "server base URL")
	table := fs.String("table", "", "queried table (required)")
	join := fs.String("join", "", "join against this loaded table first")
	joinCap := fs.Int("joincap", 0, "public join output capacity (required with -join)")
	filter := fs.String("filter", "", "filter clause \"col op value\" (col = key index or 'val'; op = eq ne lt le gt ge)")
	distinct := fs.Bool("distinct", false, "deduplicate by key tuple")
	agg := fs.String("agg", "", "group-by aggregation: sum count min max avg var")
	topK := fs.Int("top", 0, "keep the k largest-value rows")
	keyOrder := fs.Bool("keyorder", false, "materialize in key order with the OrderKeys token (cross-query sort skipping)")
	as := fs.String("as", "", "store the result as this table")
	graph := fs.String("graph", "", "graph operator over a width-2 edge table: cc, msf, pagerank (excludes the relational clauses)")
	rounds := fs.Int("rounds", 0, "graph round parameter: fixed cc rounds (0 = converge) or pagerank iterations (0 = 5)")
	return addr, func() client.Spec {
		if *table == "" {
			log.Fatal("-table is required")
		}
		spec := client.Spec{
			Table: *table, Distinct: *distinct, GroupBy: *agg,
			TopK: *topK, KeyOrderOut: *keyOrder, As: *as,
			Graph: *graph, GraphRounds: *rounds,
		}
		if *join != "" {
			spec.Join = &client.Join{Table: *join, MaxOut: *joinCap}
		}
		if *filter != "" {
			parts := strings.Fields(*filter)
			if len(parts) != 3 {
				log.Fatalf("bad -filter %q: want \"col op value\"", *filter)
			}
			f := client.Filter{Op: parts[1]}
			if parts[0] == "val" {
				f.Col = -1
			} else {
				c, err := strconv.Atoi(parts[0])
				if err != nil {
					log.Fatalf("bad -filter column %q", parts[0])
				}
				f.Col = c
			}
			v, err := strconv.ParseUint(parts[2], 10, 64)
			if err != nil {
				log.Fatalf("bad -filter value %q", parts[2])
			}
			f.Value = v
			spec.Filter = &f
		}
		return spec
	}
}

func cmdQuery(args []string, explainOnly bool) {
	name := "query"
	if explainOnly {
		name = "explain"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	showRows := fs.Int("show", 10, "rows to print (0 = none)")
	addr, build := specFlags(fs)
	_ = fs.Parse(args)
	spec := build()
	cl := client.New(*addr)
	if explainOnly {
		plan, err := cl.Explain(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(plan)
		return
	}
	start := time.Now()
	res, err := cl.Query(spec)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("plan: %s\n", res.Stats.Plan)
	fmt.Printf("%d row(s) in %v  sorts=%d cold=%d cached=%t order=%s\n",
		len(res.Rows), elapsed.Round(time.Microsecond),
		res.Stats.SortPasses, res.Stats.ColdSortPasses, res.Stats.Cached, res.Stats.Order)
	if res.StoredAs != "" {
		fmt.Printf("stored as %s@%d\n", res.StoredAs, res.StoredVersion)
	}
	for i, r := range res.Rows {
		if i >= *showRows {
			if *showRows > 0 {
				fmt.Printf("... (%d more)\n", len(res.Rows)-i)
			}
			break
		}
		keys := make([]string, len(r.Keys))
		for c, k := range r.Keys {
			keys[c] = strconv.FormatUint(k, 10)
		}
		fmt.Printf("  %s  %d\n", strings.Join(keys, " "), r.Val)
	}
}
