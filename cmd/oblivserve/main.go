// Command oblivserve is the oblivious analytics server and the one query
// front end: `serve` hosts loaded relations behind the HTTP/JSON surface
// (bounded-admission session lanes, cross-query result cache, order-token
// planning), `load` pushes a relation from stdin or the generator, `query`
// runs a declarative spec and reports the executed sort passes, `explain`
// renders the order-aware plan without running it, and `run` executes the
// same spec locally: its rows load into an in-process server, so every
// query, local or served, compiles through serve's one spec compiler.
//
// Usage:
//
//	oblivserve serve -addr :8344 -lanes 4
//	oblivserve load -name sales -rows 4096 -groups 64        # generated example
//	printf "1 120\n2 95\n" | oblivserve load -name t -stdin  # "key... value" lines
//	oblivserve query -table sales -agg sum -keyorder -as totals
//	oblivserve query -table totals -agg max                  # rides the order token
//	oblivserve explain -table totals -agg max
//	oblivserve run -rows 4096 -filter "val ge 100" -agg count -metered
//	printf "0 1 5\n1 2 5\n3 4 1\n" | oblivserve run -stdin -graph cc
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
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

const (
	usage       = "usage: oblivserve <serve|load|query|explain|run> [flags] (-h per subcommand)"
	defaultAddr = "http://localhost:8344"
)

// A command registers its subcommand's flags on fs and returns the body,
// which runs once they are parsed. It reports to stdout, and logs (serve
// only) to fs.Output().
type command func(fs *flag.FlagSet) func(stdin io.Reader, stdout io.Writer) error

var commands = map[string]command{
	"serve":   cmdServe,
	"load":    cmdLoad,
	"query":   func(fs *flag.FlagSet) func(io.Reader, io.Writer) error { return cmdRemote(fs, false) },
	"explain": func(fs *flag.FlagSet) func(io.Reader, io.Writer) error { return cmdRemote(fs, true) },
	"run":     cmdRun,
}

func main() {
	log.SetFlags(0)
	err := errors.New(usage)
	if len(os.Args) > 1 {
		err = invoke(os.Args[1], os.Args[2:], os.Stdin, os.Stdout, os.Stderr)
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errFlags):
		os.Exit(2) // the flag set has printed the error and its usage
	default:
		log.Fatal(err)
	}
}

// errFlags wraps the parse errors a flag set reports itself.
var errFlags = errors.New("bad flags")

// invoke runs subcommand name over args. It refuses stray positional
// arguments: a word the shell split off a flag value would otherwise end
// flag parsing and silently drop the flags after it.
func invoke(name string, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	cmd, ok := commands[name]
	if !ok {
		return errors.New(usage)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := cmd(fs)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", name, fs.Arg(0))
	}
	return body(stdin, stdout)
}

var backends = map[string]oblivmc.SortBackend{
	"auto":    oblivmc.SortAuto,
	"bitonic": oblivmc.SortBitonic,
	"shuffle": oblivmc.SortShuffle,
}

// execFlags registers the execution flags serve and run share into the
// returned lane Config.
func execFlags(fs *flag.FlagSet) *oblivmc.Config {
	cfg := &oblivmc.Config{}
	fs.Func("backend", "sort backend: auto, bitonic, shuffle (default auto: switches at the size crossover)", func(v string) error {
		b, ok := backends[v]
		if !ok {
			return errors.New("want auto, bitonic or shuffle")
		}
		cfg.SortBackend = b
		return nil
	})
	fs.IntVar(&cfg.Workers, "workers", 0, "fork-join workers per lane (0 = GOMAXPROCS/lanes)")
	return cfg
}

// rowSource is the row input load and run share: "key... value" lines on
// stdin, or the seeded generator.
type rowSource struct {
	stdin              bool
	rows, groups, cols int
	seed               uint64
}

func rowFlags(fs *flag.FlagSet) *rowSource {
	s := &rowSource{}
	fs.BoolVar(&s.stdin, "stdin", false, "read \"key... value\" rows (one per line; the first line sets the key width) from stdin")
	fs.IntVar(&s.rows, "rows", 1<<12, "generated table size (ignored with -stdin)")
	fs.IntVar(&s.groups, "groups", 64, "distinct keys per column in the generated table")
	fs.IntVar(&s.cols, "cols", 1, "key columns per generated row (an edge table is -cols 2)")
	fs.Uint64Var(&s.seed, "seed", 1, "generator seed")
	return s
}

// read returns the stdin rows, or -rows generated ones. Table loading
// checks that the widths agree.
func (s *rowSource) read(stdin io.Reader) ([]oblivmc.WideRow, error) {
	if !s.stdin {
		return s.generate(s.rows, s.cols, s.seed)
	}
	var rows []oblivmc.WideRow
	sc := bufio.NewScanner(stdin)
	for ln := 1; sc.Scan(); ln++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		nums := make([]uint64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", ln, err)
			}
			nums[i] = v
		}
		last := len(nums) - 1
		rows = append(rows, oblivmc.WideRow{Keys: nums[:last:last], Val: nums[last]})
	}
	return rows, sc.Err()
}

// generate draws n rows of cols key columns from [0, -groups) and values
// from [0, 1000), reproducibly from seed.
func (s *rowSource) generate(n, cols int, seed uint64) ([]oblivmc.WideRow, error) {
	if n < 0 || s.groups < 1 {
		return nil, fmt.Errorf("-rows must be >= 0 and -groups >= 1 (got %d, %d)", n, s.groups)
	}
	src := prng.New(seed)
	rows := make([]oblivmc.WideRow, n)
	for i := range rows {
		keys := make([]uint64, cols)
		for c := range keys {
			keys[c] = src.Uint64n(uint64(s.groups))
		}
		rows[i] = oblivmc.WideRow{Keys: keys, Val: src.Uint64n(1000)}
	}
	return rows, nil
}

// specFlags registers the query-spec flags query, explain and run share,
// with table as -table's default. It is the CLI's one flag-to-Spec
// translator; the returned builder checks what no single flag can.
func specFlags(fs *flag.FlagSet, table string) func() (client.Spec, error) {
	var spec client.Spec
	var join client.Join
	fs.StringVar(&spec.Table, "table", table, "queried table")
	fs.StringVar(&join.Table, "join", "", "join against this table first")
	fs.Func("joincap", "public join output capacity: a row count, or \"auto\" to size the join at its worst-case match bound (required with -join)", func(v string) error {
		join.MaxOut, join.JoinCap = 0, ""
		if v == "auto" {
			join.JoinCap = v
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return errors.New("want a row count or \"auto\"")
		}
		join.MaxOut = n
		return nil
	})
	fs.Func("filter", "filter clause \"col op value\" (col = key index or 'val'; op = eq ne lt le gt ge)", func(v string) (err error) {
		spec.Filter, err = parseFilter(v)
		return err
	})
	fs.BoolVar(&spec.Distinct, "distinct", false, "deduplicate by key tuple")
	fs.StringVar(&spec.GroupBy, "agg", "", "group-by aggregation: sum count min max avg var")
	fs.IntVar(&spec.TopK, "top", 0, "keep the k largest-value rows")
	fs.BoolVar(&spec.KeyOrderOut, "keyorder", false, "materialize in key order with the OrderKeys token (cross-query sort skipping)")
	fs.StringVar(&spec.As, "as", "", "store the result as this table")
	fs.StringVar(&spec.Graph, "graph", "", "graph operator over a width-2 edge table: cc, msf, pagerank (excludes the relational clauses)")
	fs.IntVar(&spec.GraphRounds, "rounds", 0, "graph round parameter: fixed cc rounds (0 = converge) or pagerank iterations (0 = 5)")
	return func() (client.Spec, error) {
		switch {
		case spec.Table == "":
			return client.Spec{}, errors.New("-table is required")
		case (join.Table == "") != (join.MaxOut == 0 && join.JoinCap == ""):
			return client.Spec{}, errors.New("-joincap is required with -join, and only with it")
		case join.Table != "":
			spec.Join = &join
		}
		return spec, nil
	}
}

// parseFilter parses a "col op value" clause; the spec compiler checks
// the op.
func parseFilter(s string) (*client.Filter, error) {
	parts := strings.Fields(s)
	if len(parts) != 3 {
		return nil, errors.New("want \"col op value\"")
	}
	f := &client.Filter{Col: -1, Op: parts[1]}
	var err error
	if parts[0] != "val" {
		f.Col, err = strconv.Atoi(parts[0])
	}
	if err == nil {
		f.Value, err = strconv.ParseUint(parts[2], 10, 64)
	}
	if err != nil {
		return nil, fmt.Errorf("col is a key index or 'val', value a uint64: %w", err)
	}
	return f, nil
}

// printResult writes one result, served or local: the plan, the stats
// line and at most show rows.
func printResult(w io.Writer, res client.QueryResult, elapsed time.Duration, show int) {
	fmt.Fprintf(w, "plan: %s\n", res.Stats.Plan)
	fmt.Fprintf(w, "%d row(s) in %v  sorts=%d cold=%d cached=%t order=%s\n",
		len(res.Rows), elapsed.Round(time.Microsecond),
		res.Stats.SortPasses, res.Stats.ColdSortPasses, res.Stats.Cached, res.Stats.Order)
	if res.StoredAs != "" {
		fmt.Fprintf(w, "stored as %s@%d\n", res.StoredAs, res.StoredVersion)
	}
	for i, r := range res.Rows {
		if i >= show {
			if show > 0 {
				fmt.Fprintf(w, "... (%d more)\n", len(res.Rows)-i)
			}
			break
		}
		keys := make([]string, len(r.Keys))
		for c, k := range r.Keys {
			keys[c] = strconv.FormatUint(k, 10)
		}
		fmt.Fprintf(w, "  %s  %d\n", strings.Join(keys, " "), r.Val)
	}
}

func cmdServe(fs *flag.FlagSet) func(io.Reader, io.Writer) error {
	addr := fs.String("addr", ":8344", "listen address")
	lanes := fs.Int("lanes", 0, "concurrent query lanes (0 = GOMAXPROCS/2)")
	queueTimeout := fs.Duration("queue-timeout", 5*time.Second, "admission queue timeout before 429")
	queryTimeout := fs.Duration("query-timeout", 0, "per-query execution deadline before 504 (0 = unlimited)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain deadline before canceling stragglers (0 = wait forever)")
	cacheSize := fs.Int("cache", 128, "result cache entries")
	serial := fs.Bool("serial", false, "serial execution per lane (tests, debugging)")
	cfg := execFlags(fs)
	return func(io.Reader, io.Writer) error {
		if *serial {
			cfg.Mode = oblivmc.ModeSerial
		}
		logger := log.New(fs.Output(), "", 0)
		srv := serve.NewServer(serve.Options{
			Lanes: *lanes, QueueTimeout: *queueTimeout, QueryTimeout: *queryTimeout,
			CacheSize: *cacheSize, Exec: *cfg,
		})
		hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
		done := make(chan struct{})
		go func() {
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			<-sig
			logger.Printf("oblivserve: draining (%d in flight, deadline %v)", srv.Running(), *drain)
			// Finish in-flight queries, cancel stragglers past the deadline,
			// close lane sessions — then drop the listener.
			if canceled := srv.ShutdownDrain(*drain); canceled > 0 {
				logger.Printf("oblivserve: drain deadline hit, canceled %d straggler(s)", canceled)
			}
			_ = hs.Close()
			close(done)
		}()
		logger.Printf("oblivserve: listening on %s (%d lanes × %d workers)", *addr, srv.Lanes(), srv.WorkersPerLane())
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			return err
		}
		<-done
		return nil
	}
}

func cmdLoad(fs *flag.FlagSet) func(io.Reader, io.Writer) error {
	addr := fs.String("addr", defaultAddr, "server base URL")
	name := fs.String("name", "", "table name (required)")
	replace := fs.Bool("replace", false, "replace an existing binding (bumps its version)")
	src := rowFlags(fs)
	return func(stdin io.Reader, stdout io.Writer) error {
		if *name == "" {
			return errors.New("load: -name is required")
		}
		rows, err := src.read(stdin)
		if err != nil {
			return err
		}
		wire := make([]client.Row, len(rows))
		for i, r := range rows {
			wire[i] = client.Row(r)
		}
		info, err := client.New(*addr).Load(*name, wire, *replace)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %s@%d: %d rows, %d key column(s)\n",
			info.Name, info.Version, info.Rows, info.Width)
		return nil
	}
}

// cmdRemote is query, or with explainOnly explain: the spec runs, or is
// planned, on the server at -addr.
func cmdRemote(fs *flag.FlagSet, explainOnly bool) func(io.Reader, io.Writer) error {
	addr := fs.String("addr", defaultAddr, "server base URL")
	build := specFlags(fs, "")
	show := fs.Int("show", 10, "rows to print (0 = none)")
	return func(_ io.Reader, stdout io.Writer) error {
		spec, err := build()
		if err != nil {
			return err
		}
		cl := client.New(*addr)
		if explainOnly {
			plan, err := cl.Explain(spec)
			if err == nil {
				fmt.Fprintln(stdout, plan)
			}
			return err
		}
		start := time.Now()
		res, err := cl.Query(spec)
		if err == nil {
			printResult(stdout, res, time.Since(start), *show)
		}
		return err
	}
}

// cmdRun is the local runner: it loads the row source as -table (and a
// generated -join table) into a one-lane in-process server, then explains
// or executes the spec there.
func cmdRun(fs *flag.FlagSet) func(io.Reader, io.Writer) error {
	build := specFlags(fs, "t")
	src := rowFlags(fs)
	joinRows := fs.Int("join-rows", 64, "rows of the generated -join table (same -groups and key width as -table)")
	cfg := execFlags(fs)
	show := fs.Int("show", 10, "rows to print (0 = none)")
	explain := fs.Bool("explain", false, "print the plan without running it")
	metered := fs.Bool("metered", false, "report exact work/span/cache metrics and the adversary's-view trace fingerprint (bitonic: a function of row count, width and query shape; shuffle: input-independent in distribution over its secret permutation)")
	fs.BoolVar(&cfg.DeterministicShuffle, "det-shuffle", false, "derive the shuffle backend's permutations from -seed for reproducible traces (testing only: a known seed forfeits the backend's obliviousness guarantee)")
	return func(stdin io.Reader, stdout io.Writer) error {
		spec, err := build()
		if err != nil {
			return err
		}
		rows, err := src.read(stdin)
		if err != nil {
			return err
		}
		cfg.Seed = src.seed
		if *metered {
			cfg.Mode, cfg.CacheM, cfg.CacheB, cfg.Trace = oblivmc.ModeMetered, 1<<12, 32, true
		}
		srv := serve.NewServer(serve.Options{Lanes: 1, Exec: *cfg})
		defer srv.Shutdown()
		info, err := srv.LoadTable(spec.Table, rows, false)
		if err != nil {
			return err
		}
		if spec.Join != nil {
			left, err := src.generate(*joinRows, info.Width, src.seed+1)
			if err != nil {
				return err
			}
			if _, err := srv.LoadTable(spec.Join.Table, left, false); err != nil {
				return err
			}
		}
		if *explain {
			plan, err := srv.ExplainSpec(spec)
			if err == nil {
				fmt.Fprintln(stdout, plan)
			}
			return err
		}
		start := time.Now()
		res, err := srv.Execute(spec)
		if err != nil {
			return err
		}
		printResult(stdout, res.Response(), time.Since(start), *show)
		if rep := res.Report; rep != nil {
			fmt.Fprintf(stdout, "work=%d span=%d parallelism=%.0fx memops=%d cache-misses=%d\n",
				rep.Work, rep.Span, float64(rep.Work)/float64(rep.Span), rep.MemOps, rep.CacheMisses)
			fmt.Fprintf(stdout, "adversary's view: %016x/%d\n", rep.TraceFingerprint.Hash, rep.TraceFingerprint.Count)
		}
		return nil
	}
}
