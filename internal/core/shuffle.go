// Shuffle-then-sort backend for schedule-driven sorts (Theorem 3.2 / §C.4
// generalized for the relational engine): obliviously apply a uniformly
// random secret permutation to the element array together with every plane
// of its key schedule, then run an insecure comparison sample sort on the
// permuted sequence. Because the permutation is uniform and hidden, the
// order type of the permuted sequence — and hence the access-pattern
// distribution of the insecure sort — is independent of the input contents,
// provided the sort's effective keys are distinct ([CGLS18, ACN+20]); the
// keyed sample sort guarantees distinctness by breaking full ties with the
// elements' (Kind, Tag, Aux) triple and a fresh random tie word.
//
// The security of the composition rests on the permutation being SECRET:
// an adversary who knows it can invert the insecure sort's trace back to
// the input key order. A ShuffleSorter therefore draws every sort's
// permutation by default from a ChaCha8 stream keyed with 256 fresh bits
// of crypto/rand — a cryptographically strong generator, so the
// permutation is computationally indistinguishable from uniform and
// cannot be recovered from the trace. The deterministic seeding the
// fingerprint test harness and the benchmarks need is an explicit opt-in
// (FixedSeed) that forfeits the guarantee unless the seed value itself is
// secret, uniformly random, and fresh per run — and even then bounds the
// coin space at 64 bits through a non-cryptographic expander, so it is
// for tests and benchmarks only.
//
// The permutation stage is realized as a Beneš routing network rather than
// the REC-ORBA bin cascade: the network's topology — which addresses each
// of its 2·log₂(n)−1 layers reads and writes — is a fixed function of n
// alone, while the permutation itself is encoded in the switch settings,
// which live outside the instrumented memory and are computed from the
// per-sort PRNG like a random tape. They are a function of the coins,
// never of the data, so the traced part of the stage, the network's
// element and key moves, is simulatable from n. The stage as a whole is
// not: the Fisher–Yates draw (perm, whose swap p[i], p[j] sits at a
// coin-chosen j) and the routing (routeBlock's pinv[v] = i writes, its
// pinv reads and the colouring's cycle walk) run in plain Go slices at
// addresses that are functions of the permutation. An adversary who
// observes that Θ(n) scratch learns the permutation, and the insecure
// sort's trace then reveals the input's key order under it. The
// composition is therefore oblivious only if that scratch is private —
// memory the adversary cannot observe, which the traced model assumes
// but does not check. SortBitonic's networks keep no such scratch and
// need no such assumption. This trades REC-ORBA's O(n·log n·log log n) bin
// passes — whose practical constants exceed a full bitonic sort at
// realistic n — for O(n·log n) element moves with constant ~2 per layer,
// which is what lets the composition overtake the keyed bitonic networks
// on large relations. Every switch moves the element and all schedule
// words together, the same lockstep contract the keyed bitonic merge
// keeps through its transposes.
package core

import (
	crand "crypto/rand"
	"fmt"
	"math"
	mrand "math/rand/v2"

	"oblivmc/internal/bitonic"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/obliv"
	"oblivmc/internal/prng"
	"oblivmc/internal/spms"
)

// DefaultShuffleCrossover is the public size threshold of the Auto backend
// policy: schedule-driven sorts of at least this many slots run the
// shuffle-then-sort composition, smaller ones the keyed bitonic network
// (whose lower fixed costs win on small arrays). The crossover is a
// function of the array length alone — public query shape, like the length
// itself — so backend selection never depends on the data.
//
// The value predates the block kernels; it was re-measured after them and
// deliberately left where it was (re-deriving it is ROADMAP item 9(c)).
// It was set when the backends broke even between 2^12 and 2^13 and the
// shuffle composition pulled ahead ~1.5× at 2^14, ~1.8× at 2^20.
// The block kernels sped the networks up more than the composition; the
// shuffle-path kernels (recursive Beneš apply, int32 routing, one
// classification per sample-sort row) then won part of that back, and
// BenchmarkBackendCrossover (width 1, TiePos, 2-vCPU Xeon, two runs) now
// reads bitonic ÷ shuffle time as
//
//	n       1 worker   2 workers
//	2^13    1.00       0.66
//	2^15    0.97–1.19  0.85
//	2^17    1.42       1.02–1.10
//
// (0.82 / 0.58, 0.98–1.00 / 0.68 and 1.05–1.09 / 0.77–0.81 before them):
// single-threaded the composition breaks even at 2^13, and on two workers
// the network still wins through 2^15 and breaks even at 2^17. Which sizes
// run which backend stays fixed in the changes that sped either side up,
// so that their gains are attributable; moving the constant is its own
// change with its own claim.
const DefaultShuffleCrossover = 1 << 13

// ShuffleSorter is the obliv.ScheduledSorter implementing the Theorem 3.2
// composition: oblivious random permutation (Beneš network, element array
// and key-schedule planes in lockstep), then an insecure keyed sample sort
// (internal/spms) ordering by (cached key words, TiePos triple, random tie
// word). Arrays below Crossover — and arrays whose length is not a power
// of two, which never arise from the relational layer's padded relations —
// are delegated to the cache-agnostic bitonic network.
//
// By default every sort draws its permutation and tie coins from a fresh
// crypto/rand-keyed ChaCha8 stream, so the insecure stage's trace — which
// depends on the order type of the permuted keys — is input-independent
// in distribution (the Theorem 3.2 guarantee, computationally) with no
// requirement on any caller-supplied value, at the cost of traces that
// differ between runs. FixedSeed opts into deterministic coins: the
// permutations derive from (seed, per-sorter call counter), so a pipeline
// of sorts at a fixed seed replays the identical trace across runs of the
// same shape — what the oblivtest fingerprint harness and the benchmarks
// need. Fixing the seed narrows the guarantee: the trace becomes a
// deterministic function of (shape, key order), hidden only if the seed
// value is secret, uniformly random, and fresh for each dataset. Never fix
// the seed outside tests and benchmarks; the bitonic backend remains the
// choice where per-seed trace determinism is required in production.
//
// A ShuffleSorter is stateful (the call counter and the cached tie
// scratch) and must be created per logical run; its sorts must be issued
// sequentially, as the relational orchestration path does. The zero value
// gives the Auto defaults with crypto/rand coins.
type ShuffleSorter struct {
	// FixedSeed, when non-nil, derives every sort's permutation and tie
	// words deterministically from the pointed-to seed plus a per-sorter
	// call counter (reproducible traces for tests and benchmarks — see the
	// type comment for the secrecy requirements this transfers onto the
	// seed). nil — the default — keys a fresh ChaCha8 stream from
	// crypto/rand per sort.
	FixedSeed *uint64
	// Crossover is the minimum array length sorted by the shuffle
	// composition (0 = DefaultShuffleCrossover; 2 forces the shuffle path
	// at every power-of-two length).
	Crossover int

	// calls counts the sorts of a FixedSeed pipeline (each draws the next
	// deterministic tape). Plain state, like the scratch cache below: a
	// ShuffleSorter's sorts are issued sequentially per the type contract.
	calls uint64
	// Tie-plane scratch cached across the sorts of a run (arena-style:
	// grow-only, dropped when the requesting space changes), plus the
	// harness-memory staging buffer its words are drawn into. The reuse is
	// trace-safe — the allocation sequence is a function of the sort-size
	// sequence, itself public shape — and keeps a multi-sort pipeline's
	// footprint flat instead of ~3n fresh words per sort.
	sp       *mem.Space
	tiePlane *mem.Array[uint64]
	tieScr   *mem.Array[uint64]
	tieWords []uint64
	// Beneš routing state cached across the sorts of a run: one routed-plan
	// buffer per array size — the (2·log₂ n − 1) × n/2 switch-setting
	// planes, rewritten in place by each sort's routing — plus the grow-only
	// two-coloring scratch (int32 positions and inverse, one colour byte
	// per position: 13 bytes per slot) and the permutation buffer. All
	// plain harness memory (settings are simulatable, like tape
	// generation), so the reuse is trace-free; it keeps a server pipeline
	// of same-shape sorts from rebuilding ~n·log n bytes of planes per call.
	// The sample sort's bucket record (one uint16 per row) is not cached
	// here: spms.SampleSortScheduled allocates it per call, and pays for it
	// by indexing its raw pivots in the sorted sample instead of copying
	// them, so a sort's allocation still does not grow.
	plans   map[int]*benesPlan
	route   routeScratch
	permBuf []int
}

var _ obliv.ScheduledSorter = (*ShuffleSorter)(nil)

// Name implements obliv.ScheduledSorter.
func (s *ShuffleSorter) Name() string { return "shuffle-samplesort" }

func (s *ShuffleSorter) crossover() int {
	if s.Crossover <= 0 {
		return DefaultShuffleCrossover
	}
	return s.Crossover
}

// sortCoins is one sort's randomness: Intn draws the ORP permutation's
// Fisher–Yates indices, Uint64 the tie words and pivot seed.
type sortCoins interface {
	Intn(n int) int
	Uint64() uint64
}

// cryptoCoins adapts math/rand/v2's ChaCha8-backed Rand to sortCoins.
type cryptoCoins struct{ *mrand.Rand }

func (c cryptoCoins) Intn(n int) int { return c.IntN(n) }

// coins returns one sort's coin source: a ChaCha8 stream keyed with 256
// fresh bits from crypto/rand — a cryptographically strong generator, so
// the permutation is computationally indistinguishable from uniform and
// stays hidden from a trace observer — or, under FixedSeed, the
// reproducible xoshiro tape derived from (seed, call index).
func (s *ShuffleSorter) coins() sortCoins {
	if s.FixedSeed == nil {
		var key [32]byte
		if _, err := crand.Read(key[:]); err != nil {
			panic("core: crypto/rand unavailable for the shuffle backend: " + err.Error())
		}
		return cryptoCoins{mrand.New(mrand.NewChaCha8(key))}
	}
	s.calls++
	return prng.New(prng.Mix64(*s.FixedSeed + s.calls*0x632be59bd9b4e019))
}

// perm draws a uniform permutation of [0, n) into the sorter's cached
// buffer. The Fisher–Yates draw sequence is identical to prng.Source.Perm,
// so FixedSeed pipelines replay the same permutations (and the same
// downstream tie-word stream) as before the buffer reuse.
func (s *ShuffleSorter) perm(src sortCoins, n int) []int {
	if cap(s.permBuf) < n {
		s.permBuf = make([]int, n)
	}
	p := s.permBuf[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// benesPlanFor returns the sorter's cached routed-plan buffer for size n,
// allocating its layer planes on first use of that size.
func (s *ShuffleSorter) benesPlanFor(n int) *benesPlan {
	if pl := s.plans[n]; pl != nil {
		return pl
	}
	if s.plans == nil {
		s.plans = make(map[int]*benesPlan, 4)
	}
	pl := newBenesPlan(n)
	s.plans[n] = pl
	return pl
}

// tieScratch returns the sort's tie plane and tie-plane sorting scratch of
// length n, reusing the cached arrays when the space matches and they are
// large enough.
func (s *ShuffleSorter) tieScratch(sp *mem.Space, n int) (tie, tscr *mem.Array[uint64]) {
	if s.sp != sp {
		s.sp, s.tiePlane, s.tieScr = sp, nil, nil
	}
	if s.tiePlane == nil || s.tiePlane.Len() < n {
		s.tiePlane = mem.Alloc[uint64](sp, n)
		s.tieScr = mem.Alloc[uint64](sp, n)
	}
	return s.tiePlane.View(0, n), s.tieScr.View(0, n)
}

// Sort implements obliv.ScheduledSorter with the stateless keyed bitonic
// network at every size. The closure-key seam is the paper reproduction's:
// it sorts the poly-log subproblems the paper sorts with a network, and
// sorts them concurrently through one shared Params.Sorter
// (core.RandomPermutation's bins), so it must not touch this sorter's
// per-run caches.
func (s *ShuffleSorter) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], lo, n int, key func(obliv.Elem) uint64) {
	obliv.SortKeyed(c, sp, a.View(lo, n), n, key, bitonic.CacheAgnostic{})
}

// SortScheduled implements obliv.ScheduledSorter: Beneš-permute a[lo:lo+n)
// and ks[lo:lo+n) in lockstep with a fresh uniform permutation, then sample
// sort the permuted sequence by its cached keys. scr/kscr serve as the
// network's double buffer and the sample sort's scratch.
func (s *ShuffleSorter) SortScheduled(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule, scr *mem.Array[obliv.Elem], kscr *obliv.KeySchedule, lo, n int) {
	if n <= 1 {
		return
	}
	if n < s.crossover() || !obliv.IsPow2(n) {
		bitonic.CacheAgnostic{}.SortScheduled(c, sp, a, ks, scr, kscr, lo, n)
		return
	}
	av, ksv := a.View(lo, n), ks.View(lo, n)
	scrv, kscrv := scr.View(0, n), kscr.View(0, n)

	// Per-sort coins: a fresh permutation and tie tape for every sort of a
	// pipeline — never a function of the data (see coins for the
	// secret-vs-deterministic derivation).
	src := s.coins()

	// Stage 1 — ORP: settings are computed in harness memory from the PRNG
	// (simulatable, like tape generation); the instrumented application
	// touches a fixed address sequence, a function of (n, w) only. The plan
	// buffer and routing scratch are the sorter's cached ones — repeated
	// same-size sorts reroute in place, allocation-free.
	pl := s.benesPlanFor(n)
	routeBenesInto(c, pl, s.perm(src, n), &s.route)
	pl.apply(c, av, scrv, ksv, kscrv)

	// Stage 2 — insecure keyed sample sort on the permuted sequence. The
	// tie plane holds fresh words of the same coin stream as the
	// permutation, making every comparison strict (the distinct-keys
	// precondition of the security argument; it also fixes the order of
	// otherwise-identical fillers to the coins).
	tie, tscr := s.tieScratch(sp, n)
	s.fillTies(c, src, tie)
	spms.SampleSortScheduled(c, sp, av, ksv, tie, scrv, kscrv, tscr, 0, n, src.Uint64())
}

// fillTies writes one fresh word of the sort's coin stream per slot of tie,
// staged through the cached harness buffer: the stream is sequential, the
// instrumented fill parallel.
func (s *ShuffleSorter) fillTies(c *forkjoin.Ctx, src sortCoins, tie *mem.Array[uint64]) {
	n := tie.Len()
	if len(s.tieWords) < n {
		s.tieWords = make([]uint64, n)
	}
	words := s.tieWords[:n]
	for i := range words {
		words[i] = src.Uint64()
	}
	forkjoin.ParallelRange(c, 0, n, 0, func(c *forkjoin.Ctx, from, to int) {
		for i := from; i < to; i++ {
			tie.Set(c, i, words[i])
		}
	})
}

// benesPlan is a routed Beneš network over n = 2^k positions: 2k−1 layers
// of n/2 switch settings. Layer ℓ < k−1 is the split layer at block size
// n>>ℓ (reading pairs (2j, 2j+1), writing halves (j, m/2+j)); layer k−1 is
// the middle layer of adjacent conditional swaps; layer 2k−2−ℓ is the
// merge layer mirroring split layer ℓ. The addresses every layer touches
// are a function of n alone; the settings encode the permutation.
type benesPlan struct {
	n      int
	layers [][]bool
}

// routeScratch is the grow-only harness-memory scratch of the routing
// loop: the level-synchronous permutation double buffer, its inverse and
// the two-coloring state, reused across the sorts of a pipeline. Positions
// are int32 (a shuffle sort covers fewer than 2^31 slots), which halves
// the working set the colouring walks.
type routeScratch struct {
	cur, nxt, pinv []int32
	color          []uint8
}

func (rs *routeScratch) grow(n int) {
	if cap(rs.cur) < n {
		rs.cur, rs.nxt, rs.pinv = make([]int32, n), make([]int32, n), make([]int32, n)
		rs.color = make([]uint8, n)
	}
}

// newBenesPlan allocates an unrouted plan buffer for n = 2^k positions.
func newBenesPlan(n int) *benesPlan {
	if !obliv.IsPow2(n) || n < 2 {
		panic(fmt.Sprintf("core: Beneš network needs a power-of-two size >= 2, got %d", n))
	}
	k := obliv.Log2(n)
	pl := &benesPlan{n: n, layers: make([][]bool, 2*k-1)}
	for i := range pl.layers {
		pl.layers[i] = make([]bool, n/2)
	}
	return pl
}

// routeBenes computes switch settings realizing new[i] = old[p[i]] via the
// classic two-coloring loop algorithm, level-synchronously with O(n) reused
// buffers per level (O(n log n) total time, plain harness memory). It
// allocates a fresh plan; the sorter's pipeline path reroutes its cached
// buffers through routeBenesInto instead.
func routeBenes(p []int) *benesPlan {
	pl := newBenesPlan(len(p))
	routeBenesInto(forkjoin.Serial(), pl, p, &routeScratch{})
	return pl
}

// routeGrain is the minimum number of permutation entries one routing task
// covers when the switch-setting computation forks across a level's blocks:
// a block's coloring is O(m) pointer-chasing over harness memory, so leaves
// much smaller than this are dominated by task bookkeeping.
const routeGrain = 1 << 12

// routeBenesInto routes p into pl's switch planes in place, drawing all
// working memory from rs. Allocation-free once pl and rs have seen the
// size; p is left untouched.
//
// Within a level the blocks are independent — each reads and writes only
// its own [off, off+m) slice of every buffer — so in parallel mode the
// per-block cycle coloring forks across the pool (each block colors over
// its own disjoint pinv/color slice; no shared state). The computed switch
// settings are identical to the serial route at every level: blocks are
// deterministic functions of their slice of cur, and the level barrier
// (ParallelRange joins before the buffer swap) preserves the level-
// synchronous order. Serial and metered contexts take the plain loop, so
// metered traces — which would otherwise record the extra forks — and
// FixedSeed fingerprints are byte-identical to the pre-parallel routing.
func routeBenesInto(c *forkjoin.Ctx, pl *benesPlan, p []int, rs *routeScratch) {
	n := pl.n
	if len(p) != n {
		panic("core: Beneš routing permutation length mismatch")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("core: Beneš routing supports fewer than 2^31 positions, got %d", n))
	}
	k := obliv.Log2(n)
	rs.grow(n)
	cur, nxt := rs.cur[:n], rs.nxt[:n]
	pinv, color := rs.pinv[:n], rs.color[:n]
	par := c.ParallelMode()
	for i, v := range p {
		cur[i] = int32(v)
	}
	for l := 0; l < k-1; l++ {
		// Routing happens in harness memory and its level count is a
		// function of n alone, so a cancellation here reveals only the
		// public level index.
		c.Check("benes.route")
		m := n >> l
		blocks := n / m
		if par && n >= 2*routeGrain {
			grain := routeGrain / m
			if grain < 1 {
				grain = 1
			}
			sIn, sOut := pl.layers[l], pl.layers[2*k-2-l]
			curv, nxtv := cur, nxt
			forkjoin.ParallelRange(c, 0, blocks, grain, func(_ *forkjoin.Ctx, from, to int) {
				routeBlocks(curv, nxtv, sIn, sOut, pinv, color, m, from, to)
			})
		} else {
			routeBlocks(cur, nxt, pl.layers[l], pl.layers[2*k-2-l], pinv, color, m, 0, blocks)
		}
		cur, nxt = nxt, cur
	}
	mid := pl.layers[k-1]
	if par && n >= 2*routeGrain {
		forkjoin.ParallelRange(c, 0, n/2, routeGrain/2, func(_ *forkjoin.Ctx, from, to int) {
			for t := from; t < to; t++ {
				mid[t] = cur[2*t] == 1
			}
		})
	} else {
		for t := 0; t < n/2; t++ {
			mid[t] = cur[2*t] == 1
		}
	}
}

// routeBlocks routes blocks [from, to) of one level: block b covers the
// [b·m, (b+1)·m) slice of every buffer, so concurrent calls over disjoint
// block ranges touch disjoint memory.
func routeBlocks(cur, nxt []int32, sIn, sOut []bool, pinv []int32, color []uint8, m, from, to int) {
	for b := from; b < to; b++ {
		off := b * m
		routeBlock(cur[off:off+m], nxt[off:off+m],
			sIn[off/2:off/2+m/2], sOut[off/2:off/2+m/2],
			pinv[off:off+m], color[off:off+m])
	}
}

// routeBlock routes one block: p is the block-local permutation, q receives
// the two half-size sub-permutations (top in q[:m/2], bottom in q[m/2:]),
// sIn/sOut the block's split/merge switch settings. Each output position o
// is 2-colored by the subnet that carries its element: the two outputs of
// an output pair need different subnets (each subnet contributes one slot
// per pair), and so do the two outputs served by an input pair (each input
// pair sends one element to each subnet). The constraint graph is a union
// of even cycles, colored by loop-following.
func routeBlock(p, q []int32, sIn, sOut []bool, pinv []int32, color []uint8) {
	m := len(p)
	h := m / 2
	for i, v := range p {
		pinv[v] = int32(i)
	}
	// partner[o] is the output served by o's input-pair partner. Built in
	// one pass of independent loads into q, which the settings loop below
	// overwrites only after the colouring, it leaves the colouring walk one
	// dependent load per step instead of two.
	partner := q
	for o, v := range p {
		partner[o] = pinv[v^1]
	}
	// 0 is uncolored, 1 the top subnet, 2 the bottom one.
	clear(color)
	for o0 := 0; o0 < m; o0++ {
		if color[o0] != 0 {
			continue
		}
		o := int32(o0)
		for {
			color[o] = 1
			o2 := partner[o]
			if color[o2] != 0 {
				break
			}
			color[o2] = 2
			o = o2 ^ 1 // its output-pair partner returns to the top subnet
			if color[o] != 0 {
				break
			}
		}
	}
	for j := 0; j < h; j++ {
		so := color[2*j] == 2
		sOut[j] = so
		oT, oB := 2*j, 2*j+1 // outputs of pair j served by top / bottom
		if so {
			oT, oB = oB, oT
		}
		// The element entering at input position i rides subnet slot i/2.
		q[j] = p[oT] >> 1
		q[h+j] = p[oB] >> 1
		sIn[j] = color[pinv[2*j]] == 2
	}
}

// benesApplyGrain is the switch count per leaf task when a network layer
// forks: each switch moves two elements plus their schedule words, so the
// leaf carries a few thousand memory touches — large enough to amortize
// task bookkeeping, small enough that every n/2-wide layer still splits
// hundreds of ways at the sizes the shuffle backend serves (n ≥ 2^13).
// Metered runs ignore it (the grain-1 policy measures the full span).
const benesApplyGrain = 1 << 10

// benesLeaf is the block size below which the raw apply runs a sub-network
// layer by layer instead of recursing: 2^13 positions of 48-byte elements
// and one key word, double-buffered, are ≈1 MiB — inside one core's L2, so
// the 2·13−1 layers of a leaf sub-network reread cached lines instead of
// streaming the whole array once per layer.
const benesLeaf = 1 << 13

// apply runs the routed network over the element array and every schedule
// plane in lockstep, double-buffering through scr/kscr (same length and
// width; the result lands back in a/ks — the layer count that leaves the
// home buffer is even). The address sequence is a fixed function of
// (n, width): each switch always reads its two inputs and writes its two
// outputs, whichever way it is set.
//
// Under metering the layers run in network order, one per-access pass each
// (the specification). The serial and pool executors apply the same
// switches in Beneš(n)'s own recursive order (applyBlock), so every sub-network
// smaller than benesLeaf runs inside the cache; both orders compute the same
// function, since each switch reads only what the layer before it wrote
// within its own block.
func (pl *benesPlan) apply(c *forkjoin.Ctx, a, scr *mem.Array[obliv.Elem], ks, kscr *obliv.KeySchedule) {
	n := pl.n
	if a.Len() != n || scr.Len() != n {
		panic("core: Beneš apply length mismatch")
	}
	if a.Raw(c) != nil {
		bufs := [2]benesRaw{rawBenesBuf(c, a, ks), rawBenesBuf(c, scr, kscr)}
		pl.applyBlock(c, &bufs, 0, 0, n)
		return
	}
	k := obliv.Log2(n)
	cur, nxt := benesBuf{a, ks}, benesBuf{scr, kscr}
	for l := 0; l < k-1; l++ {
		// Cancellation checkpoint between network layers: the layer
		// boundary is a function of n alone, so an abort reveals only the
		// public layer index (never a partial-layer position).
		c.Check("benes.level")
		benesLayer(c, pl.layers[l], n>>(l+1), true, nxt, cur)
		cur, nxt = nxt, cur
	}
	// The middle layer of adjacent conditional swaps is a split layer at
	// half-block 1, whose halves are the pairs themselves: it runs in place.
	c.Check("benes.level")
	benesLayer(c, pl.layers[k-1], 1, true, cur, cur)
	for l := k - 2; l >= 0; l-- {
		c.Check("benes.level")
		benesLayer(c, pl.layers[2*k-2-l], n>>(l+1), false, nxt, cur)
		cur, nxt = nxt, cur
	}
	if cur.a != a {
		panic("core: Beneš apply did not return to the home buffer")
	}
}

// benesBuf is one side of the network's double buffer: the element array
// and its key schedule, indexed identically.
type benesBuf struct {
	a  *mem.Array[obliv.Elem]
	ks *obliv.KeySchedule
}

// benesLayer applies one layer of switches through the per-access path,
// reading src and writing dst (the same buffer for the in-place middle
// layer). Switch t of a layer at half-block h connects the adjacent pair
// (2t, 2t+1) with the positions (p, p+h), p = t + ⌊t/h⌋·h, of the two
// half-blocks: a split layer (split == true) reads the pair and writes the
// halves, a merge layer the reverse. A set switch crosses its two inputs.
// A leaf task walks its switches one at a time — element, then every key
// plane.
func benesLayer(c *forkjoin.Ctx, set []bool, h int, split bool, dst, src benesBuf) {
	w := src.ks.Width()
	forkjoin.ParallelRange(c, 0, len(set), benesApplyGrain, func(c *forkjoin.Ctx, from, to int) {
		for t := from; t < to; t++ {
			i0, i1, o0, o1 := switchPorts(t, h, split)
			c.Op(1)
			x, y := src.a.Get(c, i0), src.a.Get(c, i1)
			if set[t] {
				x, y = y, x
			}
			dst.a.Set(c, o0, x)
			dst.a.Set(c, o1, y)
			for p := 0; p < w; p++ {
				sp, dp := src.ks.Plane(p), dst.ks.Plane(p)
				kx, ky := sp.Get(c, i0), sp.Get(c, i1)
				if set[t] {
					kx, ky = ky, kx
				}
				dp.Set(c, o0, kx)
				dp.Set(c, o1, ky)
			}
		}
	})
}

// switchPorts returns the input and output positions of switch t.
func switchPorts(t, h int, split bool) (i0, i1, o0, o1 int) {
	p := t + t&^(h-1)
	if split {
		return 2 * t, 2*t + 1, p, p + h
	}
	return p, p + h, 2 * t, 2*t + 1
}

// benesRaw is one side of the double buffer seen through mem.Array.Raw: the
// element slice and the w key-plane slices.
type benesRaw struct {
	e []obliv.Elem
	k [obliv.MaxScheduleWidth][]uint64
	w int
}

func rawBenesBuf(c *forkjoin.Ctx, a *mem.Array[obliv.Elem], ks *obliv.KeySchedule) benesRaw {
	r := benesRaw{e: a.Raw(c), w: ks.Width()}
	for p := 0; p < r.w; p++ {
		r.k[p] = ks.Plane(p).Raw(c)
	}
	return r
}

// applyBlock runs the sub-network of recursion level l — Beneš(m) on block
// [off, off+m), m = n>>l — from bufs[l&1] back into bufs[l&1]. Layer d of
// the network is the split layer of level d for d < k−1, the middle layer
// for d = k−1 and the merge layer of level 2k−2−d beyond, and the block's
// switches in every layer are [off/2, (off+m)/2). Above benesLeaf the
// block is its split layer, its two half-size networks (forked: disjoint
// halves) and its merge layer; at or below it, layers l … 2k−2−l run one
// after another over the block. Level d reads bufs[d&1] and writes
// bufs[(d+1)&1] on the way down, the reverse on the way up.
//
// On the pool, split and merge layers fork their switches; a leaf's layers
// fork only when the leaf is the whole network — otherwise the forks above
// it already keep every worker busy.
func (pl *benesPlan) applyBlock(c *forkjoin.Ctx, bufs *[2]benesRaw, l, off, m int) {
	last := len(pl.layers) - 1 // layer 2k−2
	from, to := off/2, (off+m)/2
	if m <= benesLeaf {
		fork := c.ParallelMode() && m == pl.n
		for d := l; d <= last-l; d++ {
			c.Check("benes.level")
			pl.rawLayer(c, bufs, d, from, to, fork)
		}
		return
	}
	fork := c.ParallelMode()
	c.Check("benes.level")
	pl.rawLayer(c, bufs, l, from, to, fork)
	h := m / 2
	c.Fork(
		func(c *forkjoin.Ctx) { pl.applyBlock(c, bufs, l+1, off, h) },
		func(c *forkjoin.Ctx) { pl.applyBlock(c, bufs, l+1, off+h, h) },
	)
	c.Check("benes.level")
	pl.rawLayer(c, bufs, last-l, from, to, fork)
}

// rawLayer applies switches [from, to) of layer d with the raw kernel,
// forked at benesApplyGrain when fork is set, inline otherwise.
func (pl *benesPlan) rawLayer(c *forkjoin.Ctx, bufs *[2]benesRaw, d, from, to int, fork bool) {
	mid := len(pl.layers) / 2 // layer k−1
	set := pl.layers[d]
	var h int
	var split bool
	var dst, src *benesRaw
	switch {
	case d < mid:
		h, split, src, dst = pl.n>>(d+1), true, &bufs[d&1], &bufs[(d+1)&1]
	case d == mid:
		h, split, src, dst = 1, true, &bufs[d&1], &bufs[d&1]
	default:
		lv := len(pl.layers) - 1 - d
		h, split, src, dst = pl.n>>(lv+1), false, &bufs[(lv+1)&1], &bufs[lv&1]
	}
	if !fork {
		switchRange(dst, src, set, h, split, from, to)
		return
	}
	forkjoin.ParallelRange(c, from, to, benesApplyGrain, func(_ *forkjoin.Ctx, from, to int) {
		switchRange(dst, src, set, h, split, from, to)
	})
}

// switchMask widens a switch bit to an all-ones / all-zero select mask.
// The bool-to-integer conversion compiles to a zero-extending move, not a
// branch.
func switchMask(b bool) uint64 {
	var m uint64
	if b {
		m = 1
	}
	return -m
}

// switchRange applies switches [from, to) of one layer to the element
// slice and then to each key plane. Every switch is one masked-select pass:
// it loads both inputs, computes d = (x ^ y) & mask field by field, and
// stores x^d and y^d — so it touches the same addresses and executes the
// same instructions whichever way it is set, and runs in place when dst is
// src (the middle layer, whose outputs are its inputs).
func switchRange(dst, src *benesRaw, set []bool, h int, split bool, from, to int) {
	de, se := dst.e, src.e
	for t := from; t < to; t++ {
		i0, i1, o0, o1 := switchPorts(t, h, split)
		x, y := &se[i0], &se[i1]
		u, v := &de[o0], &de[o1]
		m := switchMask(set[t])
		d := (x.Key ^ y.Key) & m
		u.Key, v.Key = x.Key^d, y.Key^d
		d = (x.Key2 ^ y.Key2) & m
		u.Key2, v.Key2 = x.Key2^d, y.Key2^d
		d = (x.Val ^ y.Val) & m
		u.Val, v.Val = x.Val^d, y.Val^d
		d = (x.Aux ^ y.Aux) & m
		u.Aux, v.Aux = x.Aux^d, y.Aux^d
		d = (x.Lbl ^ y.Lbl) & m
		u.Lbl, v.Lbl = x.Lbl^d, y.Lbl^d
		dt := (x.Tag ^ y.Tag) & uint32(m)
		u.Tag, v.Tag = x.Tag^dt, y.Tag^dt
		dk := (x.Kind ^ y.Kind) & obliv.Kind(m)
		u.Kind, v.Kind = x.Kind^dk, y.Kind^dk
		dm := (x.Mark ^ y.Mark) & uint8(m)
		u.Mark, v.Mark = x.Mark^dm, y.Mark^dm
	}
	for p := 0; p < src.w; p++ {
		switchWords(dst.k[p], src.k[p], set, h, split, from, to)
	}
}

// switchWords applies switches [from, to) to one key plane.
func switchWords(dst, src []uint64, set []bool, h int, split bool, from, to int) {
	for t := from; t < to; t++ {
		i0, i1, o0, o1 := switchPorts(t, h, split)
		x, y := src[i0], src[i1]
		d := (x ^ y) & switchMask(set[t])
		dst[o0], dst[o1] = x^d, y^d
	}
}
