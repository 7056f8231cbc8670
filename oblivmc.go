// Package oblivmc is a library of data-oblivious parallel algorithms for
// multicores in the binary fork-join model, reproducing "Data Oblivious
// Algorithms for Multicores" (Ramachandran & Shi, SPAA 2021).
//
// The primary primitive is oblivious sorting via oblivious random bin
// assignment (REC-ORBA) and the practical REC-SORT variant; on top of it
// the package offers an oblivious random shuffle, list ranking, Euler-tour
// tree computations, tree contraction (expression evaluation), connected
// components, minimum spanning forest, and an oblivious simulator for
// CRCW PRAM programs.
//
// Every algorithm runs under one of two executors selected by Config.Mode:
//
//   - ModeParallel executes on a work-stealing pool (real multicore);
//   - ModeMetered executes sequentially while measuring the exact work,
//     span (critical-path length), ideal-cache misses and the
//     access-pattern fingerprint that constitutes the adversary's view —
//     the quantities in which all of the paper's bounds are stated.
//
// Obliviousness guarantee: with a fixed Seed, the access pattern of every
// *Oblivious* operation is a deterministic function of the input length
// (never of the input contents); randomized components draw their coins
// from pre-generated tapes derived from Seed. Seed needs no secrecy for
// that guarantee — the trace never depends on the data at any seed. One
// refinement applies to the relational layer's shuffle-then-sort backend
// (SortShuffle, and SortAuto above its crossover): per Theorem 3.2 its
// insecure sorting stage has an access pattern that is input-independent
// in *distribution* over a secret permutation — which is why that backend
// draws its permutations from fresh crypto/rand-keyed ChaCha8 streams,
// independent of Seed (its traces then differ between runs). That backend
// is oblivious only under an assumption the traced model does not check:
// its Θ(n) words of permutation scratch must be private. The Fisher–Yates
// draw of the permutation and the Beneš routing that realizes it (the
// inverse permutation and the switch colouring) run in plain Go slices at
// addresses chosen by the coins, outside the instrumented memory. An
// adversary who observes those accesses (a shared cache, page-table or
// branch side channel) learns the permutation, and the insecure stage's
// trace then reveals the input's key order under it. Where that scratch
// cannot be kept private, use SortBitonic.
// Config.DeterministicShuffle re-pins those permutations to
// Seed for reproducible traces (tests, benchmarks); doing so keeps the
// guarantee only while the seed value is secret, uniformly random, and
// fresh per run. SortBitonic retains the strict per-seed determinism
// everywhere, with no secrecy requirement and no private-scratch
// assumption at all.
package oblivmc

import (
	"errors"

	"oblivmc/internal/core"
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/trace"
)

// Mode selects the executor.
type Mode int

const (
	// ModeParallel runs on the work-stealing pool (default).
	ModeParallel Mode = iota
	// ModeMetered runs sequentially with exact instrumentation.
	ModeMetered
	// ModeSerial runs sequentially without instrumentation (tests,
	// debugging).
	ModeSerial
)

// SortBackend selects the sorting machinery the relational layer (Table,
// Query, GroupTotals) runs its schedule-driven sorts through. The choice —
// like the crossover threshold — is public query shape: backend selection
// is a function of the array length alone, never of the data. The PRAM
// layer's sorts — every pram gather's request sort, recorded once and
// un-sorted by replaying its swap record, and every scatter's (address,
// priority) sort, both over word planes with no element — run the
// cache-agnostic bitonic network on every backend, at every size; the
// graph operators issue them for every gather and scatter.
type SortBackend int

const (
	// SortAuto (the default) picks per sort by the public size crossover:
	// keyed bitonic networks below the threshold, the shuffle-then-sort
	// composition (Theorem 3.2: oblivious random permutation, then an
	// insecure sample sort) at or above it, where its O(n log n) work
	// overtakes the networks' O(n log² n). Above the crossover it carries
	// SortShuffle's private-scratch assumption. PRAM sorts (the graph
	// operators' gathers and scatters) run the network at every size.
	SortAuto SortBackend = iota
	// SortBitonic forces the keyed bitonic networks at every size. Its
	// trace is a deterministic function of the public shape alone — the
	// strongest (per-seed) obliviousness guarantee in the module.
	SortBitonic
	// SortShuffle forces the shuffle-then-sort composition at every
	// power-of-two size. Its permutation stage's trace is a fixed function
	// of the length; the insecure stage's trace is input-independent *in
	// distribution* over the secret permutation (the Theorem 3.2
	// guarantee), which is drawn from crypto/rand unless
	// Config.DeterministicShuffle pins it to Seed. The guarantee holds only
	// if the permutation stage's Θ(n) words of coin-addressed scratch (the
	// Fisher–Yates draw and the Beneš routing, plain Go slices outside the
	// traced memory) are private; see the package doc. SortBitonic needs no
	// such assumption. PRAM sorts (the graph operators' gathers and
	// scatters) never take this path: they run the network on every
	// backend.
	SortShuffle
)

// Config controls execution.
type Config struct {
	// Mode selects the executor (default ModeParallel).
	Mode Mode
	// Workers is the pool size in ModeParallel (default GOMAXPROCS).
	Workers int
	// CacheM, CacheB enable ideal-cache simulation in ModeMetered
	// (cache size and block size, in elements).
	CacheM, CacheB int
	// Trace enables access-pattern recording in ModeMetered.
	Trace bool
	// Seed drives the reproducible algorithm randomness (tapes, pivots,
	// labels). It needs no secrecy: at every seed the trace of an
	// *Oblivious* operation is a function of the input length alone. The
	// shuffle backend's permutations are deliberately NOT derived from it
	// (see DeterministicShuffle).
	Seed uint64
	// SortBackend selects the relational sort backend (default SortAuto).
	SortBackend SortBackend
	// DeterministicShuffle derives the shuffle backend's permutations and
	// tie words from Seed (plus a per-run sort counter) instead of the
	// default fresh crypto/rand secret per sort. This makes the shuffle
	// backend's traces replay across runs — what the trace-fingerprint
	// tests and benchmarks need — but narrows its Theorem 3.2 guarantee:
	// the trace of the composition's insecure stage is input-independent
	// only over a secret, uniformly random, per-run-fresh seed, so a
	// fixed or public Seed lets a trace observer recover the sorted key
	// order. Leave it off outside tests and benchmarks; it has no effect
	// on SortBitonic or on the non-relational operations.
	DeterministicShuffle bool
}

// graphParams are the paper's default parameters with e's sorter attached
// — what the tree kernels run under: their ORP's bin sorts take the
// session's one sorter, throwaway or not (every other graph sort is a
// word-plane sort on the bitonic network).
func (e exec) graphParams() core.Params { return core.Params{Sorter: e.srt} }

// Report carries the metrics of a metered run; nil in other modes.
type Report struct {
	// Work is the total operation count.
	Work int64
	// Span is the critical-path length of the computation DAG.
	Span int64
	// MemOps, Reads, Writes count instrumented memory operations.
	MemOps, Reads, Writes int64
	// Forks counts binary forks.
	Forks int64
	// CacheMisses / CacheAccesses are ideal-cache statistics (when
	// enabled).
	CacheMisses, CacheAccesses int64
	// TraceFingerprint summarizes the adversary's view (when enabled).
	TraceFingerprint trace.Fingerprint
}

func reportOf(m *forkjoin.Metrics) *Report {
	if m == nil {
		return nil
	}
	return &Report{
		Work: m.Work, Span: m.Span,
		MemOps: m.MemOps, Reads: m.Reads, Writes: m.Writes,
		Forks:       m.Forks,
		CacheMisses: m.CacheMisses, CacheAccesses: m.CacheAccesses,
		TraceFingerprint: m.Trace,
	}
}

// run executes fn once in a throwaway Session's environment (oneShot), the
// form of every package-level call that is not a query or a graph run; fn
// reads the run's sorter from e. A panic out of the computation
// surfaces as *PanicError (ErrInternal).
func run(cfg Config, fn func(e exec, c *forkjoin.Ctx, sp *mem.Space)) (*Report, error) {
	e, done := oneShot(cfg)
	defer done()
	return e.run(func(c *forkjoin.Ctx, sp *mem.Space) { fn(e, c, sp) })
}

// ErrEmptyInput is returned for empty inputs where a result is undefined.
var ErrEmptyInput = errors.New("oblivmc: empty input")
