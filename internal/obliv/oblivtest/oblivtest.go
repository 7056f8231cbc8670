// Package oblivtest is the reusable obliviousness property-test harness.
//
// The module-wide testing strategy (README, "Testing and benchmarks") is to run a data-oblivious
// computation on different inputs of the same public shape under the metered
// executor and assert the adversary's views — the trace fingerprints — are
// identical: a divergence means secret contents leak through the access
// pattern. That machinery used to be copy-pasted per test file; this package
// gives every operator, present and future, the same checks in a few lines:
//
//	oblivtest.FingerprintEqual(t, "JoinAll", runA, runB, runC)
//	oblivtest.Different(t, "shape sensitivity", small, large)
//	oblivtest.Lockstep(t, "GroupBy", 6, 3, 42, func(c, sp, shape, content) { ... })
//
// Bodies run under forkjoin.RunMetered with tracing enabled and a fresh
// mem.Space, exactly like the operators run in production metered mode.
//
// SameOnEveryExecutor is the other half of the contract: the metered
// per-access path is the specification, the serial and pool executors run
// raw block kernels behind mem.Array.Raw, and the two must leave the same
// bytes.
package oblivtest

import (
	"reflect"
	"testing"

	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
	"oblivmc/internal/prng"
	"oblivmc/internal/trace"
)

// Body is one metered computation under test.
type Body func(c *forkjoin.Ctx, sp *mem.Space)

// Metered runs body under the metered executor with tracing enabled and
// returns its metrics (trace fingerprint included).
func Metered(body Body) *forkjoin.Metrics {
	sp := mem.NewSpace()
	return forkjoin.RunMetered(forkjoin.MeterOpts{EnableTrace: true}, func(c *forkjoin.Ctx) {
		body(c, sp)
	})
}

// Fingerprint runs body metered and returns the adversary's view of it.
func Fingerprint(body Body) trace.Fingerprint {
	return Metered(body).Trace
}

// FingerprintEqual runs every body and fails t unless all views equal the
// first — the core obliviousness assertion: bodies must differ only in
// secret contents, never in public shape.
func FingerprintEqual(t testing.TB, label string, bodies ...Body) {
	t.Helper()
	if len(bodies) < 2 {
		t.Fatalf("%s: FingerprintEqual needs at least two bodies", label)
	}
	ref := Fingerprint(bodies[0])
	for i, body := range bodies[1:] {
		if got := Fingerprint(body); !got.Equal(ref) {
			t.Fatalf("%s: trace of body %d differs from body 0 (%016x/%d vs %016x/%d) — contents leak through the access pattern",
				label, i+1, got.Hash, got.Count, ref.Hash, ref.Count)
		}
	}
}

// Equal fails t unless every pre-computed fingerprint equals the first.
// Layers that obtain views through their own runners (e.g. the public
// Report of a metered query) assert with this instead of FingerprintEqual.
func Equal(t testing.TB, label string, fps ...trace.Fingerprint) {
	t.Helper()
	if len(fps) < 2 {
		t.Fatalf("%s: Equal needs at least two fingerprints", label)
	}
	for i, fp := range fps[1:] {
		if !fp.Equal(fps[0]) {
			t.Fatalf("%s: fingerprint %d differs from fingerprint 0 (%016x/%d vs %016x/%d) — contents leak through the access pattern",
				label, i+1, fp.Hash, fp.Count, fps[0].Hash, fps[0].Count)
		}
	}
}

// Different runs both bodies and fails t if their views coincide — the
// sanity inverse guarding against a fingerprint that stopped observing the
// computation: a *different public shape* must change the view.
func Different(t testing.TB, label string, a, b Body) {
	t.Helper()
	if Fingerprint(a).Equal(Fingerprint(b)) {
		t.Fatalf("%s: traces of different shapes coincide — the fingerprint is not observing the computation", label)
	}
}

// Lockstep is the shape-randomized lockstep runner. For each of rounds
// rounds it derives a fresh public shape and runs the body once per content
// variant: within a round every variant receives an identical `shape`
// source (same seed, so all shape draws — sizes, widths, capacities — agree
// in lockstep) but a distinct `content` source for the secret record
// contents. All views within a round must agree; across rounds the shape —
// and hence the view — is free to vary. This catches leaks that a few
// hand-picked shapes miss, at the cost of rounds×variants metered runs.
func Lockstep(
	t testing.TB, label string, rounds, variants int, seed uint64,
	run func(c *forkjoin.Ctx, sp *mem.Space, shape, content *prng.Source),
) {
	t.Helper()
	if rounds < 1 || variants < 2 {
		t.Fatalf("%s: Lockstep needs >= 1 round of >= 2 variants", label)
	}
	for r := 0; r < rounds; r++ {
		shapeSeed := prng.Mix64(seed + uint64(r))
		var ref trace.Fingerprint
		for v := 0; v < variants; v++ {
			contentSeed := prng.Mix64(shapeSeed ^ (uint64(v+1) * 0x9e3779b97f4a7c15))
			fp := Fingerprint(func(c *forkjoin.Ctx, sp *mem.Space) {
				run(c, sp, prng.New(shapeSeed), prng.New(contentSeed))
			})
			if v == 0 {
				ref = fp
				continue
			}
			if !fp.Equal(ref) {
				t.Fatalf("%s: round %d: variant %d's trace differs from variant 0 (%016x/%d vs %016x/%d) — contents leak through the access pattern",
					label, r, v, fp.Hash, fp.Count, ref.Hash, ref.Count)
			}
		}
	}
}

// SameOnEveryExecutor is the differential check of the raw block kernels.
// run builds its input from scratch in sp, executes the code under test
// under c and returns a snapshot of every array the code may have written
// (copies of the element arrays and key planes, not the arrays themselves).
// It is called three times — under the metered executor, whose Get/Set path
// is the specification; on the serial executor and on a 2-worker pool, which
// both run the raw kernels, the pool with real concurrency for -race — and
// the three snapshots must be deeply equal.
func SameOnEveryExecutor[S any](t testing.TB, label string, run func(c *forkjoin.Ctx, sp *mem.Space) S) {
	t.Helper()
	var spec, serial, pooled S
	forkjoin.RunMetered(forkjoin.MeterOpts{}, func(c *forkjoin.Ctx) { spec = run(c, mem.NewSpace()) })
	serial = run(forkjoin.Serial(), mem.NewSpace())
	forkjoin.RunParallel(2, func(c *forkjoin.Ctx) { pooled = run(c, mem.NewSpace()) })
	if !reflect.DeepEqual(serial, spec) {
		t.Fatalf("%s: the serial executor's raw kernels disagree with the metered per-access path", label)
	}
	if !reflect.DeepEqual(pooled, spec) {
		t.Fatalf("%s: the pool executor's raw kernels disagree with the metered per-access path", label)
	}
}
