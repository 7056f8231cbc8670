// Package trace records the adversary's view of an execution as defined in
// §B of the paper: the sequence of memory addresses accessed, each tagged
// read or write, plus the fork-join structure of the computation DAG.
//
// A Recorder streams the view into a 64-bit FNV-1a fingerprint (plus a
// count), optionally retaining a bounded prefix of raw events for
// diagnostics. Two executions have the same view iff their fingerprints
// and counts agree (up to hash collisions, negligible for test purposes).
//
// Obliviousness testing strategy (README, "Testing and benchmarks"): the library draws all
// coins from pre-generated tapes, so for a data-oblivious algorithm the
// view is a deterministic function of (input length, tape). The test suite
// runs each algorithm on different inputs of the same length with the same
// tape and asserts fingerprint equality; separate statistical tests check
// that tape-dependent choices (bin loads, ORAM leaves) have the
// input-independent distributions the simulators in the paper rely on.
package trace

import "math"

// Kind labels a recorded event.
type Kind uint8

const (
	// Read is a memory load.
	Read Kind = iota
	// Write is a memory store.
	Write
	// ForkEvent marks a binary fork in the computation DAG.
	ForkEvent
	// JoinEvent marks the corresponding join.
	JoinEvent
	// Mark is an application-defined annotation (phase boundaries etc.).
	Mark
)

// Event is one element of the adversary's view.
type Event struct {
	Kind Kind
	Addr uint64
}

// Recorder accumulates a fingerprint of the view.
type Recorder struct {
	hash   uint64
	count  int64
	prefix []Event
	keep   int
}

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

// NewRecorder returns a Recorder that retains up to keepPrefix raw events
// (0 retains none).
func NewRecorder(keepPrefix int) *Recorder {
	r := &Recorder{hash: fnvOffset, keep: keepPrefix}
	if keepPrefix > 0 {
		r.prefix = make([]Event, 0, keepPrefix)
	}
	return r
}

// Record appends one event to the view.
func (r *Recorder) Record(kind Kind, addr uint64) {
	h := r.hash
	h ^= uint64(kind)
	h *= fnvPrime
	// Mix the address byte by byte (FNV-1a over the 8 little-endian bytes).
	for i := 0; i < 8; i++ {
		h ^= (addr >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	r.hash = h
	r.count++
	if len(r.prefix) < r.keep {
		r.prefix = append(r.prefix, Event{Kind: kind, Addr: addr})
	}
}

// Fingerprint summarizes a view.
type Fingerprint struct {
	Hash  uint64
	Count int64
}

// Fingerprint returns the current fingerprint.
func (r *Recorder) Fingerprint() Fingerprint {
	return Fingerprint{Hash: r.hash, Count: r.count}
}

// Count returns the number of events recorded.
func (r *Recorder) Count() int64 { return r.count }

// Prefix returns the retained raw-event prefix.
func (r *Recorder) Prefix() []Event { return r.prefix }

// Equal reports whether two fingerprints are identical.
func (f Fingerprint) Equal(g Fingerprint) bool {
	return f.Hash == g.Hash && f.Count == g.Count
}

// FirstDivergence compares two retained prefixes and returns the index of
// the first differing event, or -1 if the shared prefix is identical.
// Useful when an obliviousness test fails and we want to localize the leak.
func FirstDivergence(a, b []Event) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// ---------------------------------------------------------------------------
// Distribution checks for tape-dependent randomness.
// ---------------------------------------------------------------------------

// ChiSquareUniform computes the chi-square statistic of observed counts
// against the uniform distribution over len(counts) categories, and returns
// (statistic, degreesOfFreedom). Callers compare against a critical value;
// the helper CriticalValue999 gives a loose p≈0.001 threshold so tests are
// robust to noise.
func ChiSquareUniform(counts []int64) (stat float64, dof int) {
	k := len(counts)
	if k < 2 {
		return 0, 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, k - 1
	}
	expected := float64(total) / float64(k)
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat, k - 1
}

// CriticalValue999 returns an upper bound for the chi-square critical value
// at significance 0.001 using the Wilson–Hilferty approximation. Tests that
// compare a statistic against this bound fail with probability ~0.1% under
// the null hypothesis.
func CriticalValue999(dof int) float64 {
	if dof <= 0 {
		return 0
	}
	k := float64(dof)
	// Wilson–Hilferty: X ~ k(1 - 2/(9k) + z*sqrt(2/(9k)))^3, z_{0.999} ≈ 3.0902.
	z := 3.0902
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * t * t * t
}
