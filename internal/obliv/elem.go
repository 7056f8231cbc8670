// Package obliv provides the data-oblivious building blocks of the paper:
// oblivious compare-exchange, parallel prefix/segmented scans, aggregation
// and propagation in sorted arrays (§F, Table 2), oblivious bin placement
// (§C.1), and send-receive a.k.a. oblivious routing (§F).
//
// All primitives have access patterns that depend only on the input length
// (and, for randomized callers, on the pre-drawn random tape) — never on
// the data. The test suite verifies this by trace-fingerprint equality.
package obliv

import (
	"oblivmc/internal/forkjoin"
	"oblivmc/internal/mem"
)

// Kind classifies an element. The zero value is Filler so that freshly
// allocated arrays consist of fillers.
type Kind uint8

const (
	// Filler is padding (the paper's ⊥ / dummy elements).
	Filler Kind = iota
	// Real is a live element.
	Real
	// Temp is a placeholder used internally by bin placement (§C.1).
	Temp
)

// Elem is the record moved by every oblivious primitive. Interpretation of
// the fields varies by phase and is documented at each call site; broadly:
//
//	Key  — caller's sort key (preserved by ORBA/ORP)
//	Key2 — second key column of wide-key records (relational layer)
//	Val  — payload value
//	Aux  — secondary payload (typically an original index)
//	Lbl  — random routing label (ORBA bin choice, shuffle key)
//	Tag  — small group / role identifier
//	Kind — Filler / Real / Temp
//	Mark — scratch flag written by primitives (e.g. "excess" in §C.1)
//
// One Elem occupies one address in the instrumented memory model.
type Elem struct {
	Key  uint64
	Key2 uint64
	Val  uint64
	Aux  uint64
	Lbl  uint64
	Tag  uint32
	Kind Kind
	Mark uint8
}

// InfKey sorts after every valid key: key functions map fillers to it, so
// valid keys must be < InfKey.
const InfKey = ^uint64(0)

// MaxKey bounds caller-supplied keys where a primitive packs them with
// headroom: DistributeOrdered's slot keys (two class bits, so outLen <
// MaxKey/2) and the paper Sort / Shuffle inputs.
// Send-receive and conflict resolution sort on the bare key (ties break by
// TiePos in registers) and take any key below InfKey.
const MaxKey = uint64(1) << 62

// NextPow2 returns the smallest power of two >= n (n >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Log2 returns floor(log2(n)) for n >= 1.
func Log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Log2Ceil returns ceil(log2(n)), 0 for n <= 1.
func Log2Ceil(n int) int { return Log2(NextPow2(n)) }

// SelectionNetwork is an O(n²)-comparator oblivious sorter (a brute-force
// network of all pairs). It handles any n and exists as a tiny, obviously
// correct reference implementation for tests and micro-baselines.
type SelectionNetwork struct{}

// Name implements ScheduledSorter.
func (SelectionNetwork) Name() string { return "selection-network" }

// Sort implements ScheduledSorter.
func (s SelectionNetwork) Sort(c *forkjoin.Ctx, sp *mem.Space, a *mem.Array[Elem], lo, n int, key func(Elem) uint64) {
	SortKeyed(c, sp, a.View(lo, n), n, key, s)
}
