package obliv

import (
	"testing"

	"oblivmc/internal/prng"
)

// TestDivU64MatchesGo: the fixed-time division equals Go's / on the edge
// cases of the shift-subtract loop — a zero and a unit divisor, a dividend
// below the divisor, the largest dividend, divisors with the top bit set —
// and on random pairs of every bit length, and returns 0 for d = 0.
func TestDivU64MatchesGo(t *testing.T) {
	const top = ^uint64(0)
	pairs := [][2]uint64{
		{0, 1}, {1, 1}, {top, 1}, {5, 7}, {6, 7}, {7, 7}, {top, top}, {top - 1, top},
		{top, 1 << 63}, {top, 1<<63 + 1}, {1 << 63, 3}, {top, 2}, {top, 10}, {123456789, 1000},
	}
	src := prng.New(51)
	for i := 0; i < 4096; i++ {
		a := src.Uint64() >> src.Uint64n(64)
		d := src.Uint64() >> src.Uint64n(64)
		pairs = append(pairs, [2]uint64{a, d})
	}
	for _, p := range pairs {
		a, d := p[0], p[1]
		want := uint64(0)
		if d != 0 {
			want = a / d
		}
		if got := DivU64(a, d); got != want {
			t.Fatalf("DivU64(%d, %d) = %d, want %d", a, d, got, want)
		}
	}
	for _, a := range []uint64{0, 1, top} {
		if got := DivU64(a, 0); got != 0 {
			t.Fatalf("DivU64(%d, 0) = %d, want 0", a, got)
		}
	}
}
