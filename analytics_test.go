package oblivmc

import (
	"testing"

	"oblivmc/internal/prng"
)

func TestGroupTotals(t *testing.T) {
	groups := []uint64{2, 1, 2, 3, 1, 2}
	values := []uint64{10, 5, 20, 7, 3, 30}
	got, _, err := GroupTotals(Config{Mode: ModeSerial}, groups, values)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{60, 8, 60, 7, 8, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestGroupTotalsRandomVsRef(t *testing.T) {
	src := prng.New(3)
	const n = 300
	groups := make([]uint64, n)
	values := make([]uint64, n)
	ref := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		groups[i] = src.Uint64n(20)
		values[i] = src.Uint64n(1000)
		ref[groups[i]] += values[i]
	}
	got, _, err := GroupTotals(Config{Mode: ModeSerial}, groups, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != ref[groups[i]] {
			t.Fatalf("record %d: got %d, want %d", i, got[i], ref[groups[i]])
		}
	}
}

func TestGroupTotalsOblivious(t *testing.T) {
	// Different group structures, same size → same access pattern.
	mk := func(seed uint64) ([]uint64, []uint64) {
		src := prng.New(seed)
		g := make([]uint64, 64)
		v := make([]uint64, 64)
		for i := range g {
			g[i] = src.Uint64n(8)
			v[i] = src.Uint64n(100)
		}
		return g, v
	}
	g1, v1 := mk(1)
	g2, v2 := mk(2)
	_, r1, _ := GroupTotals(Config{Mode: ModeMetered, Trace: true}, g1, v1)
	_, r2, _ := GroupTotals(Config{Mode: ModeMetered, Trace: true}, g2, v2)
	if !r1.TraceFingerprint.Equal(r2.TraceFingerprint) {
		t.Fatal("group-by access pattern depends on the data")
	}
}

func TestGroupTotalsValidation(t *testing.T) {
	if _, _, err := GroupTotals(Config{}, nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, _, err := GroupTotals(Config{}, []uint64{1}, []uint64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// The old 2^40 packed-key ceiling is lifted: any key below the filler
	// sentinel is legal.
	if _, _, err := GroupTotals(Config{Mode: ModeSerial}, []uint64{1 << 41, ^uint64(0) - 1}, []uint64{1, 2}); err != nil {
		t.Fatalf("full-range group key rejected: %v", err)
	}
	if _, _, err := GroupTotals(Config{}, []uint64{^uint64(0)}, []uint64{1}); err == nil {
		t.Fatal("sentinel group key accepted")
	}
}

func TestLookup(t *testing.T) {
	keys := []uint64{10, 20, 30}
	vals := []uint64{100, 200, 300}
	queries := []uint64{20, 99, 10, 20}
	got, found, _, err := Lookup(Config{Mode: ModeSerial}, keys, vals, queries)
	if err != nil {
		t.Fatal(err)
	}
	wantV := []uint64{200, 0, 100, 200}
	wantF := []bool{true, false, true, true}
	for i := range wantV {
		if found[i] != wantF[i] {
			t.Fatalf("found[%d] = %v", i, found[i])
		}
		if found[i] && got[i] != wantV[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], wantV[i])
		}
	}
}

// TestLookupRejectsDuplicateTableKeys: table keys must be distinct, and
// Lookup refuses a duplicate like Join does instead of answering with one
// of its values.
func TestLookupRejectsDuplicateTableKeys(t *testing.T) {
	if _, _, _, err := Lookup(Config{Mode: ModeSerial}, []uint64{1, 1}, []uint64{1, 2}, []uint64{1}); err == nil {
		t.Fatal("duplicate table keys accepted")
	}
}

func TestLookupOblivious(t *testing.T) {
	mk := func(seed uint64) ([]uint64, []uint64, []uint64) {
		src := prng.New(seed)
		keys := make([]uint64, 32)
		vals := make([]uint64, 32)
		qs := make([]uint64, 16)
		for i := range keys {
			keys[i] = uint64(i)*100 + src.Uint64n(50)
			vals[i] = src.Uint64()
		}
		for i := range qs {
			qs[i] = src.Uint64n(3200)
		}
		return keys, vals, qs
	}
	k1, v1, q1 := mk(1)
	k2, v2, q2 := mk(2)
	_, _, r1, _ := Lookup(Config{Mode: ModeMetered, Trace: true}, k1, v1, q1)
	_, _, r2, _ := Lookup(Config{Mode: ModeMetered, Trace: true}, k2, v2, q2)
	if !r1.TraceFingerprint.Equal(r2.TraceFingerprint) {
		t.Fatal("lookup access pattern depends on the data")
	}
}
