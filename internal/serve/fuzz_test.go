package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"oblivmc"
)

// typedSpecErr reports whether err is an outcome a served spec may
// legitimately fail with: a bad spec, a missing table, or one of the typed
// oblivmc argument errors — never an untyped or internal one.
func typedSpecErr(err error) bool {
	for _, want := range []error{
		ErrBadSpec, ErrNoSuchTable,
		oblivmc.ErrEmptyInput, oblivmc.ErrBadWidth, oblivmc.ErrKeyTooLarge, oblivmc.ErrTooManyRows,
		oblivmc.ErrBadCapacity, oblivmc.ErrJoinOverflow, oblivmc.ErrCapTooLarge,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// fuzzRegistry is the fixed registry the spec fuzzer compiles against: a
// width-1 table, a width-2 table and an edge table.
func fuzzRegistry(f *testing.F) *Registry {
	reg := NewRegistry()
	narrow, err := oblivmc.NewWideTable(testRows(24, 6, 1))
	if err != nil {
		f.Fatal(err)
	}
	wideRows := make([]oblivmc.WideRow, 20)
	for i := range wideRows {
		wideRows[i] = oblivmc.WideRow{Keys: []uint64{uint64(i % 4), uint64(i % 3)}, Val: uint64(i * 7 % 11)}
	}
	wide, err := oblivmc.NewWideTable(wideRows)
	if err != nil {
		f.Fatal(err)
	}
	edges, err := oblivmc.NewEdgeTable([]oblivmc.WeightedEdge{
		{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 3}, {U: 3, V: 4, W: 2},
		{U: 4, V: 5, W: 2}, {U: 5, V: 5, W: 9}, {U: 6, V: 3, W: 5}, {U: 2, V: 6, W: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	for name, tab := range map[string]oblivmc.Table{"narrow": narrow, "wide": wide, "edges": edges} {
		if _, err := reg.Load(name, tab, false); err != nil {
			f.Fatal(err)
		}
	}
	return reg
}

// FuzzServeSpec feeds raw request bodies through the handler's strict
// decode and compile: neither may panic and every failure must be typed.
// Each input is a spec plus a patch — JSON fields decoded over a copy of
// the spec, the same strict way — so the two specs mostly agree, and
// whenever they compile to the same cache key their rows must be identical:
// the result cache's safety property. The seed patches touch every keyed
// field, so a canonicaliser that drops one fails on the seed corpus alone.
// Runs are bounded: a spec whose public shape asks for unbounded work (many
// rounds, a huge join capacity) is compiled but not run.
func FuzzServeSpec(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"table":"narrow","group_by":"sum"}`, `{"as":"x"}`},
		{`{"table":"narrow","group_by":"sum"}`, `{"key_order_out":true}`},
		{`{"table":"narrow","group_by":"sum"}`, `{"group_by":"max"}`},
		{`{"table":"wide","group_by":"count"}`, `{"distinct":true}`},
		{`{"table":"wide","distinct":true,"top_k":3}`, `{"top_k":4}`},
		{`{"table":"wide","filter":{"col":0,"op":"eq","value":1}}`, `{"filter":{"value":2}}`},
		{`{"table":"wide","filter":{"col":0,"op":"eq","value":1}}`, `{"filter":{"op":"ne"}}`},
		{`{"table":"wide","filter":{"col":0,"op":"lt","value":2}}`, `{"filter":{"col":1}}`},
		{`{"table":"narrow","filter":{"col":-1,"op":"ge","value":500},"group_by":"avg"}`, `{"table":"wide"}`},
		{`{"table":"narrow","join":{"table":"narrow","max_out":4096},"group_by":"count"}`, `{"join":{"max_out":8}}`},
		{`{"table":"narrow","join":{"table":"narrow","join_cap":"auto"}}`, `{"join":{"join_cap":"","max_out":-1}}`},
		{`{"table":"wide","join":{"table":"wide","max_out":64}}`, `{"join":{"table":"narrow"}}`},
		{`{"table":"edges","graph":"msf","graph_rounds":3}`, `{"graph_rounds":0}`},
		{`{"table":"edges","graph":"pagerank"}`, `{"graph_rounds":5}`},
		{`{"table":"edges","graph":"pagerank","graph_rounds":2}`, `{"graph_rounds":3}`},
		{`{"table":"edges","graph":"cc","graph_rounds":2}`, `{"graph":"msf"}`},
		{`{"table":"edges","graph":"cc"}`, `{"table":"narrow"}`},
		{`{"table":"missing"}`, `{"table":"narrow","bogus":1}`},
		{`{"table":"edges","graph":"cc","group_by":"sum"}`, `{"graph":""}`},
		{`{"table":"wide","top_k":-1}`, `{"top_k":0}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	reg := fuzzRegistry(f)
	sess := oblivmc.NewSession(oblivmc.Config{Mode: oblivmc.ModeSerial})
	f.Cleanup(sess.Close)

	type outcome struct {
		key  string
		rows []oblivmc.WideRow
		ord  oblivmc.TableOrder
		err  error
	}
	try := func(t *testing.T, spec QuerySpec) (outcome, bool) {
		c, err := compile(spec, reg)
		if err == nil {
			_, err = c.explain()
		}
		if err != nil {
			if !typedSpecErr(err) {
				t.Fatalf("spec %+v: untyped error %v", spec, err)
			}
			return outcome{}, false
		}
		if spec.GraphRounds > 8 || (spec.Join != nil && spec.Join.MaxOut > 1<<12) {
			return outcome{}, false
		}
		out, _, err := c.run(context.Background(), sess)
		if err != nil && !typedSpecErr(err) {
			t.Fatalf("spec %+v: untyped run error %v", spec, err)
		}
		return outcome{key: c.key, rows: out.WideRows(), ord: out.Order(), err: err}, true
	}
	f.Fuzz(func(t *testing.T, raw, patch []byte) {
		a, err := decodeSpec(bytes.NewReader(raw))
		if err != nil {
			if !typedSpecErr(err) {
				t.Fatalf("body %q: untyped decode error %v", raw, err)
			}
			return
		}
		// b is a deep copy of a (through the same decode) with the patch on top.
		enc, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := decodeSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		dec := json.NewDecoder(bytes.NewReader(patch))
		dec.DisallowUnknownFields()
		patched := dec.Decode(&b) == nil
		oa, okA := try(t, a)
		if !patched {
			return
		}
		ob, okB := try(t, b)
		if !okA || !okB || oa.key != ob.key {
			return
		}
		if (oa.err == nil) != (ob.err == nil) || !reflect.DeepEqual(oa.rows, ob.rows) || oa.ord != ob.ord {
			t.Fatalf("specs %+v and %+v share cache key %q but differ: %+v vs %+v", a, b, oa.key, oa, ob)
		}
	})
}
