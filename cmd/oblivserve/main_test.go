package main

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"oblivmc/client"
)

func TestSpecFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want client.Spec
		err  string
	}{
		{
			name: "value filter",
			args: []string{"-table", "t", "-filter", "val ge 100", "-agg", "count"},
			want: client.Spec{Table: "t", GroupBy: "count", Filter: &client.Filter{Col: -1, Op: "ge", Value: 100}},
		},
		{
			name: "key filter",
			args: []string{"-table", "t", "-filter", "0 lt 5"},
			want: client.Spec{Table: "t", Filter: &client.Filter{Col: 0, Op: "lt", Value: 5}},
		},
		{
			name: "join capacity",
			args: []string{"-table", "t", "-join", "dims", "-joincap", "8192"},
			want: client.Spec{Table: "t", Join: &client.Join{Table: "dims", MaxOut: 8192}},
		},
		{
			name: "join auto",
			args: []string{"-table", "t", "-join", "dims", "-joincap", "auto"},
			want: client.Spec{Table: "t", Join: &client.Join{Table: "dims", JoinCap: "auto"}},
		},
		{
			name: "graph",
			args: []string{"-table", "g", "-graph", "cc", "-rounds", "4"},
			want: client.Spec{Table: "g", Graph: "cc", GraphRounds: 4},
		},
		{name: "bad joincap", args: []string{"-table", "t", "-join", "dims", "-joincap", "lots"}, err: `flag -joincap: want a row count or "auto"`},
		{name: "joincap required", args: []string{"-table", "t", "-join", "dims"}, err: "-joincap is required with -join"},
		{name: "joincap without join", args: []string{"-table", "t", "-joincap", "auto"}, err: "only with it"},
		{name: "bad filter", args: []string{"-table", "t", "-filter", "val ge"}, err: `flag -filter: want "col op value"`},
		{name: "bad filter column", args: []string{"-table", "t", "-filter", "v ge 1"}, err: "col is a key index or 'val'"},
		{name: "no table", args: []string{"-agg", "sum"}, err: "-table is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			build := specFlags(fs, "")
			err := fs.Parse(tc.args)
			var got client.Spec
			if err == nil {
				got, err = build()
			}
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("spec = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// run invokes the local runner and returns its stdout.
func run(t *testing.T, stdin string, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := invoke("run", args, strings.NewReader(stdin), &out, &errOut); err != nil {
		t.Fatalf("run %v: %v (stderr %q)", args, err, errOut.String())
	}
	return out.String()
}

// TestRunMeteredPin pins the local runner's plan and metered profile for
// Filter(val ge 100) → GroupBy(count) over 4096 width-1 rows. The view is
// a function of the public shape only, so a second seed reproduces it.
func TestRunMeteredPin(t *testing.T) {
	for _, seed := range []string{"1", "9"} {
		out := run(t, "", "-rows", "4096", "-seed", seed, "-filter", "val ge 100", "-agg", "count", "-metered", "-show", "0")
		for _, want := range []string{
			"plan: filter-mark → sort(key,pos) → aggregate → compact(pos) [2 sorts, staged 3]\n",
			"work=11561206 span=7508 parallelism=1540x memops=6995962 cache-misses=11467\n",
			"adversary's view: 996ce9d79b0f7153/11200762\n",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("seed %s: output lacks %q:\n%s", seed, want, out)
			}
		}
	}
}

func TestRunStdinGraph(t *testing.T) {
	out := run(t, "0 1 5\n1 2 5\n3 4 1\n", "-stdin", "-graph", "cc")
	if !strings.HasPrefix(out, "plan: cc-minhook(n=5, m=3)") {
		t.Fatalf("plan line: %s", out)
	}
	if !strings.HasSuffix(out, "  0  0\n  1  0\n  2  0\n  3  3\n  4  3\n") {
		t.Fatalf("labels are not 0 0 0 3 3:\n%s", out)
	}
}

// TestRunJoinCapAuto: an auto-capacity join sizes itself from its own key
// sort, so the executed sorts equal the plan's.
func TestRunJoinCapAuto(t *testing.T) {
	out := run(t, "", "-rows", "512", "-join", "dims", "-join-rows", "64", "-joincap", "auto", "-agg", "count", "-show", "0")
	planned := regexp.MustCompile(`\[(\d+) sorts`).FindStringSubmatch(out)
	executed := regexp.MustCompile(` sorts=(\d+) `).FindStringSubmatch(out)
	if planned == nil || executed == nil || planned[1] != executed[1] {
		t.Fatalf("executed sorts differ from the plan's:\n%s", out)
	}
}

func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		stdin string
		args  []string
		err   string
	}{
		{"1 2\n1 2 3\n", []string{"-stdin", "-agg", "sum"}, "row 1 has 2 columns, row 0 has 1"},
		{"1 x\n", []string{"-stdin"}, "line 1:"},
		{"7\n", []string{"-stdin"}, "(0 columns)"},
		{"", []string{"-agg", "sum", "extra", "-top", "5"}, "unexpected argument \"extra\""},
		{"", []string{"-backend", "quick"}, "want auto, bitonic or shuffle"},
		{"", []string{"-groups", "0"}, "-groups >= 1"},
		{"", []string{"-rows", "8", "-agg", "median"}, "unknown aggregation"},
	} {
		err := invoke("run", tc.args, strings.NewReader(tc.stdin), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("run %v: err = %v, want one containing %q", tc.args, err, tc.err)
		}
	}
}
