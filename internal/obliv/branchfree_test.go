package obliv

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// rawKernels are the raw block kernels whose compiled code must not branch
// on data: the element comparator run and the element move it shares with
// the Beneš switch, the word-plane comparator (sorting, merging and
// recording) in chunks and pair by pair, the word-plane replay likewise,
// the fused tail of both over 8-slot blocks (its drivers, the block sorts
// on one and two key planes, and the carried block's move and its undo),
// and the fixed-time division by a secret divisor.
var rawKernels = []string{"CondSwap", "cexRun", "planeRun", "replayRun", "planePairs", "replayPairs", "planeTail", "replayTail", "sort8", "sort8x2", "move8", "unmove8", "DivU64"}

// asmKernels are the raw kernels written in assembly: the AVX-512 chunk
// loops of the plane comparator and the replay (cexrun_amd64.s). Go's
// disassembler does not decode their EVEX instructions, so their code is
// read through the binary's line table instead (asmKernel).
var asmKernels = []string{"planeRunAVX512", "replayRunAVX512"}

// branchGolden lists, per raw kernel, every conditional jump the compiler
// may emit that is not a bounds check, and why it does not depend on the
// data. Line is the source line relative to the line of the kernel's func
// keyword, so edits above a kernel leave the list valid and edits inside it
// make the check fail until the list is reviewed again. Bounds checks — one
// of the jump's two successor blocks calls runtime.panicIndex /
// panicSlice* — need no entry.
var branchGolden = []branchSite{
	{"cexRun", 0, "JBE", "prologue stack-growth check (runtime.morestack): stack depth, not data"},
	{"cexRun", 4, "JE", "k1 != nil: the schedule width, public"},
	{"cexRun", 7, "JLE", "loop test on cnt, public"},
	{"cexRun", 13, "JE", "k1 != nil: the schedule width, public"},
	{"cexRun", 22, "JE", "k1 != nil: the schedule width, public; its taken edge continues the loop"},
	{"planeRun", 0, "JBE", "prologue stack-growth check (runtime.morestack): stack depth, not data"},
	{"planeRun", 1, "JLE", "loop test on the chunks: pair range, public"},
	{"planeRun", 3, "JL", "min of the chunk bounds (run end, range end, record word end): public indices"},
	{"planeRun", 3, "JG", "min of the chunk bounds (run end, range end, record word end): public indices"},
	{"planeRun", 11, "JE", "k1 != nil: the number of key planes, public"},
	{"planeRun", 15, "JGE", "loop test on a chunk's pairs: its length, public"},
	{"planeRun", 18, "JE", "k1 != nil: the number of key planes, public"},
	{"planeRun", 25, "JE", "k1 != nil: the number of key planes, public"},
	{"planeRun", 32, "JE", "v != nil: the number of carried planes, public"},
	{"planeRun", 34, "JL", "loop test on a chunk's carried pairs: its length, public"},
	{"planeRun", 40, "JE", "rec != nil: whether the sort records, public"},
	{"replayRun", 1, "JLE", "loop test on the chunks: pair range, public"},
	{"replayRun", 3, "JL", "min of the chunk bounds (run end, range end, record word end): public indices"},
	{"replayRun", 3, "JG", "min of the chunk bounds (run end, range end, record word end): public indices"},
	{"replayRun", 8, "JL", "loop test on a chunk's pairs: its length, public"},
	{"planePairs", 1, "JLE", "loop test on pairs, public"},
	{"planePairs", 8, "JE", "k1 != nil: the number of key planes, public"},
	{"planePairs", 16, "JE", "k1 != nil: the number of key planes, public"},
	{"planePairs", 21, "JE", "v != nil: the number of carried planes, public"},
	{"planePairs", 26, "JE", "rec != nil: whether the sort records, public"},
	{"replayPairs", 1, "JLE", "loop test on pairs, public"},
	{"planeTail", 0, "JBE", "prologue stack-growth check (runtime.morestack): stack depth, not data"},
	{"planeTail", 1, "JLE", "loop test on the 8-slot blocks: block range, public"},
	{"planeTail", 5, "JE", "k1 == nil: the number of key planes, public"},
	{"planeTail", 10, "JE", "v != nil: the number of carried planes, public"},
	{"planeTail", 13, "JE", "rec != nil: whether the sort records, public"},
	{"replayTail", 0, "JBE", "prologue stack-growth check (runtime.morestack): stack depth, not data"},
	{"replayTail", 1, "JLE", "loop test on the 8-slot blocks: block range, public"},
	{"sort8x2", 0, "JBE", "prologue stack-growth check (runtime.morestack): stack depth, not data"},
	{"DivU64", 2, "JGE", "loop test on the step counter: 64 steps for every operand"},
	{"planeRunAVX512", 5, "JGE", "loop test on the chunks: pair range, public"},
	{"planeRunAVX512", 68, "JEQ", "k1 == nil: the number of key planes, public"},
	{"planeRunAVX512", 83, "JEQ", "k1 == nil: the number of key planes, public"},
	{"planeRunAVX512", 91, "JEQ", "v == nil: the number of carried planes, public"},
	{"planeRunAVX512", 105, "JLT", "loop test on a chunk's 8-lane groups: its length, public"},
	{"planeRunAVX512", 110, "JEQ", "rec == nil: whether the sort records, public"},
	{"replayRunAVX512", 5, "JGE", "loop test on the chunks: pair range, public"},
	{"replayRunAVX512", 63, "JLT", "loop test on a chunk's 8-lane groups: its length, public"},
}

// branchSite is one conditional jump: kernel, source line relative to the
// kernel's func line, mnemonic, and (golden entries only) the reason it is
// allowed.
type branchSite struct {
	fn   string
	line int
	op   string
	why  string
}

func (b branchSite) key() string { return fmt.Sprintf("%s+%d %s", b.fn, b.line, b.op) }

// asmInst is one disassembled instruction.
type asmInst struct {
	line int    // source line
	addr uint64 // instruction address
	op   string // mnemonic
	arg  string // operands
}

// asmFunc is one disassembled function: the source line of its func
// keyword and its instructions.
type asmFunc struct {
	line  int
	insts []asmInst
}

// disassemble runs go tool objdump on bin for the functions matching re and
// returns them by symbol name (package path stripped).
func disassemble(t *testing.T, goBin, bin, re string) map[string]*asmFunc {
	t.Helper()
	out, err := exec.Command(goBin, "tool", "objdump", "-s", re, bin).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v\n%s", err, out)
	}
	fns := map[string]*asmFunc{}
	var cur *asmFunc
	for _, ln := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(ln, "TEXT "); ok {
			f := strings.Fields(rest) // symbol, source file
			sym := strings.TrimSuffix(f[0][strings.LastIndex(f[0], ".")+1:], "(SB)")
			cur = &asmFunc{line: funcLine(t, f[1], sym)}
			fns[sym] = cur
			continue
		}
		var f []string
		for _, x := range strings.Split(ln, "\t") {
			if x = strings.TrimSpace(x); x != "" {
				f = append(f, x)
			}
		}
		if cur == nil || len(f) < 4 {
			continue
		}
		_, lineStr, _ := strings.Cut(f[0], ":")
		line, err1 := strconv.Atoi(lineStr)
		addr, err2 := strconv.ParseUint(strings.TrimPrefix(f[1], "0x"), 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsed objdump line %q", ln)
		}
		op, arg, _ := strings.Cut(f[3], " ")
		cur.insts = append(cur.insts, asmInst{line: line, addr: addr, op: op, arg: strings.TrimSpace(arg)})
	}
	return fns
}

// asmKernel returns the assembly function sym of bin as the line table
// sees it: go tool nm gives the symbol's extent, go tool addr2line the
// source line of each of its bytes, and since a line of a TEXT block
// assembles to exactly one instruction, each run of bytes from one line is
// one instruction, whose mnemonic and operands are that line's text.
func asmKernel(t *testing.T, goBin, bin, sym string) *asmFunc {
	t.Helper()
	out, err := exec.Command(goBin, "tool", "nm", "-size", bin).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool nm: %v\n%s", err, out)
	}
	var addr, size uint64
	for _, ln := range strings.Split(string(out), "\n") {
		if f := strings.Fields(ln); len(f) == 4 && f[3] == "oblivmc/internal/obliv."+sym+".abi0" {
			addr, _ = strconv.ParseUint(f[0], 16, 64)
			size, _ = strconv.ParseUint(f[1], 10, 64)
		}
	}
	if size == 0 {
		t.Fatalf("%s not found in the test binary", sym)
	}
	var pcs strings.Builder
	for a := addr; a < addr+size; a++ {
		fmt.Fprintf(&pcs, "0x%x\n", a)
	}
	cmd := exec.Command(goBin, "tool", "addr2line", bin)
	cmd.Stdin = strings.NewReader(pcs.String())
	if out, err = cmd.CombinedOutput(); err != nil {
		t.Fatalf("go tool addr2line: %v\n%s", err, out)
	}
	res := strings.Split(strings.TrimSpace(string(out)), "\n") // per address: function, file:line
	if len(res) != 2*int(size) {
		t.Fatalf("go tool addr2line: %d lines for %d addresses", len(res), size)
	}
	file, _, _ := strings.Cut(res[1], ":")
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("reading the source of %s: %v", sym, err)
	}
	text := strings.Split(string(src), "\n")
	f := &asmFunc{line: funcLine(t, file, sym)}
	for i := 0; i < int(size); i++ {
		_, lineStr, _ := strings.Cut(res[2*i+1], ":")
		line, err := strconv.Atoi(lineStr)
		if err != nil || line < 1 || line > len(text) {
			t.Fatalf("%s+%d: bad source line %q", sym, i, res[2*i+1])
		}
		if n := len(f.insts); n > 0 && f.insts[n-1].line == line {
			continue
		}
		op, arg, _ := strings.Cut(strings.TrimSpace(text[line-1]), " ")
		if op == "" || strings.HasSuffix(op, ":") || strings.HasPrefix(op, "//") {
			t.Fatalf("%s+%d: line %d (%q) is no instruction", sym, i, line, text[line-1])
		}
		f.insts = append(f.insts, asmInst{line: line, addr: addr + uint64(i), op: op, arg: strings.TrimSpace(arg)})
	}
	return f
}

// funcLine is the line of "func name(" — in an assembly file, "TEXT
// ·name(SB)" — in the source file.
func funcLine(t *testing.T, file, name string) int {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("reading the source of %s: %v", name, err)
	}
	for i, ln := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(ln, "func "+name+"(") || strings.HasPrefix(ln, "TEXT ·"+name+"(SB)") {
			return i + 1
		}
	}
	t.Fatalf("func %s not found in %s", name, file)
	return 0
}

// isCondJump reports whether in is a conditional jump.
func isCondJump(in asmInst) bool { return strings.HasPrefix(in.op, "J") && in.op != "JMP" }

// blockPanics reports whether the basic block starting at instruction i —
// followed through unconditional jumps within the function — ends in a
// call of a runtime.panic* function rather than at a return, a
// conditional jump or a jump out of the function.
func blockPanics(insts []asmInst, at map[uint64]int, i int) bool {
	for steps := 0; i < len(insts) && steps < 256; steps++ {
		in := insts[i]
		switch {
		case in.op == "CALL" && strings.HasPrefix(in.arg, "runtime.panic"):
			return true
		case in.op == "RET" || isCondJump(in):
			return false
		case in.op == "JMP":
			to, err := strconv.ParseUint(strings.TrimPrefix(in.arg, "0x"), 16, 64)
			j, ok := at[to]
			if err != nil || !ok {
				return false // leaves the function
			}
			i = j
			continue
		}
		i++
	}
	return false
}

// unexplainedBranches returns the conditional jumps of fn that are not
// bounds checks — neither the jump's target block nor its fall-through
// block panics — with lines relative to fn's func keyword.
func unexplainedBranches(fn string, f *asmFunc) []branchSite {
	at := map[uint64]int{}
	for i, in := range f.insts {
		at[in.addr] = i
	}
	var out []branchSite
	for i, in := range f.insts {
		if !isCondJump(in) {
			continue
		}
		to, err := strconv.ParseUint(strings.TrimPrefix(in.arg, "0x"), 16, 64)
		j, ok := at[to]
		if err == nil && ok && blockPanics(f.insts, at, j) || blockPanics(f.insts, at, i+1) {
			continue
		}
		out = append(out, branchSite{fn: fn, line: in.line - f.line, op: in.op})
	}
	return out
}

// goTool returns the go command, skipping the test where the check cannot
// run.
func goTool(t *testing.T) string {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("the branch golden is for amd64 code; GOARCH is %s", runtime.GOARCH)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	if _, err := exec.LookPath(goBin); err != nil {
		t.Skipf("no go command to build and disassemble with: %v", err)
	}
	return goBin
}

// TestCompiledKernelsBranchFree checks branch-freedom where the branch
// channel lives, in the code the compiler emitted: it builds this
// package's test binary, disassembles the raw kernels and reads the
// assembly ones through the line table, and requires every conditional
// jump either to lead to a runtime panic (a bounds check, which depends on
// public lengths and offsets only) or to match a reviewed branchGolden
// entry; a golden entry that matches nothing is stale and fails too. A
// negative control — testdata/branchy, a compare-exchange that swaps under
// an if on the keys — must be flagged.
func TestCompiledKernelsBranchFree(t *testing.T) {
	goBin := goTool(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "obliv.test")
	if out, err := exec.Command(goBin, "test", "-c", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	fns := disassemble(t, goBin, bin, `^oblivmc/internal/obliv\.(`+strings.Join(rawKernels, "|")+`)$`)
	for _, fn := range asmKernels {
		fns[fn] = asmKernel(t, goBin, bin, fn)
	}

	allowed := map[string]bool{}
	for _, g := range branchGolden {
		allowed[g.key()] = true
	}
	used := map[string]bool{}
	for _, fn := range append(rawKernels, asmKernels...) {
		f := fns[fn]
		if f == nil {
			t.Fatalf("%s not found in the test binary (inlined everywhere or renamed?)", fn)
		}
		for _, b := range unexplainedBranches(fn, f) {
			if !allowed[b.key()] {
				t.Errorf("%s: conditional jump with no golden entry (source line %d); if it does not depend on the data, add it to branchGolden with the reason",
					b.key(), f.line+b.line)
			}
			used[b.key()] = true
		}
	}
	for _, g := range branchGolden {
		if !used[g.key()] {
			t.Errorf("golden entry %s (%s) matches no jump: remove or re-review it", g.key(), g.why)
		}
	}

	ctl := filepath.Join(dir, "branchy")
	if out, err := exec.Command(goBin, "build", "-o", ctl, "./testdata/branchy").CombinedOutput(); err != nil {
		t.Fatalf("go build testdata/branchy: %v\n%s", err, out)
	}
	flagged := unexplainedBranches("cexBranchy", disassemble(t, goBin, ctl, `^main\.cexBranchy$`)["cexBranchy"])
	if !slices.ContainsFunc(flagged, func(b branchSite) bool { return b.line == 1 }) {
		t.Fatalf("negative control not flagged: the swap-under-if kernel's jumps %v", flagged)
	}
}
