GO ?= go

.PHONY: all build test test-shuffle test-parallel vet cross-build fmt-check race check-inline bench-build bench-kernels fuzz-smoke chaos-smoke serve-smoke examples-smoke repro-smoke docker clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-shuffle re-runs the relational suite with the shuffle-then-sort
# backend forced through the env-aware test sorter (the bitonic leg is the
# plain `make test`). CI runs both legs.
test-shuffle:
	OBLIVMC_SORT_BACKEND=shuffle $(GO) test ./internal/relops

# test-parallel is the ModeParallel matrix leg: the relational suite's
# operator calls run on a shared work-stealing pool instead of the serial
# executor (the env-aware testCtx seam), plus the top-level
# serial-vs-parallel equivalence properties. Together with `make race`
# this is the concurrency-correctness gate.
test-parallel:
	OBLIVMC_TEST_MODE=parallel $(GO) test ./internal/relops
	OBLIVMC_TEST_MODE=parallel $(GO) test ./internal/graph
	$(GO) test . -run 'ModeParallel|FingerprintUnaffected|ScalingSmoke' -v

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# cross-build vets and builds the tree for arm64, where internal/obliv has
# no assembly: its non-amd64 stub (cexrun_other.go) must keep compiling
# and the raw plane kernels run their portable Go loops. On amd64, `make
# vet` checks the assembly's frames against its Go declarations (asmdecl).
cross-build:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# fmt-check fails if any Go file in the tree is not gofmt-formatted.
fmt-check:
	test -z "$$(gofmt -l .)"

# check-inline pins the claim in the internal/mem package doc: outside
# metered mode Get/Set are a nil check and a slice index. That holds only
# while forkjoin.(*Ctx).Access and, through it, mem.Array.Get/Set stay under
# the compiler's inlining budget (Set sits exactly on it), so fail loudly
# when a change to any of them pushes one over.
check-inline:
	@$(GO) build -gcflags=-m ./internal/forkjoin 2>&1 | grep -q 'can inline (\*Ctx).Access' \
		|| { echo 'forkjoin.(*Ctx).Access is no longer inlinable'; exit 1; }
	@out=$$($(GO) build -gcflags=-m ./internal/obliv 2>&1); for m in Get Set; do \
		echo "$$out" | grep -q "inlining call to mem.(\*Array\[go.shape.uint64\]).$$m" \
			|| { echo "mem.(*Array).$$m is no longer inlined into internal/obliv"; exit 1; }; \
	done

# bench-kernels runs the in-package micro-benchmarks that sit next to the
# block kernels: the branchless comparator run over sorted / random /
# reverse keys, on elements, on word planes recording its swap bits —
# on the detected chunk loop (AVX-512 where the CPU has it) and, as
# portable-planes-record-*, on the portable Go loop — and as the fused
# tail over 8-slot blocks (the three orders must cost the same in each
# mode, the vector leg included), the keyed bitonic
# sort per leaf size and the same network with the Theorem E.1 ablation's
# key closure, the ablation's naive bitonic and odd–even networks (one
# obliv.Layer fork tree per layer, key closure), the recorded plane
# sort and its un-sort beside the keyed sort (planes / unsort on the
# detected chunk loops, planes-portable / unsort-portable on the Go
# ones), a routed Beneš
# network and its switch over all-clear / all-set / random settings (the
# three must cost the same), the shuffle
# composition's per-stage split (permutation, routing, apply, tie words,
# sample sort), the keyed sample sort alone, a transpose, the
# bitonic-vs-shuffle backend ratio around the crossover, the top-k
# tournament against the full value sort it replaced, and the PRAM gather
# (fresh, and a reused Gatherer) and min-combining scatter (the graph
# layer's merge-based send-receives),
# and the scheduler beneath them all: a nop fork pair with the thief parked
# and awake, and the wake-up latency of a fork issued after an idle gap.
# BENCH_KERNELS_ARGS bounds it, e.g.
# make bench-kernels BENCH_KERNELS_ARGS="-benchtime 1x" (the CI smoke run).
BENCH_KERNELS_ARGS ?= -benchtime 20x
bench-kernels:
	$(GO) test ./internal/forkjoin ./internal/obliv ./internal/bitonic ./internal/core ./internal/spms ./internal/matrix ./internal/relops ./internal/pram -run '^$$' -bench . $(BENCH_KERNELS_ARGS)

# bench-build compiles and tests the frozen benchmark harness. benchmark/
# is its own module (`replace oblivmc => ../`), so `go build ./...` and
# `go test ./...` at the root never see it, yet it calls straight into
# internal/ — this is the leg that catches a signature change breaking it.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# fuzz-smoke runs each native fuzz target (operator vs plain-Go reference,
# see internal/relops/fuzz_test.go, internal/graph/fuzz_test.go, the
# public Join's join_test.go and PageRank's graph_test.go) for a
# short exploration budget beyond the committed seed corpus. Go allows one
# -fuzz pattern per invocation, so the targets run back to back.
# FuzzGroupByBackends differentially fuzzes the shuffle backend against the
# bitonic backend (a GroupBy, and a TopK with a fuzzed k over tie-heavy
# values, so the value sort's tie-break is exercised too); the graph targets replay oblivious CC/MSF against their
# sequential references on fuzzer-shaped graphs, list ranking and a rerank
# of the same list under second weights on fuzzer-shaped lists, the
# tree functions and tree contraction on fuzzer-shaped trees, and PageRank
# on fuzzer-shaped graphs with self-loops, duplicate edges, sinks and
# isolated vertices against its integer reference; FuzzServeSpec feeds raw
# request bodies through the server's strict decode and compile (typed
# errors only; equal cache keys must mean equal rows). FuzzPlaneRunVector
# pits the AVX-512 plane and replay chunk loops against the portable Go
# ones (counts, bit offsets, directions, modes and boundary keys); it
# skips on a CPU without AVX-512.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/obliv -run '^$$' -fuzz '^FuzzPlaneRunVector$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzJoinAll$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzJoinAllCapacityAdvisor$$' -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz '^FuzzJoin$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzGroupBy$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzDistinct$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relops -run '^$$' -fuzz '^FuzzGroupByBackends$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzConnectedComponents$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzMSF$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzListRank$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzTreeFunctions$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzEvalTree$$' -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz '^FuzzPageRank$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzServeSpec$$' -fuzztime $(FUZZTIME)

# chaos-smoke is the query-lifecycle leg: under -race, the fault-injection
# chaos storm (concurrent queries with injected panics, slow passes, and
# client cancellations against a tight-admission server), the deadline /
# lane-retirement / drain (running and queued stragglers) / disconnect pins
# in internal/serve, the
# session-level cancellation and poisoning tests at the root (the graph
# operators' plane sorts and the one sort of Lookup, Join and GroupTotals
# tripping the sort-pass fault site included), and
# the pool cancellation/panic-isolation and sort-pass count tests in
# internal/forkjoin. Bounded well under a minute; the faultinject registry
# is process-global, so the legs run package by package.
chaos-smoke:
	$(GO) test -race ./internal/serve -run 'TestChaos|TestQueryTimeout|TestLaneRetired|TestShutdownDrain|TestClientDisconnect' -count 1
	$(GO) test -race . -run 'TestCancelCtxAfterFirstSortPass|TestGraphSortPassInjection|TestSendReceiveSortPassInjection|TestSessionCancelMidQuery|TestRunQueryCtx|TestPanic|TestUntrippedToken|TestCtxWatcher' -count 1
	$(GO) test -race ./internal/forkjoin -run 'TestSerialCheck|TestRunCancel|TestForkPanic|TestCanceledError|TestSortPassCount' -count 1

# serve-smoke is the end-to-end serving check: build oblivserve, start it
# on a random free port, load the generated example through the client,
# run the fused -keyorder -as query, and assert (a) the identical repeat
# is a cache hit with 0 executed sorts and (b) the follow-up over the
# materialization rides the order token to fewer sorts than its cold
# plan, then (c) the same rows and spec flags through `load -stdin` +
# `query` and through the local `run -stdin` print the same plan and
# rows — one front end. Exercises the client wire structs against the
# live server.
serve-smoke:
	sh scripts/serve_smoke.sh

# examples-smoke runs every program under examples/ — each drives the
# public API end to end, graphs and pramsim through the PRAM gather — and
# fails on the first one that exits non-zero.
examples-smoke:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d >/dev/null; done

# repro-smoke runs the paper reproduction end to end at the quick sizes:
# every table, figure and ablation of cmd/oblivbench on the metered
# executor, and its trace-equality checks (oblivcheck), which make the
# command exit non-zero on any FAIL.
repro-smoke:
	$(GO) run ./cmd/oblivbench -exp all -quick >/dev/null

# docker builds the oblivserve container image (multi-stage, static
# binary on scratch-ish alpine). Override the tag with DOCKER_TAG.
DOCKER_TAG ?= oblivserve:latest
docker:
	docker build -t $(DOCKER_TAG) .

clean:
	$(GO) clean ./...
