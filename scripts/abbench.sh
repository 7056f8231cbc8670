#!/usr/bin/env bash
# Paired A/B runs of the benchmark between two revisions:
#
#   scripts/abbench.sh <base> <change> [--workloads a,b,...] [--pairs N] [--seconds S] [--seed K]
#   scripts/abbench.sh <base> <change> --go-bench <regexp> [--pkg <path>] [--pairs N]
#
# Each revision is exported once (git archive) into a temporary directory;
# its first benchmark/run.sh compiles the harness there, and later runs hit
# that build's cache. Pair i runs every workload untraced on both revisions
# with seed K+i, the base first on even i and the change first on odd i, so
# neither side always runs on a warmer or cooler machine. The summary
# (scripts/abstat) prints, per workload and end-to-end metric, both medians
# and IQRs, the median pair ratio, the change's wins and the exact sign-test
# p — "unresolved" when p > 0.05. Each raw run is echoed to stderr as one
# JSON line as it finishes. The temporary directories are removed on exit;
# nothing in this checkout is written.
#
# With --go-bench the pairs are Go benchmarks instead of workloads: each
# revision's test binary of package <path> (default ".") is built once
# (go test -c), and pair i runs it on both sides, in the same alternating
# order, as -test.run '^$' -test.bench <regexp> -test.count 1
# -test.benchmem from the package's directory. abstat -bench then compares
# every benchmark the regexp matches on every unit it reports (ns/op, B/op,
# allocs/op, custom units). The raw lines, prefixed by side and pair, are
# echoed to stderr. Go runs no benchmark whose name has fewer levels than
# the regexp has '/'-separated parts, so benchmarks of different depths
# need one call each.
#
# Defaults: every workload of BENCHMARK.json, 10 pairs, 10 s, seed 1.
set -euo pipefail

usage() {
	echo "usage: $0 <base> <change> [--workloads a,b] [--pairs N] [--seconds S] [--seed K]" >&2
	echo "       $0 <base> <change> --go-bench <regexp> [--pkg <path>] [--pairs N]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
base=$1 change=$2
shift 2
workloads= pairs=10 seconds=10 seed=1 gobench= pkg=.
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--workloads) workloads=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--seed) seed=$2 ;;
	--go-bench) gobench=$2 ;;
	--pkg) pkg=${2#./} ;;
	*) usage ;;
	esac
	shift 2
done

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/abbench.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

abstat() { (cd "$repo" && go run ./scripts/abstat -spec "$repo/BENCHMARK.json" "$@"); }
if [ -z "$workloads" ] && [ -z "$gobench" ]; then
	workloads=$(abstat -workloads | paste -sd, -)
fi

for side in base change; do
	rev=${!side}
	mkdir -p "$tmp/$side"
	git -C "$repo" archive "$rev" | tar -x -C "$tmp/$side"
	echo "$side: $(git -C "$repo" rev-parse --short "$rev^{commit}")" >&2
	if [ -n "$gobench" ]; then
		(cd "$tmp/$side" && go test -c -o "$tmp/$side.test" "./$pkg")
	fi
done

if [ -n "$gobench" ]; then
	runs=$tmp/runs.txt
	: >"$runs"
	for ((i = 0; i < pairs; i++)); do
		order="base change"
		if ((i % 2 == 1)); then
			order="change base"
		fi
		for side in $order; do
			echo "pair $((i + 1))/$pairs $side" >&2
			(cd "$tmp/$side/$pkg" && "$tmp/$side.test" -test.run '^$' -test.bench "$gobench" -test.count 1 -test.benchmem) |
				awk -v s="$side" -v p="$i" '/^Benchmark/ { print s, p, $0 }' | tee -a "$runs" >&2
		done
	done
	abstat -bench "$runs"
	exit
fi

runs=$tmp/runs.jsonl
: >"$runs"
for ((i = 0; i < pairs; i++)); do
	order="base change"
	if ((i % 2 == 1)); then
		order="change base"
	fi
	for w in ${workloads//,/ }; do
		for side in $order; do
			echo "pair $((i + 1))/$pairs $w $side (seed $((seed + i)))" >&2
			res=$(bash "$tmp/$side/benchmark/run.sh" --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 | tail -n 1)
			printf '{"workload":"%s","side":"%s","pair":%d,"result":%s}\n' "$w" "$side" "$i" "$res" | tee -a "$runs" >&2
		done
	done
done

abstat "$runs"
