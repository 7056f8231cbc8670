#!/usr/bin/env bash
# Runs the whole benchmark twice on the same build - every workload, untraced
# and traced - and checks that the two sets agree:
#
#   bash benchmark/agree.sh [seed]        (default seed 1)
#
# It prints, per workload and metric, both values and their relative
# difference, and exits non-zero if an end-to-end metric differs by more than
# its own bound in BENCHMARK.json, if any count-typed per-layer metric differs
# at all, or if a run reports a failed op. About 15 s per run, 20 runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed="${1:-1}"
cd "$root"

python3 - "$seed" <<'EOF'
import json, subprocess, sys

seed = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}

bad = 0

def run(workload, trace):
    global bad
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"FAIL {workload}: {res['failed']} of {res['attempted']} ops failed")
        bad += 1
    return {k: v["value"] for k, v in res["metrics"].items()}

for w in (w["name"] for w in spec["workloads"]):
    for trace in (0, 1):
        a, b = run(w, trace), run(w, trace)
        for name in sorted(a):
            x, y = a[name], b[name]
            rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            verdict = ""
            if name in bounds and rel > bounds[name]:
                verdict = f"  DISAGREE (bound {bounds[name]})"
            elif name in counts and x != y:
                verdict = "  DISAGREE (count)"
            if verdict:
                bad += 1
            print(f"{w:20s} {name:36s} {x:14.6g} {y:14.6g} {rel:8.4f}{verdict}")
print("agree" if bad == 0 else f"{bad} disagreements")
sys.exit(1 if bad else 0)
EOF
