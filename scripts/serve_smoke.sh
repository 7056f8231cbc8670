#!/usr/bin/env sh
# serve_smoke.sh — end-to-end smoke of the oblivserve serving loop.
#
# Builds oblivserve, starts it on a random free port, loads the generated
# example relation through the client, runs a fused group-by with
# -keyorder -as (materializing an OrderKeys result), then (a) repeats the
# identical query and asserts it is served from the cross-query cache
# with 0 executed sorts, and (b) queries the materialization and asserts
# the order token saved a sort versus the cold plan. This is the CI leg
# that keeps the client wire structs honest against the server's. Last,
# it proves there is one query front end: the same rows and spec flags,
# once loaded and queried on the live server and once through the local
# `oblivserve run`, must print the same plan and the same rows.
set -eu

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
ROWS="$BIN/rows.txt"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/oblivserve" ./cmd/oblivserve

# Pick a free port: bind :0 via the toolchain's resolver-free stdlib.
PORT="$(go run ./scripts/freeport 2>/dev/null || true)"
[ -n "$PORT" ] || PORT=18344
ADDR="http://127.0.0.1:$PORT"

"$BIN/oblivserve" serve -addr "127.0.0.1:$PORT" -lanes 2 &
SRV_PID=$!

# Wait for readiness (the client's WaitReady, via a trivial load retry).
i=0
until "$BIN/oblivserve" load -addr "$ADDR" -name _probe -rows 2 -groups 2 >/dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "serve_smoke: server never came up" >&2; exit 1; }
  sleep 0.1
done

"$BIN/oblivserve" load -addr "$ADDR" -name sales -rows 2048 -groups 32 -seed 7

run_query() {
  "$BIN/oblivserve" query -addr "$ADDR" -show 0 "$@"
}

echo "--- cold fused query, materialized in key order"
COLD="$(run_query -table sales -agg sum -keyorder -as totals)"
echo "$COLD"
echo "$COLD" | grep -q 'cached=false' || { echo "FAIL: cold run reported cached" >&2; exit 1; }
COLD_SORTS="$(echo "$COLD" | sed -n 's/.*sorts=\([0-9]*\).*/\1/p')"
[ "$COLD_SORTS" -ge 1 ] || { echo "FAIL: cold run executed $COLD_SORTS sorts" >&2; exit 1; }

echo "--- identical repeat: must be a cache hit with 0 sorts"
WARM="$(run_query -table sales -agg sum -keyorder -as totals)"
echo "$WARM"
echo "$WARM" | grep -q 'cached=true' || { echo "FAIL: repeat not served from cache" >&2; exit 1; }
echo "$WARM" | grep -q 'sorts=0 ' || { echo "FAIL: cached repeat executed sorts" >&2; exit 1; }

echo "--- follow-up over the ordered materialization: token must skip a sort"
FOLLOW="$(run_query -table totals -agg max -keyorder)"
echo "$FOLLOW"
F_SORTS="$(echo "$FOLLOW" | sed -n 's/.*sorts=\([0-9]*\).*/\1/p')"
F_COLD="$(echo "$FOLLOW" | sed -n 's/.*cold=\([0-9]*\).*/\1/p')"
[ "$F_SORTS" -lt "$F_COLD" ] || {
  echo "FAIL: follow-up executed $F_SORTS sorts, cold plan $F_COLD — token unused" >&2
  exit 1
}

echo "--- explain must show the carried input order"
"$BIN/oblivserve" explain -addr "$ADDR" -table totals -agg max -keyorder | tee /dev/stderr |
  grep -q 'in(' || { echo "FAIL: explain shows no input-order token" >&2; exit 1; }

echo "--- one front end: served query and local run agree"
awk 'BEGIN { srand(5); for (i = 0; i < 1500; i++) printf "%d %d\n", int(rand() * 40), int(rand() * 1000) }' >"$ROWS"
"$BIN/oblivserve" load -addr "$ADDR" -name rows -stdin <"$ROWS"
# The timing line differs run to run; the plan and row lines must not.
same_spec() { "$@" -table rows -filter "val ge 100" -agg sum -top 5 | grep -v ' row(s) in '; }
SERVED="$(same_spec "$BIN/oblivserve" query -addr "$ADDR")"
LOCAL="$(same_spec "$BIN/oblivserve" run -stdin <"$ROWS")"
echo "$LOCAL"
[ "$SERVED" = "$LOCAL" ] || {
  printf 'FAIL: served query and local run differ\n--- served\n%s\n--- local\n%s\n' "$SERVED" "$LOCAL" >&2
  exit 1
}
echo "$LOCAL" | grep -q '^plan: ' || { echo "FAIL: no plan line" >&2; exit 1; }
[ "$(echo "$LOCAL" | grep -c '^  ')" -eq 5 ] || { echo "FAIL: want 5 result rows" >&2; exit 1; }

echo "serve_smoke: OK (cold=$COLD_SORTS sorts, cached repeat=0, follow-up=$F_SORTS<$F_COLD, query = run)"
