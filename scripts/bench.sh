#!/usr/bin/env bash
# Performance benchmark for the IGO workspace.
#
# Runs a design-space sweep micro-benchmark (`igo-sim sweep zoo`) and
# records the numbers in BENCH_<N>.json at the repo root so the perf
# trajectory is tracked across changes. Hermetic: no network.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
BENCH_ID="${BENCH_ID:-5}"
OUT="BENCH_${BENCH_ID}.json"

cargo build --release -q -p igo-cli

echo "== igo-sim sweep zoo (micro-benchmark, min of 2) =="
SWEEP_DIR="$(mktemp -d)"
run_sweep() { # run_sweep <subdir>; echoes the run's wall seconds
  ./target/release/igo-sim sweep zoo --spm 3,6,12,24 --out "$SWEEP_DIR/$1" >/dev/null
  grep -o '"wall_seconds":[0-9.]*' "$SWEEP_DIR/$1/summary.json" | cut -d: -f2
}
s1="$(run_sweep a)"
s2="$(run_sweep b)"
sweep_wall="$(printf '%s\n%s\n' "$s1" "$s2" | sort -g | head -1)"
SWEEP_SUMMARY="$(cat "$SWEEP_DIR/a/summary.json")"
echo "sweep zoo ${sweep_wall}s (runs: ${s1}s, ${s2}s)"

cat > "$OUT" <<JSON
{
  "bench": ${BENCH_ID},
  "sweep_wall_seconds": ${sweep_wall},
  "sweep_zoo": ${SWEEP_SUMMARY}
}
JSON
rm -rf "$SWEEP_DIR"

echo "bench: wrote ${OUT}"
