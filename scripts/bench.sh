#!/usr/bin/env bash
# Benchmark trajectory entry for the IGO workspace.
#
# Runs BENCHMARK.json's command (the igobench benchmark) for every workload it
# declares, RUNS times each with seeds 1..RUNS and BENCHMARK.json's
# `run_seconds` per run, and writes BENCH_<N>.json at the repo root: per
# workload, whether every run was correct, plus the median, quartiles, IQR and
# raw values of each end-to-end metric over the runs. N is one past the
# highest existing BENCH_<N>.json unless BENCH_ID is set. Hermetic: no
# network; needs `jq`.
#
#   scripts/bench.sh            # or: BENCH_ID=7 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
RUNS=5
SECONDS_PER_RUN="$(jq -r .run_seconds BENCHMARK.json)"
last_id=0
for f in BENCH_*.json; do
  n="${f#BENCH_}"
  n="${n%.json}"
  if [[ "$n" =~ ^[0-9]+$ ]] && ((n > last_id)); then last_id="$n"; fi
done
BENCH_ID="${BENCH_ID:-$((last_id + 1))}"
OUT="BENCH_${BENCH_ID}.json"

mapfile -t CMD < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)
METRICS="$(jq -c '[.end_to_end[].name]' BENCHMARK.json)"

RUN_DIR="$(mktemp -d)"
trap 'rm -rf "$RUN_DIR"' EXIT

for workload in "${WORKLOADS[@]}"; do
  for seed in $(seq 1 "$RUNS"); do
    echo "== $workload seed $seed (${SECONDS_PER_RUN} s) =="
    "${CMD[@]}" --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
      2>/dev/null | tail -1 > "$RUN_DIR/$workload-$seed.json"
    jq -c '{correct, wall_s: .metrics.wall_s.value, peak_rss_mib: .metrics.peak_rss_mib.value}' \
      "$RUN_DIR/$workload-$seed.json"
  done
  # Quartiles by linear interpolation between order statistics.
  jq -s --argjson names "$METRICS" --arg workload "$workload" '
    def q($p): sort as $s | ((($s | length) - 1) * $p) as $i
      | ($i | floor) as $lo | ($i | ceil) as $hi
      | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
    . as $runs
    | {($workload): {
        correct: ([$runs[].correct] | all),
        metrics: ($names | map(. as $n | [$runs[].metrics[$n].value] as $v | {
          key: $n,
          value: {
            unit: $runs[0].metrics[$n].unit,
            median: ($v | q(0.5)),
            q1: ($v | q(0.25)),
            q3: ($v | q(0.75)),
            iqr: (($v | q(0.75)) - ($v | q(0.25))),
            values: $v
          }
        }) | from_entries)
      }}' "$RUN_DIR/$workload"-*.json > "$RUN_DIR/$workload.summary.json"
done

jq -s --argjson bench "$BENCH_ID" --argjson runs "$RUNS" --argjson seconds "$SECONDS_PER_RUN" \
  --argjson command "$(jq -c .command BENCHMARK.json)" \
  '{bench: $bench, command: $command, runs: $runs, seconds_per_run: $seconds, workloads: add}' \
  "$RUN_DIR"/*.summary.json > "$OUT"

echo "bench: wrote ${OUT}"
