#!/usr/bin/env bash
# Benchmark trajectory entry for the IGO workspace.
#
# Runs BENCHMARK.json's command (the igobench benchmark) for every workload it
# declares, RUNS times each with seeds 1..RUNS and BENCHMARK.json's
# `run_seconds` per run, and writes BENCH_<N>.json at the repo root: per
# workload, whether every run was correct, plus the median, quartiles, IQR and
# raw values of each end-to-end metric over the runs. N is one past the
# highest existing BENCH_<N>.json unless BENCH_ID is set. It then compares
# each (workload, end-to-end metric) median with the highest earlier entry
# in the same schema (BENCH_6 onward), printing old -> new and the relative
# change, and flags every change for the worse larger than the metric's
# `bound` in BENCHMARK.json. Hermetic: no network; needs `jq`.
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

# Compare with the highest earlier entry that has per-workload metric
# medians (BENCH_4 and BENCH_5 predate that schema).
PREV=""
for n in $(for f in BENCH_*.json; do n="${f#BENCH_}"; echo "${n%.json}"; done | grep -E '^[0-9]+$' | sort -rn); do
  if ((n < BENCH_ID)) &&
    jq -e '.workloads | type == "object" and all(.[]; .metrics | type == "object")' \
      "BENCH_${n}.json" >/dev/null 2>&1; then
    PREV="BENCH_${n}.json"
    break
  fi
done
if [[ -z "$PREV" ]]; then
  echo "bench: no earlier entry to compare with"
  exit 0
fi
echo "bench: ${PREV} -> ${OUT} (median per workload and end-to-end metric)"
jq -r -n --slurpfile old "$PREV" --slurpfile new "$OUT" --slurpfile spec BENCHMARK.json '
  def pct: . * 1000 | round / 10 + 0 | if . >= 0 then "+\(.)%" else "\(.)%" end;
  $old[0].workloads as $ow
  | $new[0].workloads | to_entries[] as {key: $w, value: $nw}
  | $spec[0].end_to_end[] as $m
  | ($ow[$w].metrics[$m.name].median) as $o
  | ($nw.metrics[$m.name].median) as $n
  | select($o != null and $n != null)
  | (if $o != 0 then ($n - $o) / ($o | fabs) elif $n == 0 then 0 else null end) as $rel
  | (if $rel == null then false
     elif $m.better == "lower" then $rel > $m.bound
     else $rel < -$m.bound end) as $worse
  | [$w, $m.name, "\($o) -> \($n)", (if $rel == null then "n/a" else ($rel | pct) end)]
    + (if $worse then ["WORSE than its bound of \($m.bound * 1000 | round / 10)%"] else [] end)
  | join("\t")' | tee "$RUN_DIR/compare.tsv"
worse="$(grep -c WORSE "$RUN_DIR/compare.tsv" || true)"
echo "bench: ${worse} metric(s) worse than ${PREV} beyond their bound"
