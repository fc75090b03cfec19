#!/usr/bin/env bash
# Offline verification gate for the IGO workspace.
#
# Runs the same checks CI would: formatting, lints (warnings are errors),
# a release build, the benchmark driver's build, golden digests and
# self-tests, and the full test suite (unit + integration + doc).
# Everything is hermetic — path-only dependencies, no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings) =="
# Intra-doc links to deleted items fail here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release =="
cargo build --release

echo "== replay hot loop inlined =="
# The unrecorded OPT replay's speed hangs on LLVM inlining the residency's
# per-access calls into `Timeline::gemm`. With one more instantiation of
# the replay in `igo-core`, the default 16 codegen units stopped inlining
# them, and `sweep zoo` cost ~9% more CPU until both were forced
# `#[inline(always)]`. An out-of-line copy of either in the release
# binary means that inlining was lost again.
outlined="$(nm -C target/release/igo-sim \
    | grep -E 'ReplayOptCache as [^ ]*Residency>::access$|ReplayOptCache::insert$' || true)"
if [ -n "$outlined" ]; then
    echo "out-of-line replay residency calls:"
    echo "$outlined"
    exit 1
fi

echo "== igobench build + golden digests + self-tests =="
# The benchmark driver is a package of its own, outside the workspace, so
# neither clippy nor the build above compiles it. Build it here and check
# that the simulator still reproduces its golden digests (cycles, traffic,
# trace event counts and exported byte counts). `technique_ladder` is the
# only digest over multi-core (`serverx4`) candidates.
cargo build --release --offline --manifest-path igobench/Cargo.toml
for workload in edge_trace zoo_sweep technique_ladder; do
    ./igobench/target/release/igobench golden "$workload" \
        | diff - "igobench/golden/$workload.tsv"
done
# Its self-tests include the probe that re-derives every ladder winner
# through `igo_npu_sim::replay_ladder`, that function's only caller.
cargo test --release --offline --manifest-path igobench/Cargo.toml

echo "== cargo bench --no-run (bench-rot gate) =="
# The Criterion-style harnesses are excluded from `cargo test`; compiling
# them here keeps them from rotting without paying their runtime in CI.
cargo bench -p igo-bench --no-run

echo "== igo-bench unit tests =="
# The paper harness crate is outside the default members, so `cargo test`
# below skips it, and `--no-run` compiles without running. Its unit tests
# pin the `--timing` JSON shape among others.
cargo test -q -p igo-bench --lib

echo "== paper harness goldens =="
# Every printing harness (all but `criterion_micro`) is deterministic; its
# stdout is the reproduction's table or figure, pinned byte for byte.
for golden in crates/bench/golden/*.txt; do
    harness="$(basename "$golden" .txt)"
    cargo bench -q -p igo-bench --bench "$harness" | diff - "$golden"
done

echo "== replay memory per tile, not per access =="
# Candidates replay straight from their loop nests, so a layer of 12.6 M
# accesses per replay must stay small (it peaked at 137 MiB when replays
# read a collected stream).
peak="$(./target/release/igo-sim --timing layer 65536 8192 8192 server 2>&1 >/dev/null \
    | grep -o '"peak_rss_mib":[0-9.]*' | cut -d: -f2)"
echo "layer 65536 8192 8192 server: peak_rss_mib ${peak}"
awk -v p="$peak" 'BEGIN { exit !(p != "" && p < 64) }'

echo "== trace memory bounded by the track caps =="
# Traces replay the decided candidate's generators as well, cap every
# track while the replay runs and merge-render trace.json into the file,
# so tracing must stay small too and must not grow with the layer's ops:
# the 65536-row layer peaked at 181.6 MiB when traces replayed a collected
# stream and at 34.3 MiB while memory slices were held one record per op
# (8.6 MiB since); the 262144-row layer peaked at 129.1 MiB then (25.0 MiB
# since).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for gate in 65536:16 262144:32; do
    rows="${gate%%:*}"
    limit="${gate##*:}"
    peak="$(./target/release/igo-sim --timing trace "${rows}x8192x8192" server --out "$tmp" 2>&1 >/dev/null \
        | grep -o '"peak_rss_mib":[0-9.]*' | cut -d: -f2)"
    echo "trace ${rows}x8192x8192 server: peak_rss_mib ${peak} (gate ${limit})"
    awk -v p="$peak" -v l="$limit" 'BEGIN { exit !(p != "" && p < l) }'
done

echo "== cargo test =="
cargo test -q

echo "== fixed-seed differential fuzz-audit =="
# Tee the JSON summary to a file so CI can print it and upload it as an
# artifact on failure; `pipefail` preserves the audit's exit code.
./target/release/igo-sim audit --seeds 1000 | tee audit-summary.json

echo "verify: all checks passed"
