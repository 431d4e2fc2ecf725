#!/usr/bin/env bash
# Collects a result set for `--compare`: runs each workload RUNS times,
# with seeds FIRST_SEED, FIRST_SEED+1, ..., each run in its own process,
# and appends each run's result line to OUT_DIR/<workload>.jsonl.
#
#   bash perfbench/collect.sh OUT_DIR RUNS FIRST_SEED [WORKLOAD ...]
#
# Run from the repository root. The run length is BENCHMARK.json's
# run_seconds; tracing is off. Compare two sets with
#   perfbench/target/release/baldur-perfbench --compare SET_A SET_B
set -euo pipefail
out=$1
runs=$2
first=$3
shift 3
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(baldur_scale paper_lineup overload_storm)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/baldur-perfbench"
mkdir -p "$out"
for ((i = 0; i < runs; i++)); do
    for w in "${workloads[@]}"; do
        seed=$((first + i))
        line=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
        echo "$line" >>"$out/$w.jsonl"
        echo "$w seed $seed: $line"
    done
done
