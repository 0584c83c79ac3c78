#!/usr/bin/env bash
# Model digest gate: run perfbench once per workload at seed 42 and diff
# the printed `digest` lines (FNV-1a over every simulated statistic of
# every job) against tools/model_digests.txt.
#
# A change that only makes the simulator faster must leave every digest
# as it is; a differing digest means the simulated output changed. Edit
# tools/model_digests.txt only for a deliberate model change, and say
# why in CHANGES.md. Takes about a minute on 2 CPUs after the build.

set -euo pipefail
cd "$(dirname "$0")/.."

got=$(mktemp)
trap 'rm -f "$got"' EXIT

for w in dense_sgemm dense_lbm latency_sweep matrix_fast; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 42 --seconds 1 --trace 0 | grep '^digest'
done > "$got"

if diff -u tools/model_digests.txt "$got"; then
    echo "model digests: ok ($(wc -l < "$got" | tr -d ' ') workloads)"
else
    echo "model digests: FAILED — the simulated output changed" >&2
    exit 1
fi
