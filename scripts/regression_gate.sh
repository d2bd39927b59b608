#!/usr/bin/env bash
# Byte-identical regression gate over every committed output.
#
# Every figure and extension experiment is a deterministic function of
# seeded `sim_clock::SplitMix64` streams, so any host-side change to the
# simulator must be observationally invisible: same virtual time, same
# victim order, same stats. This script reruns every experiment whose
# stdout is committed under results/ — the rows `viyojit-bench list`
# prints with a golden, from the one experiment table in
# crates/bench/src/experiments/mod.rs — and fails on any byte difference,
# on a file in results/ that no run produces, and on a run whose file is
# missing. EXPERIMENTS.md compares each output with the paper.
#
#   scripts/regression_gate.sh [--bless] [cargo build arguments...]
#
# `--bless` rewrites results/ from this run instead of comparing (only
# after an *intentional* semantic change; refresh the numbers EXPERIMENTS.md,
# README.md and DESIGN.md quote in the same commit). Anything else is handed
# to `cargo build`, e.g. `--locked --offline` as CI does (the workspace has
# no external crate to fetch). CARGO_TARGET_DIR is honoured.
set -euo pipefail

cd "$(dirname "$0")/.."
results=results
bless=0
if [[ "${1:-}" == "--bless" ]]; then
    bless=1
    shift
fi

cargo build --release -p viyojit-bench "$@"
bench="${CARGO_TARGET_DIR:-target}/release/viyojit-bench"

# (csv, experiment, arguments) for every experiment with a golden, longest
# first: `list` prints `<experiment> [<csv> [arguments...]]` per row.
runs=()
while read -r name csv args; do
    if [[ -n "$csv" ]]; then
        runs+=("$csv $name $args")
    fi
done < <("$bench" list)
(( ${#runs[@]} > 0 )) || { echo "gate: viyojit-bench list names no golden" >&2; exit 1; }

# The committed wall-clock artifact must carry the density sweep the
# CI gate compares against: the high-density cells and the uniform-runs
# layout (whole 512-page clusters dirty). An artifact blessed
# before the density-adaptive dispatch landed lacks them, and the gate
# would silently check nothing — fail loudly instead.
artifact=BENCH_wallclock.json
for needle in '"schema_version": 2' '"layout": "uniform_runs"' '"density": 0.5' \
              '"fault_flush_ns_optimized"' '"epoch_walk_speedup"'; do
    if ! grep -qF "$needle" "$artifact"; then
        echo "gate: $artifact lacks $needle — re-bless with" \
             "'cargo run --release -p viyojit-bench -- wallclock --out $artifact'" >&2
        exit 1
    fi
done
echo "gate: $artifact carries the full density sweep"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run per core at a time.
slots=$(nproc)
for run in "${runs[@]}"; do
    read -r csv name args <<<"$run"
    while (( $(jobs -rp | wc -l) >= slots )); do
        wait -n || true
    done
    # shellcheck disable=SC2086 # args is a word list by construction
    ( "$bench" "$name" $args >"$out/$csv" 2>"$out/$csv.err" || echo "exit $?" >"$out/$csv.failed" ) &
done
wait

status=0
for run in "${runs[@]}"; do
    read -r csv name _ <<<"$run"
    if [[ -f "$out/$csv.failed" ]]; then
        echo "gate: $name FAILED ($(cat "$out/$csv.failed")):" >&2
        tail -n 20 "$out/$csv.err" >&2
        status=1
    fi
done
[[ $status == 0 ]] || exit $status

if (( bless )); then
    mkdir -p "$results"
    rm -f "$results"/*.csv
    for run in "${runs[@]}"; do
        read -r csv _ <<<"$run"
        cp "$out/$csv" "$results/$csv"
    done
    echo "blessed: $results/ rewritten from this run (${#runs[@]} files)"
    exit 0
fi

for run in "${runs[@]}"; do
    read -r csv _ <<<"$run"
    if [[ ! -f "$results/$csv" ]]; then
        echo "gate: MISSING $results/$csv — run scripts/regression_gate.sh --bless" \
             "after reviewing the new output" >&2
        status=1
    elif cmp -s "$results/$csv" "$out/$csv"; then
        echo "gate: $csv identical"
    else
        echo "gate: $csv DIFFERS from $results/$csv:"
        diff "$results/$csv" "$out/$csv" | head -20 || true
        status=1
    fi
done
for committed in "$results"/*.csv; do
    if [[ ! -f "$out/$(basename "$committed")" ]]; then
        echo "gate: $committed is produced by no run in this script" >&2
        status=1
    fi
done
exit $status
