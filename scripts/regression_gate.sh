#!/usr/bin/env bash
# Byte-identical regression gate for the virtual-time benches.
#
# The page-state bitmaps (and any future wall-clock optimisation of the
# simulator) must be observationally invisible: same virtual time, same
# victim order, same stats. This script reruns the benches whose
# outputs are committed as goldens and fails on any byte difference.
#
# Regenerate the goldens (only after an *intentional* semantic change):
#   scripts/regression_gate.sh --bless
set -euo pipefail

cd "$(dirname "$0")/.."
golden=results/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build --release -p viyojit-bench --bins

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
             "'cargo run --release -p viyojit-bench --bin wallclock -- --out $artifact'" >&2
        exit 1
    fi
done
echo "gate: $artifact carries the full density sweep"

./target/release/fault_storm 5 >"$out/fault_storm_5.csv"
./target/release/shard_scaling >"$out/shard_scaling.csv"
./target/release/fig7 >"$out/fig7.csv"
./target/release/tenant_storm 42 --check >"$out/tenant_storm.csv"

if [[ "${1:-}" == "--bless" ]]; then
    cp "$out"/*.csv "$golden"/
    echo "blessed: goldens updated from this run"
    exit 0
fi

status=0
for f in fault_storm_5.csv shard_scaling.csv fig7.csv tenant_storm.csv; do
    if [[ ! -f "$golden/$f" ]]; then
        echo "gate: MISSING golden $golden/$f — run scripts/regression_gate.sh --bless" \
             "after reviewing the new bench output" >&2
        status=1
        continue
    fi
    if cmp -s "$golden/$f" "$out/$f"; then
        echo "gate: $f identical"
    else
        echo "gate: $f DIFFERS from $golden/$f:"
        diff "$golden/$f" "$out/$f" | head -20 || true
        status=1
    fi
done
exit $status
