#!/usr/bin/env bash
# Offline release build of the benchmark package, then the run. Call it
# from the repository root; arguments go to the benchmark unchanged, e.g.
#   bash benchmark/run.sh --workload ycsb_a_tight --seed 42 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_GIT_REV
# glibc moves its mmap threshold when a large block is first freed, after
# which a set-up may or may not get recycled heap instead of fresh pages:
# peak memory and set-up time then come in two modes. Pin the threshold so
# that the simulated memories (tens of MiB each) are always mapped afresh.
export MALLOC_MMAP_THRESHOLD_=1048576
exec "$target/release/viyojit-benchmark" "$@"
