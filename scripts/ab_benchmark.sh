#!/usr/bin/env bash
# Host-time A/B of the repo benchmark: a parent revision against the
# working tree.
#
# `host_ops_per_s` on a shared 2-core host drifts by more between minutes
# than most changes move it, so the only fair comparison alternates the two
# builds run by run. This script clones the parent revision, builds its
# benchmark/ and the working tree's into two target directories of their
# own, and then, per workload, runs N pairs of end-to-end runs — which side
# goes first alternates from pair to pair — before handing the two result
# files to `viyojit-benchmark compare` (a = parent, b = working tree), which
# prints medians and quartiles, and counting from the same two files how
# many pairs the working tree won on each end-to-end metric, in the
# direction BENCHMARK.json calls better — so a memory claim and its
# host-time guards come from one run. It edits nothing under benchmark/.
# Run nothing else on the machine meanwhile.
#
#   scripts/ab_benchmark.sh [-n pairs] [-s seed] [-t 0|1] [-d dir] <parent-rev> [workload...]
#
#   -n  pairs per workload (default 10, the fewest a gain may be claimed on)
#   -s  traffic seed (default 42; a claim must also hold on one not used
#       while the change was written, e.g. 1000)
#   -t  1 for traced runs: the per-layer table instead of the end-to-end one
#   -d  where the clone, the two target directories and the result files
#       go (default: the git-ignored .bench_build/ab of this checkout,
#       whose builds the next call reuses)
#
# No workload named means all of BENCHMARK.json's. Needs `jq`, which reads
# the end-to-end metrics from there too.
set -euo pipefail
usage="usage: $0 [-n pairs] [-s seed] [-t 0|1] [-d dir] <parent-rev> [workload...]"

pairs=10
seed=42
trace=0
dir=
while getopts "n:s:t:d:" opt; do
    case "$opt" in
        n) pairs=$OPTARG ;;
        s) seed=$OPTARG ;;
        t) trace=$OPTARG ;;
        d) dir=$OPTARG ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
rev=$1
shift

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$repo/BENCHMARK.json")
fi
[ ${#workloads[@]} -gt 0 ] || { echo "ab: no workloads to run" >&2; exit 1; }
# "name better" per end-to-end metric, space-separated, in file order.
metrics="$(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$repo/BENCHMARK.json" | tr '\n' ' ')"

mkdir -p "${dir:=$repo/.bench_build/ab}"
dir="$(cd "$dir" && pwd)"

[ -d "$dir/parent/.git" ] || git clone --quiet "$repo" "$dir/parent"
git -C "$dir/parent" fetch --quiet origin
git -C "$dir/parent" checkout --quiet --detach "$(git -C "$repo" rev-parse "$rev^{commit}")"

build() { # <checkout> <target dir>
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2" >&2
}
build "$dir/parent" "$dir/target-a"
build "$repo" "$dir/target-b"

# What benchmark/run.sh exports before it execs the binary.
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_RUSTC
export MALLOC_MMAP_THRESHOLD_=1048576
rev_a="$(git -C "$dir/parent" rev-parse --short HEAD)"
rev_b="$(git -C "$repo" rev-parse --short HEAD)+worktree"

out_a="$dir/a.seed$seed.trace$trace.jsonl"
out_b="$dir/b.seed$seed.trace$trace.jsonl"
rm -f "$out_a" "$out_b"

run() { # <a|b> <workload>
    local out rev
    if [ "$1" = a ]; then out=$out_a rev=$rev_a; else out=$out_b rev=$rev_b; fi
    # A run that fails an operation exits non-zero and stops the script.
    BENCH_GIT_REV=$rev "$dir/target-$1/release/viyojit-benchmark" \
        --workload "$2" --seed "$seed" --seconds 10 --trace "$trace" --out "$out" |
        awk -v side="$1" -v w="$2" \
            '$1 == "host_ops_per_s" || $1 == "peak_rss_mib" || $1 == "untraced_op_ns" {
                print "ab:", side, w, $1, $2
            }'
}

for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        if ((pair % 2 == 0)); then
            run a "$workload"
            run b "$workload"
        else
            run b "$workload"
            run a "$workload"
        fi
    done
done

echo "ab: a = $rev_a ($out_a)"
echo "ab: b = $rev_b ($out_b)"
# The i-th run of a workload in one file and the i-th in the other are a
# pair; b wins it on a metric if its value is better in that metric's
# direction. Each line also says where b's median lies against a's q1..q3
# (quartiles as `compare` computes them): a claimed gain needs b to win
# nine pairs in ten *and* its median outside that range on the better
# side. A metric a traced run does not record (host_ops_per_s) counts no
# pairs and prints no line.
awk -v file_a="$out_a" -v metrics="$metrics" '
    function field(key,    m) {
        if (!match($0, "\"" key "\":\"?[^\",}]*")) return ""
        m = substr($0, RSTART, RLENGTH)
        sub("^\"" key "\":\"?", "", m)
        return m
    }
    # Quartile i (1..3) of side s, workload w, metric m, over its first
    # n >= 2 runs, by the exclusive method of benchmark/src/stats.rs.
    function quartile(s, w, m, n, i,    k, l, v, sorted, j, delta) {
        for (k = 1; k <= n; k++) {
            v = value[s, w, m, k]
            for (l = k - 1; l >= 1 && sorted[l] > v; l--) sorted[l + 1] = sorted[l]
            sorted[l + 1] = v
        }
        j = int(i * (n + 1) / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        delta = i * (n + 1) - j * 4
        return (sorted[j] * (4 - delta) + sorted[j + 1] * delta) / 4
    }
    BEGIN {
        n = split(metrics, spec, " ")
        for (i = 1; i < n; i += 2) { names[++nmetrics] = spec[i]; better[spec[i]] = spec[i + 1] }
    }
    field("record") == "metric" && (field("name") in better) {
        w = field("workload")
        m = field("name")
        side = FILENAME == file_a ? "a" : "b"
        if (!((w) in seen)) { seen[w]; order[++workloads] = w }
        value[side, w, m, ++runs[side, w, m]] = field("value") + 0
    }
    END {
        for (i = 1; i <= workloads; i++) {
            w = order[i]
            for (j = 1; j <= nmetrics; j++) {
                m = names[j]
                pairs = runs["a", w, m] < runs["b", w, m] ? runs["a", w, m] : runs["b", w, m]
                if (pairs == 0) continue
                won = ties = 0
                for (p = 1; p <= pairs; p++) {
                    a = value["a", w, m, p]
                    b = value["b", w, m, p]
                    if (a == b) ties++
                    else won += (better[m] == "higher") == (b > a)
                }
                printf "ab: %s %s (%s is better) b won %d of %d pairs (ties %d)",
                    w, m, better[m], won, pairs, ties
                if (pairs < 2) { print ""; continue }
                median = quartile("b", w, m, pairs, 2)
                q1 = quartile("a", w, m, pairs, 1)
                q3 = quartile("a", w, m, pairs, 3)
                if (median >= q1 && median <= q3) where = "inside"
                else if ((better[m] == "higher") == (median > q3)) where = "outside, better"
                else where = "outside, worse"
                printf "; b median %.6g %s a q1..q3 %.6g..%.6g\n", median, where, q1, q3
            }
        }
    }
' "$out_a" "$out_b"
"$dir/target-b/release/viyojit-benchmark" compare --a "$out_a" --b "$out_b"
