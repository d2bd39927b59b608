#!/usr/bin/env bash
# Virtual-plane identity gate for the repo benchmark.
#
# A host-side optimisation must leave every simulated statistic where it
# was. `virt_digest` hashes a workload's virtual-time results, so this
# script runs each workload of BENCHMARK.json at the seed and length of
# the committed baseline and fails on a digest that differs from the
# seed-1000 run record in benchmark/BASELINE.jsonl, on a workload with no
# such record, and on any failed operation. The sharded frontend is one
# driver behind two transports, so shard_par must also print shard_seq's
# digest.
#
# Call it from anywhere; CARGO_TARGET_DIR is honoured (see run.sh).
set -euo pipefail

cd "$(dirname "$0")/.."
seed=1000
baseline=benchmark/BASELINE.jsonl
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
[ -n "$workloads" ] || { echo "digests: BENCHMARK.json names no workloads" >&2; exit 1; }

status=0
declare -A printed
for workload in $workloads; do
    want=$(jq -r --arg w "$workload" --argjson s "$seed" \
        'select(.record == "run" and .workload == $w and .seed == $s) | .virt_digest' \
        "$baseline")
    if [ -z "$want" ]; then
        echo "digests: FAIL $workload: no seed-$seed run record in $baseline" >&2
        status=1
        continue
    fi
    # run.sh itself exits non-zero on `"correct": false`.
    out=$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0)
    got=$(awk '$1 == "virt_digest" { print $2 }' <<<"$out")
    failed=$(tail -n 1 <<<"$out" | jq -r '.failed')
    printed[$workload]=$got
    if [ "$got" != "$want" ]; then
        echo "digests: FAIL $workload: virt_digest $got, baseline $want" >&2
        status=1
    elif [ "$failed" != 0 ]; then
        echo "digests: FAIL $workload: $failed operations failed" >&2
        status=1
    else
        echo "digests: ok   $workload $got"
    fi
done

if [ "${printed[shard_seq]:-seq}" != "${printed[shard_par]:-par}" ]; then
    echo "digests: FAIL shard_par printed ${printed[shard_par]:-nothing}," \
         "shard_seq ${printed[shard_seq]:-nothing}" >&2
    status=1
fi
exit $status
