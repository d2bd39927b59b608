#!/usr/bin/env bash
# Virtual-plane identity gate for the repo benchmark.
#
# A host-side optimisation must leave every simulated statistic where it
# was. `virt_digest` hashes a workload's virtual-time results, so this
# script runs each workload of BENCHMARK.json for 10 s at seed 1000 and
# fails on a digest that differs from its `workload seed digest` row in
# results/virt_digests.txt, on a workload with no such row, and on any
# failed operation. The sharded frontend is one driver behind two
# transports, so shard_par must also print shard_seq's digest.
#
#   scripts/check_virt_digests.sh [--bless]
#
# `--bless` rewrites results/virt_digests.txt from this run instead of
# comparing (only with a change that moves virtual results on purpose, and
# with the old and new digests in CHANGES.md); the failed-operation and
# shard_par = shard_seq checks hold for a blessing run too.
#
# Call it from anywhere; CARGO_TARGET_DIR is honoured (see run.sh).
set -euo pipefail

cd "$(dirname "$0")/.."
seed=1000
golden=results/virt_digests.txt
bless=0
if [[ "${1:-}" == "--bless" ]]; then
    bless=1
fi
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
[ -n "$workloads" ] || { echo "digests: BENCHMARK.json names no workloads" >&2; exit 1; }

status=0
declare -A printed
for workload in $workloads; do
    want=
    if (( ! bless )); then
        want=$(awk -v w="$workload" -v s="$seed" '$1 == w && $2 == s { print $3 }' "$golden")
        if [ -z "$want" ]; then
            echo "digests: FAIL $workload: no seed-$seed row in $golden" >&2
            status=1
            continue
        fi
    fi
    # run.sh itself exits non-zero on `"correct": false`.
    out=$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0)
    got=$(awk '$1 == "virt_digest" { print $2 }' <<<"$out")
    failed=$(tail -n 1 <<<"$out" | jq -r '.failed')
    printed[$workload]=$got
    if [ -z "$got" ]; then
        echo "digests: FAIL $workload: the run printed no virt_digest" >&2
        status=1
    elif [ "$failed" != 0 ]; then
        echo "digests: FAIL $workload: $failed operations failed" >&2
        status=1
    elif (( bless )); then
        echo "digests: new  $workload $got"
    elif [ "$got" != "$want" ]; then
        echo "digests: FAIL $workload: virt_digest $got, $golden has $want" >&2
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

if (( bless )) && [ $status == 0 ]; then
    for workload in $workloads; do
        echo "$workload $seed ${printed[$workload]}"
    done >"$golden"
    echo "blessed: $golden rewritten from this run"
fi
exit $status
