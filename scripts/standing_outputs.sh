#!/usr/bin/env bash
# Write the standing outputs of one source tree: every simulate file at the
# standing configurations, plus scenario and report stdout.  Two trees that
# should behave the same are compared with `diff -r` on their output dirs:
#
#   scripts/standing_outputs.sh OLD_TREE old_out
#   scripts/standing_outputs.sh NEW_TREE new_out
#   diff -r old_out new_out
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SOURCE_TREE OUT_DIR" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
cd "$out"   # no `elections` package here to shadow the tree's

run() {
    PYTHONPATH="$tree/src" OPENBLAS_NUM_THREADS=1 python3 -m elections.cli "$@"
}

simulate() {
    local name=$1
    shift
    run simulate --emit-trials --out "$out/$name" "$@"
    run report "$out/$name/run_summary.json" > "$out/$name/report.txt"
}

simulate t20000_s0 --trials 20000 --seed 0
simulate t30000_s9 --trials 30000 --seed 9 --bins 7 --k-values 0 1 2 5 100
simulate t1000000_s1_threads2 --trials 1000000 --seed 1 --threads 2
for n in 1 2 7 33; do
    simulate "t${n}_s0" --trials "$n"
done
# one more row than a whole number of chunks, then two chunks and one row
simulate t2049_s6 --trials 2049 --seed 6
simulate t6145_s20 --trials 6145 --seed 20
run scenario > "$out/scenario.txt"
