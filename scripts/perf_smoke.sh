#!/usr/bin/env bash
# Perf smoke check: a crash and gross-slowdown tripwire, not a perf
# record (perfbench/, declared in BENCHMARK.json, is the measured
# benchmark).  Runs every bench listed in bench/perf_baseline.txt and
# fails when one is missing, exits non-zero, or takes longer than
# MARGIN x its stored baseline seconds.  Also prints the sharded
# Monte-Carlo engine's thread-scaling efficiency
# ("parallel-efficiency@4" from bench_sim_montecarlo) and warns when
# it drops under EFF_WARN_THRESHOLD — a warning, not a failure,
# because CI runners and laptops legitimately have fewer than 4
# cores.
#
# Usage: scripts/perf_smoke.sh [build-dir]
#
# The baseline file holds "<bench-binary> <baseline-seconds>" pairs;
# baselines are deliberately loose (they bound machine-class, not
# noise) and the 3x margin on top makes the check a tripwire for
# pathological slowdowns, not a micro-benchmark.
set -euo pipefail

BUILD_DIR="${1:-build}"
BASELINE_FILE="$(dirname "$0")/../bench/perf_baseline.txt"
MARGIN=3
EFF_WARN_THRESHOLD=0.6

fail=0
outfile=$(mktemp)
trap 'rm -f "$outfile"' EXIT
efficiency=""

while read -r name baseline; do
    case "$name" in
      ''|\#*) continue ;;
    esac
    bin="$BUILD_DIR/$name"
    if [[ ! -x "$bin" ]]; then
        echo "perf-smoke: MISSING $bin" >&2
        fail=1
        continue
    fi
    start=$(date +%s%N)
    if ! "$bin" > "$outfile"; then
        echo "perf-smoke: CRASH $name" >&2
        fail=1
        continue
    fi
    end=$(date +%s%N)
    elapsed=$(awk -v s="$start" -v e="$end" \
        'BEGIN { printf "%.3f", (e - s) / 1e9 }')
    limit=$(awk -v b="$baseline" -v m="$MARGIN" \
        'BEGIN { printf "%.3f", b * m }')
    if awk -v e="$elapsed" -v l="$limit" \
        'BEGIN { exit !(e > l) }'; then
        echo "perf-smoke: FAIL $name took ${elapsed}s" \
             "(baseline ${baseline}s, limit ${limit}s)" >&2
        fail=1
    else
        echo "perf-smoke: OK   $name ${elapsed}s" \
             "(baseline ${baseline}s, limit ${limit}s)"
    fi
    if [[ "$name" == "bench_sim_montecarlo" ]]; then
        efficiency=$(awk '/^parallel-efficiency@4:/ { print $2 }' \
            "$outfile")
    fi
done < "$BASELINE_FILE"

# Thread-scaling efficiency of the sharded Monte-Carlo engine.
if [[ -n "$efficiency" ]]; then
    if awk -v e="$efficiency" -v t="$EFF_WARN_THRESHOLD" \
        'BEGIN { exit !(e < t) }'; then
        echo "perf-smoke: WARN thread-scaling efficiency@4 =" \
             "$efficiency (< $EFF_WARN_THRESHOLD; expected on" \
             "< 4-core machines, investigate on larger ones)"
    else
        echo "perf-smoke: OK   thread-scaling efficiency@4 =" \
             "$efficiency (threshold $EFF_WARN_THRESHOLD)"
    fi
else
    echo "perf-smoke: WARN no parallel-efficiency@4 line from" \
         "bench_sim_montecarlo"
fi

exit "$fail"
