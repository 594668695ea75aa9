#!/usr/bin/env bash
# Writes results/perfbench_baseline.json, the medians the benchmark gate in
# scripts/check.sh compares against: five untraced seed-7 runs of every
# BENCHMARK.json workload, in rotated order, each run with BENCHMARK.json's
# own command and run length. Run it on a quiet machine, on the tree being
# committed; every run must be `correct`.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5
seed=7
seconds="$(sed -n 's/^ *"run_seconds": \([0-9.]*\),$/\1/p' BENCHMARK.json)"
mapfile -t bench_cmd < <(sed -n '/"command": \[/,/\]/s/^ *"\([^"]*\)",\{0,1\}$/\1/p' BENCHMARK.json)
mapfile -t workloads < <(sed -n '/"workloads": \[/,/\]/s/^ *"name": "\(.*\)",$/\1/p' BENCHMARK.json)
mapfile -t metrics < <(sed -n '/"end_to_end": \[/,/\]/s/^ *"name": "\(.*\)",$/\1/p' BENCHMARK.json)

samples="$(mktemp)"
out="$(mktemp)"
for round in $(seq 0 $((runs - 1))); do
    for i in "${!workloads[@]}"; do
        workload="${workloads[$(((i + round) % ${#workloads[@]}))]}"
        "${bench_cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 >"$out" 2>/dev/null
        if ! grep -q '^{"correct":true,' "$out"; then
            echo "perfbench_baseline.sh: $workload run $round is not correct" >&2
            exit 1
        fi
        record="$(grep '^record: ' "$out")"
        for metric in "${metrics[@]}"; do
            awk -v w="$workload" -v m="$metric" '$1 == m { print w, m, $2 }' "$out" >>"$samples"
        done
        echo "perfbench_baseline.sh: round $round $workload done" >&2
    done
done
commit="$(sed -n 's/.*"commit":"\([^"]*\)".*/\1/p' <<<"$record")"
nproc="$(sed -n 's/.*"nproc":\([0-9]*\),.*/\1/p' <<<"$record")"
profile="$(sed -n 's/.*"profile":"\([^"]*\)".*/\1/p' <<<"$record")"

median() {
    awk -v w="$1" -v m="$2" '$1 == w && $2 == m { print $3 }' "$samples" | sort -g |
        awk '{ v[NR] = $1 } END { print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}
{
    echo "{"
    echo "  \"commit\": \"$commit\","
    echo "  \"nproc\": $nproc,"
    echo "  \"profile\": \"$profile\","
    echo "  \"seed\": $seed,"
    echo "  \"seconds\": $seconds,"
    echo "  \"runs\": $runs,"
    echo "  \"workloads\": {"
    for i in "${!workloads[@]}"; do
        workload="${workloads[$i]}"
        fields=""
        for metric in "${metrics[@]}"; do
            fields+="${fields:+, }\"$metric\": $(median "$workload" "$metric")"
        done
        sep=","
        [ "$i" -eq $((${#workloads[@]} - 1)) ] && sep=""
        echo "    \"$workload\": {$fields}$sep"
    done
    echo "  }"
    echo "}"
} >results/perfbench_baseline.json
rm -f "$samples" "$out"
echo "perfbench_baseline.sh: wrote results/perfbench_baseline.json" >&2
