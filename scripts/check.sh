#!/usr/bin/env bash
# Tier-1 gate: what CI runs, runnable locally. Builds everything, runs the
# full test suite, holds the workspace to warning-free clippy, and gates the
# benchmark (perfbench) against its committed baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# The benchmark lives outside the workspace, so the workspace build never
# compiles it: build and unit-test it here so a serve or core API change
# that breaks it fails the gate.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Serve smoke test: start the service on an ephemeral port, probe every
# user-facing endpoint with the std-only client, and shut down cleanly.
# No curl, no python — serve-probe is built from crates/serve/src/bin.
serve_log="$(mktemp)"
./target/release/permadead serve --port 0 --seed 11 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "check.sh: permadead serve died before listening" >&2
        cat "$serve_log" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "check.sh: permadead serve never reported its address" >&2
    cat "$serve_log" >&2
    exit 1
fi

probe=./target/release/serve-probe
"$probe" "$addr" /healthz ok >/dev/null
"$probe" "$addr" /healthz '"watchlist"' >/dev/null
"$probe" "$addr" '/check?url=http%3A%2F%2Fexample.org%2Fsmoke' '"verdict":' >/dev/null
"$probe" "$addr" /metrics permadead_cache_hits_total >/dev/null
"$probe" "$addr" /metrics 'permadead_requests_total{endpoint="check"}' >/dev/null
"$probe" "$addr" /metrics permadead_watchlist_size >/dev/null
"$probe" "$addr" /metrics 'permadead_watch_state{state="healthy"}' >/dev/null
"$probe" "$addr" /metrics 'permadead_watch_policy{policy="iabot-strikes"}' >/dev/null
# rescue series render even with no --rediscovery index (all zeros), so
# dashboards never see the metric set change shape
"$probe" "$addr" /metrics permadead_rescue_queries_total >/dev/null
"$probe" "$addr" /metrics permadead_rescue_rescued_total >/dev/null
"$probe" "$addr" /metrics permadead_rescue_index_pages >/dev/null

# Reactor smoke: the event-driven server's own series render, and the
# golden request sequence above produced exactly the counters the blocking
# path used to produce (one /check, all of it 2xx, nothing aborted).
"$probe" "$addr" /metrics permadead_serve_open_connections >/dev/null
"$probe" "$addr" /metrics 'permadead_serve_write_aborted_total 0' >/dev/null
"$probe" "$addr" /metrics 'permadead_requests_total{endpoint="check"} 1' >/dev/null
"$probe" "$addr" /metrics 'permadead_responses_total{class="5xx"} 0' >/dev/null
echo "check.sh: reactor metrics parity green"

# 10k concurrent connections: a second process holds 10000 idle sockets
# mid-request while a fresh /healthz must still answer promptly. Split
# across two processes so each side stays under the per-process fd limit.
"$probe" "$addr" --flood 10000
echo "check.sh: reactor 10k-connection flood green"

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"
echo "check.sh: serve smoke test green"

# Fault campaign: the service under injected origin faults, with and without
# retries — exact per-cause /metrics counters against a local replay.
cargo test -q --offline -p permadead-serve --test fault_campaign
echo "check.sh: fault campaign green"

# Retry-counterfactual golden: the §4.1 table is a pure function of
# (seed, scale); a drift in any rescued/retries-spent cell on the pinned
# seed means a retry-subsystem regression.
retry_out="$(mktemp)"
PERMADEAD_SEED=42 PERMADEAD_SCALE=small PERMADEAD_RETRY_MAX=5 \
    ./target/release/repro_retry_table >"$retry_out" 2>/dev/null
if ! diff -u results/RETRY_TABLE_seed42.txt "$retry_out"; then
    echo "check.sh: retry counterfactual drifted from results/RETRY_TABLE_seed42.txt" >&2
    exit 1
fi
rm -f "$retry_out"
echo "check.sh: retry-table golden green"

# Watch-timeline golden: 30 simulated days of IABot-style continuous
# re-checking on the pinned seed. The table is a pure function of
# (seed, scale, sample, days, cadence, strikes) and identical for every
# --jobs, so any byte of drift is a scheduler regression.
watch_out="$(mktemp)"
./target/release/permadead watch --seed 42 --jobs 4 >"$watch_out" 2>/dev/null
if ! diff -u results/WATCH_TIMELINE_seed42.txt "$watch_out"; then
    echo "check.sh: watch timeline drifted from results/WATCH_TIMELINE_seed42.txt" >&2
    exit 1
fi
rm -f "$watch_out"
echo "check.sh: watch-timeline golden green"

# Policy-lab golden: the precision/recall scoreboard over the ground-truth
# fault lab, every policy × every profile. Pure function of (seed, days) —
# no world generation — so any drift is a policy or scheduler regression.
policy_out="$(mktemp)"
PERMADEAD_SEED=42 PERMADEAD_JOBS=4 \
    ./target/release/repro_policy_table >"$policy_out" 2>/dev/null
if ! diff -u results/POLICY_TABLE_seed42.txt "$policy_out"; then
    echo "check.sh: policy scoreboard drifted from results/POLICY_TABLE_seed42.txt" >&2
    exit 1
fi
rm -f "$policy_out"
echo "check.sh: policy-table golden green"

# Rediscovery-rescue golden: the E19 ladder (archive rescues vs
# lexical-signature rediscovery vs the ground-truth ceiling) is a pure
# function of (seed, scale) and identical for every PERMADEAD_JOBS; the
# binary itself asserts the extra rescue rate is strictly positive.
rescue_out="$(mktemp)"
PERMADEAD_SEED=42 PERMADEAD_SCALE=small PERMADEAD_JOBS=4 \
    ./target/release/repro_rescue_table >"$rescue_out" 2>/dev/null
if ! diff -u results/RESCUE_TABLE_seed42.txt "$rescue_out"; then
    echo "check.sh: rescue table drifted from results/RESCUE_TABLE_seed42.txt" >&2
    exit 1
fi
rm -f "$rescue_out"
echo "check.sh: rescue-table golden green"

# World-cache round trip: `audit --world-cache` must miss (generate + save),
# then hit (decode the snapshot), and print the identical report — only the
# per-stage wall-clock latency rows may differ. Then the world-scale bench
# must run end to end and persist its JSON summary.
world_dir="$(mktemp -d)"
audit_miss="$(mktemp)"
audit_hit="$(mktemp)"
cache_log="$(mktemp)"
./target/release/permadead audit --seed 42 --world-cache "$world_dir" 2>"$cache_log" \
    | grep -v ' hits ' >"$audit_miss"
grep -q 'world cache miss' "$cache_log"
./target/release/permadead audit --seed 42 --world-cache "$world_dir" 2>"$cache_log" \
    | grep -v ' hits ' >"$audit_hit"
grep -q 'world cache hit' "$cache_log"
if ! diff -u "$audit_miss" "$audit_hit"; then
    echo "check.sh: snapshot-backed audit drifted from the generated audit" >&2
    exit 1
fi
results_tmp="$(mktemp -d)"
PERMADEAD_RESULTS_DIR="$results_tmp" PERMADEAD_WORLD_CACHE="$world_dir" \
    ./target/release/repro_world_scale >/dev/null
if [ ! -s "$results_tmp/BENCH_world.json" ]; then
    echo "check.sh: repro_world_scale did not persist BENCH_world.json" >&2
    exit 1
fi
rm -rf "$world_dir" "$results_tmp" "$audit_miss" "$audit_hit" "$cache_log"
echo "check.sh: world-cache round trip green"

# Unknown flags and degenerate policy specs must fail fast, before any
# world generation.
if ./target/release/permadead watch --no-such-flag 2>/dev/null; then
    echo "check.sh: permadead watch accepted an unknown flag" >&2
    exit 1
fi
if ./target/release/permadead watch --policy bogus 2>/dev/null; then
    echo "check.sh: permadead watch accepted an unknown policy" >&2
    exit 1
fi
if ./target/release/permadead watch --strikes 0 2>/dev/null; then
    echo "check.sh: permadead watch accepted --strikes 0" >&2
    exit 1
fi
if ./target/release/permadead watch --rediscovery bogus 2>/dev/null; then
    echo "check.sh: permadead watch accepted --rediscovery bogus" >&2
    exit 1
fi
echo "check.sh: watch flag validation green"

# Serve bench: a fresh connection per request, directly comparable to the
# historical thread-per-connection line (~8.4k req/s). perfbench holds
# keep-alive connections only, so this is the one connection-setup gate.
# The JSON line persists into a temp results dir, leaving the tree clean.
results_tmp="$(mktemp -d)"
bench_close="$(PERMADEAD_RESULTS_DIR="$results_tmp" \
    ./target/release/bench-serve --requests 2000 --clients 8 2>/dev/null | tail -1)"
if [ ! -s "$results_tmp/BENCH_serve.json" ]; then
    echo "check.sh: bench-serve did not persist BENCH_serve.json" >&2
    exit 1
fi
rm -rf "$results_tmp"
close_rps="$(sed -n 's/.*"requests_per_sec":\([0-9.]*\).*/\1/p' <<<"$bench_close")"
echo "check.sh: bench-serve close=${close_rps} req/s"
# floor well above the old blocking server's ~8.4k so a regression back to
# thread-per-connection behavior fails loudly, with margin for CI noise
# (the reactor measures ~26k on the 1-core container)
if ! awk -v rps="$close_rps" 'BEGIN { exit !(rps >= 12000) }'; then
    echo "check.sh: close-mode throughput ${close_rps} req/s under the 12k floor" >&2
    exit 1
fi
echo "check.sh: serve bench green"

# Benchmark gate: an untraced pass of every BENCHMARK.json workload, run
# with BENCHMARK.json's own command at the seed and run length of the
# committed medians in results/perfbench_baseline.json (written by
# scripts/perfbench_baseline.sh). A pass must be `correct`, and ok_ratio,
# max_rate_rps and rechecks_per_s must each be no worse than
# baseline × (1 − bound), the bound read from BENCHMARK.json. A workload
# that misses gets one more pass and fails the gate only if both miss: on a
# shared 2-core VM a stolen-CPU stall can fail a whole rate step (10 check-hot
# runs of one tree read max_rate_rps 32000 six times, 16000 three times and
# 0 once), while a real regression or a wrong answer misses every pass.
# setup_s and peak_rss_mb are printed, not gated: their run-to-run spread
# there is wider than their bounds. On a box whose core count differs from
# the baseline's, max_rate_rps is not comparable; it is held instead to the
# floors of the gates this one replaced (check-hot 12k req/s, the old
# keep-alive bench-serve floor; check-watch 1k req/s, its lowest step, above
# the old open-loop smoke's 200 req/s).
baseline=results/perfbench_baseline.json
mapfile -t bench_cmd < <(sed -n '/"command": \[/,/\]/s/^ *"\([^"]*\)",\{0,1\}$/\1/p' BENCHMARK.json)
bench_bound() {
    sed -n "/\"name\": \"$1\"/,/\"bound\"/s/.*\"bound\": \([0-9.]*\).*/\1/p" BENCHMARK.json
}
baseline_value() {
    sed -n "s/.*\"$1\": {.*\"$2\": \([-0-9.e+]*\).*/\1/p" "$baseline"
}
base_seed="$(sed -n 's/^ *"seed": \([0-9]*\),$/\1/p' "$baseline")"
base_seconds="$(sed -n 's/^ *"seconds": \([0-9.]*\),$/\1/p' "$baseline")"
base_nproc="$(sed -n 's/^ *"nproc": \([0-9]*\),$/\1/p' "$baseline")"
bench_out="$(mktemp)"
got() { awk -v m="$1" '$1 == m { print $2 }' "$bench_out"; }
# One pass of workload $1: prints every comparison, returns 1 on any miss.
bench_pass() {
    local workload="$1" missed=0 metric base floor value run_nproc
    if ! "${bench_cmd[@]}" --workload "$workload" --seed "$base_seed" --seconds "$base_seconds" \
        --trace 0 >"$bench_out" 2>/dev/null; then
        echo "check.sh: perfbench $workload did not run" >&2
        exit 1
    fi
    echo "check.sh: perfbench $workload: setup_s $(got setup_s), peak_rss_mb $(got peak_rss_mb) (not gated)"
    if ! grep -q '^{"correct":true,' "$bench_out"; then
        echo "check.sh: perfbench $workload is not correct: $(grep '^checks:' "$bench_out")" >&2
        missed=1
    fi
    run_nproc="$(sed -n 's/^record: .*"nproc":\([0-9]*\),.*/\1/p' "$bench_out")"
    for metric in ok_ratio max_rate_rps rechecks_per_s; do
        base="$(baseline_value "$workload" "$metric")"
        if [ -z "$base" ]; then
            echo "check.sh: $baseline has no $workload $metric" >&2
            exit 1
        fi
        floor="$(awk -v b="$base" -v bound="$(bench_bound "$metric")" 'BEGIN { print b * (1 - bound) }')"
        if [ "$metric" = max_rate_rps ] && [ "$run_nproc" != "$base_nproc" ]; then
            case "$workload" in
                check-hot) floor=12000 ;;
                check-watch) floor=1000 ;;
                *) floor=0 ;;
            esac
            echo "check.sh: perfbench $workload: nproc $run_nproc differs from the baseline's" \
                "$base_nproc; max_rate_rps held to the retired gates' floor ($floor) instead"
        fi
        value="$(got "$metric")"
        echo "check.sh: perfbench $workload: $metric $value (baseline $base, floor $floor)"
        if ! awk -v v="$value" -v f="$floor" 'BEGIN { exit !(v != "" && v >= f) }'; then
            echo "check.sh: perfbench $workload $metric ${value:-missing} under its floor $floor" >&2
            missed=1
        fi
    done
    return "$missed"
}
gate_failed=0
for workload in $(sed -n '/"workloads": \[/,/\]/s/^ *"name": "\(.*\)",$/\1/p' BENCHMARK.json); do
    if ! bench_pass "$workload"; then
        echo "check.sh: perfbench $workload missed its gate; one more pass"
        bench_pass "$workload" || gate_failed=1
    fi
done
rm -f "$bench_out"
if [ "$gate_failed" -ne 0 ]; then
    echo "check.sh: perfbench gate failed" >&2
    exit 1
fi
echo "check.sh: perfbench gate green"

echo "check.sh: all green"
