#!/usr/bin/env bash
# The repo's full gate, in the order a developer wants failures surfaced:
# cheap style first, then compile, then the whole test suite.
# Everything runs offline — third-party deps are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

# The golden-report suite must only ever *check* in CI. With UPDATE_GOLDEN
# set it would silently rewrite the committed corpus to whatever the
# current build produces, turning the regression pin into a no-op.
if [[ -n "${UPDATE_GOLDEN:-}" ]]; then
    echo "ci: refusing to run with UPDATE_GOLDEN set — regenerate goldens locally," >&2
    echo "ci: review the diff, and run CI with the variable unset" >&2
    exit 1
fi

# Same guard for the perf baseline: with UPDATE_BASELINE set the bench
# ratchet would re-pin BENCH_*.json to whatever this machine measures,
# turning the regression gate into a no-op. Regenerate locally with
#   UPDATE_BASELINE=1 cargo run --release -p hawkset-bench --bin smoke -- --ratchet .
# review the diff, and run CI with the variable unset.
if [[ -n "${UPDATE_BASELINE:-}" ]]; then
    echo "ci: refusing to run with UPDATE_BASELINE set — regenerate the bench" >&2
    echo "ci: baseline locally, review the diff, and run CI with the variable unset" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: broken or private intra-doc links)"
# Our crates only: the vendored stubs under vendor/ are not held to it.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p hawkset -p hawkset-core -p pm-runtime \
    -p pm-apps -p pmrace -p pm-workloads -p hawkset-serve -p hawkset-cli -p hawkset-bench

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> hawkset-core unit tests"
# The root `cargo test -q` tests only the `hawkset` facade package; the
# core crate's own unit tests (memsim patch sweep, repair, engine, ...)
# run here.
cargo test -q -p hawkset-core

echo "==> member crate tests (pmrace, serve, cli, runtime, workloads)"
# Same reason: these packages' unit and integration tests — the CLI's
# chaos and serve end-to-end suites among them — run only when named.
# pm-apps is left out: its ground-truth repair test compares real-thread
# recordings and flakes on small hosts.
cargo test -q -p pmrace -p hawkset-serve -p hawkset-cli -p pm-runtime -p pm-workloads

echo "==> e2ebench tests (benchmark unit tests + tiny traced run of every workload)"
# e2ebench is a workspace of its own, outside the root members, so no
# workspace-wide command reaches it.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> golden report corpus (byte-for-byte, timing masked)"
# Explicit step so a corpus failure is unmistakable in the log even
# though the suite also runs under `cargo test -q` above.
cargo test -q --test golden_reports

echo "==> bench smoke (pairing throughput, 1 vs 4 threads, fixed seed)"
# Timings are read from the pipeline's own metrics snapshot. Fails if the
# parallel report or metrics diverge from the sequential ones, if any
# conservation law is violated, or if a multi-core host measures less
# than the 1.5x pairing speedup floor.
cargo run --release -q -p hawkset-bench --bin smoke -- --threads 4 --min-speedup 1.5

echo "==> bench ratchet (per-stage events/sec vs committed BENCH_*.json)"
# Runtime recording events/sec of a fixed-seed Fast-Fair run, decode /
# memsim / IRH / pairing / repair throughput on the fixed-seed synthetic
# trace, plus the steered-campaign rounds/sec figure, best-of-3
# (campaign best-of-2), against the committed BENCH_<stage>.json baseline:
# any stage >20% below its pin fails. A missing pin fails on every host;
# timing enforcement is skipped on single-core hosts, where wall-clock
# measures scheduler contention rather than the code.
cargo run --release -q -p hawkset-bench --bin smoke -- --ratchet .

echo "==> campaign smoke (steering beats uniform; SIGKILL mid-campaign + --resume)"
# Fixed-seed steered-vs-uniform on PCLHT: its uniform runs are
# byte-reproducible at this size (4 sites) while steered runs land on
# 7–8, so the strict inequality holds even when an interleaving-dependent
# site flickers. crashtest exits 0/1 by findings — both are healthy.
CAMP_DIR=$(mktemp -d /tmp/hawkset-ci-camp-XXXXXX)
CAMP="./target/release/hawkset crashtest pclht --rounds 12 --ops 24 --seed 5 --crash-points 3"
set +e
$CAMP --json > "$CAMP_DIR/uniform.json"
rc=$?; [[ $rc -gt 1 ]] && { echo "ci: uniform campaign failed (exit $rc)" >&2; exit 1; }
$CAMP --steer --json > "$CAMP_DIR/steered.json"
rc=$?; [[ $rc -gt 1 ]] && { echo "ci: steered campaign failed (exit $rc)" >&2; exit 1; }
set -e
sites() { sed -n 's/.*"race_sites": \([0-9]*\).*/\1/p' "$1"; }
UNIFORM_SITES=$(sites "$CAMP_DIR/uniform.json")
STEERED_SITES=$(sites "$CAMP_DIR/steered.json")
if [[ -z "$UNIFORM_SITES" || -z "$STEERED_SITES" ]]; then
    echo "ci: campaign reports carry no coverage.race_sites" >&2
    exit 1
fi
if [[ "$STEERED_SITES" -le "$UNIFORM_SITES" ]]; then
    echo "ci: steering must beat uniform at the same budget:" >&2
    echo "ci: steered $STEERED_SITES site(s) vs uniform $UNIFORM_SITES" >&2
    exit 1
fi
# SIGKILL drill on TurboHash: comparing an interrupted+resumed campaign
# against an uninterrupted one compares two independent executions, so
# the app's traces must be byte-reproducible even under steered rounds.
# TurboHash's are (PCLHT's occasionally flicker one site). The killed
# campaign must converge to the same coverage section (sites, corpus,
# per-round discovery timeline) as the uninterrupted reference.
DRILL="./target/release/hawkset crashtest turbohash --rounds 12 --ops 24 --seed 5 --crash-points 3 --steer"
set +e
$DRILL --json > "$CAMP_DIR/reference.json"
rc=$?; [[ $rc -gt 1 ]] && { echo "ci: reference steered campaign failed (exit $rc)" >&2; exit 1; }
# Kill the same campaign mid-flight — the checkpoint is written after
# every round; derived rounds inject delays, so the run outlives the poll.
$DRILL --checkpoint "$CAMP_DIR/ck.json" > /dev/null 2>&1 &
CAMP_PID=$!
for _ in $(seq 200); do
    [[ -s "$CAMP_DIR/ck.json" ]] && break
    sleep 0.05
done
kill -9 "$CAMP_PID" 2>/dev/null
wait "$CAMP_PID" 2>/dev/null
$DRILL --resume "$CAMP_DIR/ck.json" --json > "$CAMP_DIR/resumed.json"
rc=$?; [[ $rc -gt 1 ]] && { echo "ci: resumed campaign failed (exit $rc)" >&2; exit 1; }
set -e
coverage_of() { sed -n '/"coverage": {/,$p' "$1"; }
if ! diff <(coverage_of "$CAMP_DIR/reference.json") <(coverage_of "$CAMP_DIR/resumed.json"); then
    echo "ci: SIGKILL + --resume diverged from the uninterrupted steered run" >&2
    exit 1
fi
rm -rf "$CAMP_DIR"

echo "==> fix-validate smoke (--suggest-fixes over the golden corpus)"
# The repair contract on the committed corpus, through the release CLI:
# every emitted fix must carry an honest verdict — "validated": true is
# only ever paired with status "fix", an unvalidated suggestion only ever
# with status "candidate" (never silently emitted as a fix) — and the
# flag-off envelope must not grow a "fixes" key at all (schema drift).
# The pretty-printed JSON keeps each verdict pair on adjacent lines, which
# is what the grep -A1 pairing relies on. The verdicts are checked under
# the default settings and with the IRH or the happens-before filter off,
# two of the settings the footprint verdicts read, and under a memory
# budget and with the store-store pass, the runs that prove each patch by
# replaying it instead.
for flags in "" "--no-irh" "--no-hb" "--memory-budget 1048576" "--store-store"; do
    for t in racy_fig1c racy_unpersisted app_wipe_fixes; do
        run="$t${flags:+ $flags}"
        set +e
        # shellcheck disable=SC2086 # flags is a word list on purpose
        FIX_ON=$(./target/release/hawkset analyze --json --suggest-fixes $flags "tests/golden/$t.hwkt")
        rc=$?
        set -e
        if [[ $rc -ne 1 ]]; then
            echo "ci: --suggest-fixes analyze of $run expected exit 1 (races), got $rc" >&2
            exit 1
        fi
        if ! grep -q '"fixes"' <<< "$FIX_ON"; then
            echo "ci: $run produced no fixes section under --suggest-fixes" >&2
            exit 1
        fi
        if grep -A1 '"validated": false' <<< "$FIX_ON" | grep -q '"status": "fix"'; then
            echo "ci: $run emitted an unvalidated suggestion as a fix" >&2
            exit 1
        fi
        if grep -A1 '"validated": true' <<< "$FIX_ON" | grep -q '"status": "candidate"'; then
            echo "ci: $run demoted a replay-validated suggestion to candidate" >&2
            exit 1
        fi
    done
    if [[ -z $flags ]] && ! grep -q '"validated": true' <<< "$FIX_ON"; then
        echo "ci: the app capture carries no replay-validated fix" >&2
        exit 1
    fi
done
set +e
FIX_OFF=$(./target/release/hawkset analyze --json tests/golden/racy_fig1c.hwkt)
FIX_CLEAN=$(./target/release/hawkset analyze --json --suggest-fixes tests/golden/race_free.hwkt)
set -e
if grep -q '"fixes"' <<< "$FIX_OFF"; then
    echo "ci: fixes key emitted without --suggest-fixes (schema drift)" >&2
    exit 1
fi
if grep -q '"fixes"' <<< "$FIX_CLEAN"; then
    echo "ci: race-free trace grew a fixes section under --suggest-fixes" >&2
    exit 1
fi

echo "==> stage watchdog (stalled shard must not hang the run)"
# A regression here can turn the injected 5s stall into a real hang, so
# the suite runs under a hard wall-clock cap instead of trusting itself.
timeout 120 cargo test -q --test watchdog

echo "==> memory budget under a hard RSS cap"
# Proof the budget knob actually bounds the process, not just a counter:
# analyze a ~27k-event synthetic trace in a subshell whose address space
# is capped by ulimit. Without --memory-budget the analyzer is free to
# hold every window live; with it the run must complete inside the cap
# and degrade honestly (exit 0/1, coverage.reason = memory_budget).
BUDGET_TRACE=$(mktemp /tmp/hawkset-ci-budget-XXXXXX.hwkt)
BUDGET_JSON=$(mktemp /tmp/hawkset-ci-budget-XXXXXX.json)
trap 'rm -f "$BUDGET_TRACE" "$BUDGET_JSON"' EXIT
cargo run --release -q -p hawkset-bench --bin smoke -- --ops 2000 --emit "$BUDGET_TRACE"
(
    # Virtual-memory cap (KiB). Generous against allocator/runtime
    # overhead; tight against unbounded live simulation state.
    ulimit -v 786432
    set +e
    ./target/release/hawkset analyze "$BUDGET_TRACE" --stream \
        --memory-budget 65536 --json > "$BUDGET_JSON"
    rc=$?
    set -e
    if [[ $rc -ne 0 && $rc -ne 1 ]]; then
        echo "ci: budgeted analyze died under the RSS cap (exit $rc)" >&2
        exit 1
    fi
)
if ! grep -q '"reason": "memory_budget"' "$BUDGET_JSON"; then
    echo "ci: budgeted analyze did not report coverage.reason = memory_budget" >&2
    exit 1
fi

echo "==> serve smoke (daemon, concurrent clients, SIGKILL, recover, verify)"
# The daemon's durability contract, end to end: two golden traces from
# concurrent clients, a third submission SIGKILLed mid-analysis, restart
# on the same database, resubmit — the queried state must byte-for-byte
# match what batch `analyze` reports imply, with the repeated trace
# deduplicated into one record with occurrence count 2.
SERVE_DB=$(mktemp -d /tmp/hawkset-ci-serve-db-XXXXXX)
SERVE_OUT=$(mktemp /tmp/hawkset-ci-serve-out-XXXXXX)
SERVE_RPT_A=$(mktemp /tmp/hawkset-ci-serve-rpt-a-XXXXXX.json)
SERVE_RPT_B=$(mktemp /tmp/hawkset-ci-serve-rpt-b-XXXXXX.json)
SERVE_PID=""
trap 'rm -rf "$BUDGET_TRACE" "$BUDGET_JSON" "$SERVE_DB" "$SERVE_OUT" "$SERVE_RPT_A" "$SERVE_RPT_B"; { [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID"; } 2>/dev/null || true' EXIT

serve_start() { # serve_start [VAR=VAL ...] — extra env for the daemon
    env "$@" ./target/release/hawkset serve --tcp 127.0.0.1:0 --db "$SERVE_DB" \
        > "$SERVE_OUT" &
    SERVE_PID=$!
    for _ in $(seq 100); do
        grep -q "serve: ready" "$SERVE_OUT" 2>/dev/null && break
        sleep 0.1
    done
    SERVE_ADDR=$(sed -n 's/.*tcp=\([^ ]*\).*/\1/p' "$SERVE_OUT")
    if [[ -z "$SERVE_ADDR" ]]; then
        echo "ci: serve daemon never became ready" >&2
        exit 1
    fi
}

# First daemon runs with an injected per-job stall so the SIGKILL below
# reliably lands mid-analysis, before anything from job 3 is durable.
serve_start HAWKSET_TEST_JOB_DELAY_MS=1200

set +e
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-a \
    tests/golden/racy_fig1c.hwkt > /dev/null & SUB1=$!
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-b \
    tests/golden/racy_unpersisted.hwkt > /dev/null & SUB2=$!
wait "$SUB1"; rc1=$?
wait "$SUB2"; rc2=$?
set -e
if [[ $rc1 -ne 1 || $rc2 -ne 1 ]]; then
    echo "ci: concurrent submissions expected exit 1/1, got $rc1/$rc2" >&2
    exit 1
fi

# Third submission: pull the plug mid-analysis, client and daemon both die.
set +e
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-a \
    tests/golden/racy_fig1c.hwkt > /dev/null 2>&1 & SUB3=$!
sleep 0.6
kill -9 "$SERVE_PID"
wait "$SUB3"
wait "$SERVE_PID"
set -e

# Restart on the same database (no stall), resubmit the interrupted trace.
serve_start
set +e
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-a \
    tests/golden/racy_fig1c.hwkt > /dev/null
rc=$?
set -e
if [[ $rc -ne 1 ]]; then
    echo "ci: post-recovery resubmission expected exit 1, got $rc" >&2
    exit 1
fi
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
drain_rc=$?
set -e
SERVE_PID=""
if [[ $drain_rc -ne 0 ]]; then
    echo "ci: graceful drain expected exit 0, got $drain_rc" >&2
    exit 1
fi

# The daemon's cumulative database must match what batch analyze implies.
set +e
./target/release/hawkset analyze --json tests/golden/racy_fig1c.hwkt > "$SERVE_RPT_A"
./target/release/hawkset analyze --json tests/golden/racy_unpersisted.hwkt > "$SERVE_RPT_B"
set -e
./target/release/hawkset query --db "$SERVE_DB" \
    --verify "ci-a=$SERVE_RPT_A" \
    --verify "ci-b=$SERVE_RPT_B" \
    --verify "ci-a=$SERVE_RPT_A"
# Capture, then grep: grep -q exiting at the first match would SIGPIPE
# the query under pipefail and fail the step spuriously.
SERVE_QUERY=$(./target/release/hawkset query --db "$SERVE_DB" --json)
if ! grep -q '"occurrences": 2' <<< "$SERVE_QUERY"; then
    echo "ci: repeated golden trace did not dedupe to occurrence count 2" >&2
    exit 1
fi

echo "==> chaos smoke (scripted ENOSPC + fsync failure, degraded mode, restart, verify)"
# Hostile-storage drill against the release binary: a fault script fails
# the first checkpoint's CURRENT swap with ENOSPC and the next snapshot
# fsync with EIO. Each faulted submission must surface the storage
# failure to the client (exit 2, nothing half-recorded), the daemon must
# degrade to read-only and self-heal off its probe, and a retried
# submission must eventually land cleanly. After a graceful drain and a
# clean restart the database must byte-for-byte match what batch
# `analyze` implies — poisoned generation numbers are burned, never
# reused, and never trusted.
CHAOS_DB=$(mktemp -d /tmp/hawkset-ci-chaos-db-XXXXXX)
CHAOS_RPT=$(mktemp /tmp/hawkset-ci-chaos-rpt-XXXXXX.json)
CHAOS_ERR=$(mktemp /tmp/hawkset-ci-chaos-err-XXXXXX)
# serve_start reads $SERVE_DB at call time; keep the smoke db's path for
# cleanup before repointing the variable at the chaos database.
SERVE_SMOKE_DB=$SERVE_DB
SERVE_DB=$CHAOS_DB
trap 'rm -rf "$BUDGET_TRACE" "$BUDGET_JSON" "$SERVE_SMOKE_DB" "$SERVE_OUT" "$SERVE_RPT_A" "$SERVE_RPT_B" "$CHAOS_DB" "$CHAOS_RPT" "$CHAOS_ERR"; { [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID"; } 2>/dev/null || true' EXIT

serve_start HAWKSET_IO_FAULT_SCRIPT='current:rename:1:enospc;snapshot:fsync:2:eio'

# Submission 1: the CURRENT swap fails with ENOSPC. The merge is rolled
# back and the failure is surfaced, not swallowed.
set +e
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-chaos \
    tests/golden/racy_fig1c.hwkt > /dev/null 2> "$CHAOS_ERR"
rc=$?
set -e
if [[ $rc -ne 2 ]]; then
    echo "ci: faulted submission expected exit 2 (storage failure), got $rc" >&2
    exit 1
fi
if ! grep -q "storage failure" "$CHAOS_ERR"; then
    echo "ci: faulted submission did not surface the storage failure:" >&2
    cat "$CHAOS_ERR" >&2
    exit 1
fi

# Submission 2: retries ride the degraded read-only window (storage:
# sheds) until the probe heals the daemon, then hit the scripted fsync
# EIO at the next checkpoint — again a clean exit-2 failure.
set +e
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-chaos \
    --retries 10 --retry-max-ms 500 \
    tests/golden/racy_fig1c.hwkt > /dev/null 2> "$CHAOS_ERR"
rc=$?
set -e
if [[ $rc -ne 2 ]]; then
    echo "ci: fsync-faulted submission expected exit 2, got $rc" >&2
    cat "$CHAOS_ERR" >&2
    exit 1
fi

# Submission 3: the schedule is exhausted — retries carry it past the
# degraded window and it lands.
set +e
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-chaos \
    --retries 10 --retry-max-ms 500 \
    tests/golden/racy_fig1c.hwkt > /dev/null 2> "$CHAOS_ERR"
rc=$?
set -e
if [[ $rc -ne 1 ]]; then
    echo "ci: post-fault retried submission expected exit 1, got $rc" >&2
    cat "$CHAOS_ERR" >&2
    exit 1
fi

kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
drain_rc=$?
set -e
SERVE_PID=""
if [[ $drain_rc -ne 0 ]]; then
    echo "ci: chaos daemon drain expected exit 0, got $drain_rc" >&2
    exit 1
fi

# Restart without the fault script: recovery must be read-write from the
# stable root alone, and a resubmission must dedupe on top of it.
serve_start
set +e
./target/release/hawkset submit --tcp "$SERVE_ADDR" --tenant ci-chaos \
    tests/golden/racy_fig1c.hwkt > /dev/null
rc=$?
set -e
if [[ $rc -ne 1 ]]; then
    echo "ci: post-restart submission expected exit 1, got $rc" >&2
    exit 1
fi
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
drain_rc=$?
set -e
SERVE_PID=""
if [[ $drain_rc -ne 0 ]]; then
    echo "ci: chaos daemon final drain expected exit 0, got $drain_rc" >&2
    exit 1
fi

# Only the two submissions that reported success may be in the database,
# byte-for-byte what batch analyze implies — the two faulted attempts
# must have left no trace.
set +e
./target/release/hawkset analyze --json tests/golden/racy_fig1c.hwkt > "$CHAOS_RPT"
set -e
./target/release/hawkset query --db "$CHAOS_DB" \
    --verify "ci-chaos=$CHAOS_RPT" \
    --verify "ci-chaos=$CHAOS_RPT"

echo "ci: all green"
