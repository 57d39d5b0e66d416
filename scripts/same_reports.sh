#!/usr/bin/env bash
# Compares the reports of two `hawkset` builds, for example a parent
# commit's and a change's: every trace is analyzed with `analyze --json`
# under a fixed flag matrix by each binary, and the exit codes and the
# stdout must match once every `*_ms` key (wall-clock time) is zeroed.
#
#   scripts/same_reports.sh PARENT_BIN CHANGE_BIN TRACE...
#
# Prints one summary line and the runs that differ. Exits 0 when every
# run matches, 1 on any difference, and 2 on a usage error or without jq.
set -uo pipefail

usage() {
    echo "usage: $0 PARENT_BIN CHANGE_BIN TRACE..." >&2
    exit 2
}
[[ $# -ge 3 ]] || usage
if ! command -v jq >/dev/null; then
    echo "$0: jq is required to zero the *_ms keys; install jq and rerun" >&2
    exit 2
fi
parent=$1
change=$2
shift 2
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done
for trace in "$@"; do
    [[ -r $trace ]] || { echo "$0: cannot read $trace" >&2; exit 2; }
done

flag_sets=(
    ""
    "--no-irh"
    "--eadr"
    "--stream"
    "--stream --threads 1"
    "--stream --lenient"
    "--stream --max-events 5000"
    "--threads 1"
    "--suggest-fixes"
    "--lenient"
    "--max-events 5000"
    "--max-pairs 20000"
    "--no-hb --store-store"
    "--memory-budget 65536"
    "--memory-budget 1048576"
    "--memory-budget 8388608"
    "--suggest-fixes --stream"
    "--suggest-fixes --lenient"
    "--suggest-fixes --threads 1"
    "--suggest-fixes --memory-budget 1048576"
    "--suggest-fixes --max-pairs 20000"
    "--suggest-fixes --store-store"
    "--suggest-fixes --no-irh"
    "--suggest-fixes --no-hb"
    "--suggest-fixes --no-atomics"
    "--suggest-fixes --max-events 20000"
    "--suggest-fixes --no-irh --no-hb"
)

# Zeroes the value of every key ending in `_ms`, at any depth. Output that
# is not JSON (an empty stdout after an error) is compared as it is.
mask='walk(if type == "object" then with_entries(if (.key | endswith("_ms")) then .value = 0 else . end) else . end)'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run BIN TRACE FLAGS OUT: the exit code, then the masked stdout, in OUT.
run() {
    local raw="$work/raw" code
    # shellcheck disable=SC2086 # FLAGS is a word list on purpose
    "$1" analyze --json $3 "$2" >"$raw" 2>/dev/null
    code=$?
    {
        echo "exit $code"
        jq -S "$mask" "$raw" 2>/dev/null || cat "$raw"
    } >"$4"
}

runs=0
differ=0
for trace in "$@"; do
    for flags in "${flag_sets[@]}"; do
        run "$parent" "$trace" "$flags" "$work/parent"
        run "$change" "$trace" "$flags" "$work/change"
        runs=$((runs + 1))
        if ! cmp -s "$work/parent" "$work/change"; then
            differ=$((differ + 1))
            echo "differs: $trace [${flags:-no flags}]"
            diff "$work/parent" "$work/change" | head -n 8
        fi
    done
done
echo "same_reports: $runs runs ($# traces x ${#flag_sets[@]} flag sets), $differ differ"
[[ $differ -eq 0 ]]
