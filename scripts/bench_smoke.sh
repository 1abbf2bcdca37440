#!/usr/bin/env bash
# Perf-trajectory smoke: check the paper's claims at full scale with
# `moatsim reproduce`, run the benches (which time the host: core loop
# and sweep scale) at a small scale, and aggregate acts/sec and the key
# paper metrics into BENCH_<date>.json.
# CI runs this on every push and uploads the file as an artifact, so
# the repository accumulates a measured performance history instead of
# an assumed one.
#
# The claims run fails the script when any row of
# tests/claims/paper.jsonl comes out other than the table records. It
# runs twice against one temporary result-store directory: the warm
# run must compute nothing (computes=0) and print the same table.
#
# Usage: scripts/bench_smoke.sh [output.json]
#   BUILD_DIR            build tree with the CLI and bench binaries
#                        (default "build"; must already be built)
#   MOATSIM_BENCH_SCALE  bench scale factor (default 0.125); the
#                        claims always run at full scale
#   MOATSIM_JOBS         sweep workers (default 0 = hardware)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SCALE="${MOATSIM_BENCH_SCALE:-0.125}"
OUT="${1:-BENCH_$(date +%F).json}"

if [ ! -x "$BUILD_DIR/moatsim" ]; then
    echo "error: no binaries in $BUILD_DIR; build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

jsonl="$BUILD_DIR/bench_smoke.jsonl"
times="$BUILD_DIR/bench_smoke_times.txt"
rm -f "$jsonl" "$times"
: > "$jsonl"
: > "$times"

# Milliseconds since the epoch.
now_ms() { echo $(($(date +%s%N) / 1000000)); }

store="$(mktemp -d)"
trap 'rm -rf "$store"' EXIT
for run in cold warm; do
    echo "=== moatsim reproduce ($run)"
    start="$(now_ms)"
    status=0
    # Only the cold run appends result lines, so each cell is counted
    # once.
    jsonl_args=()
    [ "$run" = cold ] && jsonl_args=(--jsonl "$jsonl")
    "$BUILD_DIR/moatsim" reproduce --jobs "${MOATSIM_JOBS:-0}" \
        --result-store "$store" "${jsonl_args[@]}" \
        > "$BUILD_DIR/reproduce_$run.out" \
        2> "$BUILD_DIR/reproduce_$run.err" || status=$?
    echo "moatsim_reproduce_$run $(($(now_ms) - start))" >> "$times"
    cat "$BUILD_DIR/reproduce_$run.out"
    if [ "$status" -ne 0 ]; then
        echo "FAIL: moatsim reproduce ($run) exited $status" >&2
        cat "$BUILD_DIR/reproduce_$run.err" >&2
        exit 1
    fi
done
if ! grep -q "computes=0 " "$BUILD_DIR/reproduce_warm.err"; then
    echo "FAIL: the warm reproduce run recomputed cells:" >&2
    cat "$BUILD_DIR/reproduce_warm.err" >&2
    exit 1
fi
if ! cmp -s "$BUILD_DIR/reproduce_cold.out" "$BUILD_DIR/reproduce_warm.out"
then
    echo "FAIL: warm reproduce output differs from the cold run" >&2
    diff "$BUILD_DIR/reproduce_cold.out" "$BUILD_DIR/reproduce_warm.out" >&2
    exit 1
fi

for bench in "$BUILD_DIR"/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name="$(basename "$bench")"
    case "$name" in
    *.* ) continue ;; # build byproducts, not binaries
    bench_micro_ops )
        # google-benchmark-driven; times itself and does not speak
        # MOATSIM_JSONL, so it is not part of the smoke record.
        continue ;;
    esac
    echo "=== $name (scale $SCALE)"
    start="$(now_ms)"
    if ! MOATSIM_BENCH_SCALE="$SCALE" MOATSIM_JSONL="$jsonl" \
        MOATSIM_JOBS="${MOATSIM_JOBS:-0}" \
        "$bench" > "$BUILD_DIR/$name.out" 2>&1; then
        echo "FAIL: $name" >&2
        tail -30 "$BUILD_DIR/$name.out" >&2
        exit 1
    fi
    echo "$name $(($(now_ms) - start))" >> "$times"
done

git_rev="$(git rev-parse --short HEAD 2> /dev/null || echo unknown)"
mkdir -p "$(dirname "$OUT")"
python3 scripts/bench_aggregate.py "$jsonl" "$times" "$OUT" \
    "$SCALE" "$git_rev"
echo "wrote $OUT"
