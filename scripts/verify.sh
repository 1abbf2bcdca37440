#!/usr/bin/env bash
# Tier-1 verification: configure, build everything with warnings as
# errors, run the test suite at full parallelism, and smoke-check the
# sweep engine's determinism guarantee (jobs=1 vs jobs=8 must be
# byte-identical on the full 2-sub-channel system). This is the
# command CI runs and the bar every change must clear.
#
# MOATSIM_CMAKE_ARGS adds extra configure arguments (CI injects the
# ccache launcher and sanitizer flags through it).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

# shellcheck disable=SC2086 # word-splitting the extra args is the point
cmake -B "$BUILD_DIR" -S . -DMOATSIM_WERROR=ON ${MOATSIM_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Static analysis, lint-only flavour: the moatlint determinism linter
# plus its keylint cache-key pass must report
# zero unsuppressed findings across src/, tools/, and tests/, and the
# moatlint --mutate-check oracle must catch every seeded key mutant.
# This works with any toolchain; the clang thread-safety build and the
# clang-tidy pass run in the dedicated static-analysis CI job (run
# ./scripts/static_analysis.sh locally when clang is installed).
BUILD_DIR="$BUILD_DIR" ./scripts/static_analysis.sh --lint-only

# Determinism smoke: the same sweep at 1 and 8 workers must produce
# byte-identical tables (catches RNG/schedule leaks the unit tests
# might miss at full configuration). The whole 21-workload suite on
# the 2-sub-channel system is used so the jobs=8 run genuinely fans
# out across the pool (a single-cell sweep would fall back to the
# serial path).
echo "determinism smoke: perf sweep at --jobs 1 vs --jobs 8"
"$BUILD_DIR/moatsim" perf --workload all --fraction 0.015625 \
  --subchannels 2 --jobs 1 > "$BUILD_DIR/perf_jobs1.txt"
"$BUILD_DIR/moatsim" perf --workload all --fraction 0.015625 \
  --subchannels 2 --jobs 8 > "$BUILD_DIR/perf_jobs8.txt"
diff "$BUILD_DIR/perf_jobs1.txt" "$BUILD_DIR/perf_jobs8.txt"

# The adversary-under-load sweep carries the same guarantee: every
# (workload x mitigator x attack) cell is independently seeded, so a
# parallel co-attack run must be byte-identical to a serial one.
echo "determinism smoke: coattack sweep at --jobs 1 vs --jobs 8"
"$BUILD_DIR/moatsim" coattack --workload all --pattern postponement \
  --mitigator panopticon --fraction 0.015625 --subchannels 2 \
  --jobs 1 > "$BUILD_DIR/coattack_jobs1.txt"
"$BUILD_DIR/moatsim" coattack --workload all --pattern postponement \
  --mitigator panopticon --fraction 0.015625 --subchannels 2 \
  --jobs 8 > "$BUILD_DIR/coattack_jobs8.txt"
diff "$BUILD_DIR/coattack_jobs1.txt" "$BUILD_DIR/coattack_jobs8.txt"
# Off the default slot: the security oracle tracks only the attacker's
# (slot, bank), so pin the placement away from (0, 0).
echo "determinism smoke: off-slot coattack at --jobs 1 vs --jobs 8"
for jobs in 1 8; do
  "$BUILD_DIR/moatsim" coattack --workload all --pattern hammer \
    --mitigator moat --fraction 0.015625 --subchannels 2 \
    --attack-subchannel 1 --attack-bank 3 \
    --jobs "$jobs" > "$BUILD_DIR/coattack_offslot_jobs$jobs.txt"
done
diff "$BUILD_DIR/coattack_offslot_jobs1.txt" \
  "$BUILD_DIR/coattack_offslot_jobs8.txt"

# An isolated attack is one cell: --jobs only schedules cells, so it
# must not change the result, and --trials keeps its one meaning (the
# postponement phase sweep) with or without --jobs.
echo "determinism smoke: attack --trials 8 without --jobs, at 1 and 8"
"$BUILD_DIR/moatsim" attack --pattern postponement --trials 8 \
  > "$BUILD_DIR/attack_trials.txt"
for jobs in 1 8; do
  "$BUILD_DIR/moatsim" attack --pattern postponement --trials 8 \
    --jobs "$jobs" > "$BUILD_DIR/attack_trials_jobs$jobs.txt"
  diff "$BUILD_DIR/attack_trials.txt" "$BUILD_DIR/attack_trials_jobs$jobs.txt"
done

# The device axis carries the same guarantee at every topology: a
# named multi-rank, multi-channel grade fans its slots out across
# channels x ranks x sub-channels with per-level derived seeds, and a
# parallel run must still be byte-identical to a serial one.
echo "determinism smoke: --device sweep at --jobs 1 vs --jobs 8"
"$BUILD_DIR/moatsim" perf --workload all --fraction 0.015625 \
  --subchannels 2 --device "device:org=128gb-2r2ch,speed=ddr5-prac-fast" \
  --jobs 1 > "$BUILD_DIR/perf_device_jobs1.txt"
"$BUILD_DIR/moatsim" perf --workload all --fraction 0.015625 \
  --subchannels 2 --device "device:org=128gb-2r2ch,speed=ddr5-prac-fast" \
  --jobs 8 > "$BUILD_DIR/perf_device_jobs8.txt"
diff "$BUILD_DIR/perf_device_jobs1.txt" "$BUILD_DIR/perf_device_jobs8.txt"

# The shared trace store is a pure cache: a run with it disabled by
# the environment switch must be byte-identical to the cached jobs=8
# run above.
echo "determinism smoke: trace store enabled vs disabled"
MOATSIM_TRACE_STORE=0 "$BUILD_DIR/moatsim" perf --workload all \
  --fraction 0.015625 --subchannels 2 --jobs 8 \
  > "$BUILD_DIR/perf_store_env_off.txt"
diff "$BUILD_DIR/perf_jobs8.txt" "$BUILD_DIR/perf_store_env_off.txt"

# One design, one key: a mitigator spec written with non-canonical
# values (a leading zero, 1 for true) is stored in canonical text, so
# it runs as the same cell as the canonical spelling, down to the
# "mitigator" field of every JSONL line.
echo "spec smoke: non-canonical vs canonical mitigator spec text"
rm -f "$BUILD_DIR/perf_spec_odd.jsonl" "$BUILD_DIR/perf_spec_canon.jsonl"
"$BUILD_DIR/moatsim" perf --workload xz --fraction 0.015625 \
  --result-store 0 --mitigator "moat:ath=064,safe-reset=1" \
  --jsonl "$BUILD_DIR/perf_spec_odd.jsonl" > /dev/null
"$BUILD_DIR/moatsim" perf --workload xz --fraction 0.015625 \
  --result-store 0 --mitigator "moat:ath=64,safe-reset=true" \
  --jsonl "$BUILD_DIR/perf_spec_canon.jsonl" > /dev/null
diff "$BUILD_DIR/perf_spec_odd.jsonl" "$BUILD_DIR/perf_spec_canon.jsonl"

# The CLI rejects what the serve daemon rejects: an out-of-range
# request must fail loudly rather than print NaN and exit 0.
echo "validation smoke: perf --fraction 0 must fail"
if "$BUILD_DIR/moatsim" perf --workload xz --fraction 0 \
  --result-store 0 > /dev/null 2> "$BUILD_DIR/perf_fraction0.err"; then
  echo "FATAL: perf --fraction 0 exited 0" >&2
  exit 1
fi
grep -q "fraction" "$BUILD_DIR/perf_fraction0.err" || {
  echo "FATAL: perf --fraction 0 failed without naming the field:" >&2
  cat "$BUILD_DIR/perf_fraction0.err" >&2
  exit 1
}

# A replayed trace is checked against the system before it replays:
# bank 40 on a 32-bank sub-channel must be a clean fatal() naming the
# bank, never a crash (a signal exit is status 128 + N).
echo "validation smoke: replay of an out-of-range bank must fail"
printf 'core 0\nwindow 40000000\n0 0 5000\n60000 40 5000\n' \
  > "$BUILD_DIR/replay_bad_bank.txt"
replay_status=0
"$BUILD_DIR/moatsim" replay --trace "$BUILD_DIR/replay_bad_bank.txt" \
  --mitigator moat > /dev/null 2> "$BUILD_DIR/replay_bad_bank.err" ||
  replay_status=$?
if [ "$replay_status" -eq 0 ] || [ "$replay_status" -ge 128 ]; then
  echo "FATAL: replay of bank 40 exited with status $replay_status" >&2
  cat "$BUILD_DIR/replay_bad_bank.err" >&2
  exit 1
fi
grep -q "bank" "$BUILD_DIR/replay_bad_bank.err" || {
  echo "FATAL: replay of bank 40 failed without naming the bank:" >&2
  cat "$BUILD_DIR/replay_bad_bank.err" >&2
  exit 1
}

# An attack whose rows would run past the end of the bank is refused
# by its pattern's plan, naming the knob: exit 1, never a crash.
for case in "trials:--pattern postponement --trials 481" \
  "entries:--pattern jailbreak --mitigator panopticon:entries=4097"; do
  knob="${case%%:*}"
  echo "validation smoke: attack ${case#*:} must fail"
  attack_status=0
  # shellcheck disable=SC2086 # the flags split on purpose
  "$BUILD_DIR/moatsim" attack ${case#*:} > /dev/null \
    2> "$BUILD_DIR/attack_limit.err" || attack_status=$?
  if [ "$attack_status" -ne 1 ]; then
    echo "FATAL: attack ${case#*:} exited with status $attack_status" >&2
    cat "$BUILD_DIR/attack_limit.err" >&2
    exit 1
  fi
  grep -q "$knob=" "$BUILD_DIR/attack_limit.err" || {
    echo "FATAL: attack ${case#*:} failed without naming $knob:" >&2
    cat "$BUILD_DIR/attack_limit.err" >&2
    exit 1
  }
done

# The result store is a pure cache of whole cells: a cold run filling
# a shard directory and a warm re-run served entirely from it must be
# byte-identical (table and JSONL), and the warm run must recompute
# zero cells (the stderr summary proves it).
echo "result store smoke: cold vs warm full re-run"
rm -rf "$BUILD_DIR/result_store_smoke"
"$BUILD_DIR/moatsim" perf --workload all --fraction 0.015625 \
  --subchannels 2 --jobs 8 --result-store "$BUILD_DIR/result_store_smoke" \
  --jsonl "$BUILD_DIR/perf_store_cold.jsonl" \
  > "$BUILD_DIR/perf_store_cold.txt" 2> "$BUILD_DIR/perf_store_cold.err"
"$BUILD_DIR/moatsim" perf --workload all --fraction 0.015625 \
  --subchannels 2 --jobs 8 --result-store "$BUILD_DIR/result_store_smoke" \
  --jsonl "$BUILD_DIR/perf_store_warm.jsonl" \
  > "$BUILD_DIR/perf_store_warm.txt" 2> "$BUILD_DIR/perf_store_warm.err"
diff "$BUILD_DIR/perf_jobs8.txt" "$BUILD_DIR/perf_store_cold.txt"
diff "$BUILD_DIR/perf_store_cold.txt" "$BUILD_DIR/perf_store_warm.txt"
diff "$BUILD_DIR/perf_store_cold.jsonl" "$BUILD_DIR/perf_store_warm.jsonl"
grep -q "computes=0 " "$BUILD_DIR/perf_store_warm.err" || {
  echo "FATAL: warm result-store run recomputed cells:" >&2
  cat "$BUILD_DIR/perf_store_warm.err" >&2
  exit 1
}
# A clean default run has nothing to warn about; a warning that always
# fires teaches users to ignore stderr.
if grep -q "^warn:" "$BUILD_DIR/perf_store_cold.err"; then
  echo "FATAL: clean result-store run printed warnings:" >&2
  cat "$BUILD_DIR/perf_store_cold.err" >&2
  exit 1
fi

# Serve smoke: a daemon-served sweep must be byte-identical to the
# direct CLI's --jsonl output. --max-requests 1 bounds the daemon's
# life without any timeout; the client blocks until the cells stream
# back, so no sleep/poll is needed beyond waiting for the socket.
echo "serve smoke: daemon round-trip vs direct run"
SOCK="$BUILD_DIR/moatsim_serve_smoke.sock"
rm -f "$SOCK" "$BUILD_DIR/perf_serve.jsonl" "$BUILD_DIR/perf_direct.jsonl"
"$BUILD_DIR/moatsim" serve --socket "$SOCK" --max-requests 1 \
  2> "$BUILD_DIR/serve_smoke.err" &
SERVE_PID=$!
while [ ! -S "$SOCK" ]; do
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "FATAL: serve daemon died before listening:" >&2
    cat "$BUILD_DIR/serve_smoke.err" >&2
    exit 1
  }
  sleep 0.05
done
"$BUILD_DIR/moatsim" client --socket "$SOCK" --workload all \
  --fraction 0.015625 --subchannels 2 --jobs 8 \
  --jsonl "$BUILD_DIR/perf_serve.jsonl"
wait "$SERVE_PID"
"$BUILD_DIR/moatsim" perf --workload all --fraction 0.015625 \
  --subchannels 2 --jobs 8 --jsonl "$BUILD_DIR/perf_direct.jsonl" \
  > /dev/null
diff "$BUILD_DIR/perf_direct.jsonl" "$BUILD_DIR/perf_serve.jsonl"

# Chaos smoke: the same sweep served by a daemon under an armed fault
# plan (a fifth of the cell computes throw, a twentieth of the reply
# sends drop) must still converge -- via seeded client retries -- to
# bytes identical to the clean direct run. The shared result store is
# what makes this cheap: every cell that ever finished is served from
# cache on the next attempt, so retries only replay the failures.
echo "chaos smoke: faulted daemon + client retries vs direct run"
CHAOS_SOCK="$BUILD_DIR/moatsim_chaos_smoke.sock"
CHAOS_STORE="$BUILD_DIR/chaos_store"
rm -f "$CHAOS_SOCK" "$BUILD_DIR/perf_chaos.jsonl"
rm -rf "$CHAOS_STORE"
"$BUILD_DIR/moatsim" serve --socket "$CHAOS_SOCK" \
  --result-store "$CHAOS_STORE" \
  --faults "sweep.compute@0.2:5,serve.send@0.05:6" \
  2> "$BUILD_DIR/chaos_smoke.err" &
CHAOS_PID=$!
while [ ! -S "$CHAOS_SOCK" ]; do
  kill -0 "$CHAOS_PID" 2>/dev/null || {
    echo "FATAL: chaos daemon died before listening:" >&2
    cat "$BUILD_DIR/chaos_smoke.err" >&2
    exit 1
  }
  sleep 0.05
done
"$BUILD_DIR/moatsim" client --socket "$CHAOS_SOCK" --workload all \
  --fraction 0.015625 --subchannels 2 --jobs 8 --retries 40 \
  --jsonl "$BUILD_DIR/perf_chaos.jsonl"
# The shutdown ack itself may be dropped by the armed send fault; the
# daemon still stops, so tolerate a failed bye.
"$BUILD_DIR/moatsim" client --socket "$CHAOS_SOCK" --shutdown || true
wait "$CHAOS_PID" || true
diff "$BUILD_DIR/perf_direct.jsonl" "$BUILD_DIR/perf_chaos.jsonl"

# fsck smoke: corrupt the chaos run's shards on purpose (a torn tail
# and a garbage line), then prove `moatsim store fsck` reports every
# injected corruption (non-zero exit), --repair quarantines and
# compacts, and a re-scan comes back clean.
echo "fsck smoke: deliberate shard damage, report, repair, re-scan"
CHAOS_SHARD=$(ls "$CHAOS_STORE"/shard-*.jsonl | head -n 1)
head -c -10 "$CHAOS_SHARD" > "$CHAOS_SHARD.hurt"
printf '\nnot a shard record\n' >> "$CHAOS_SHARD.hurt"
mv "$CHAOS_SHARD.hurt" "$CHAOS_SHARD"
if "$BUILD_DIR/moatsim" store fsck --dir "$CHAOS_STORE"; then
  echo "FATAL: fsck missed the injected corruption" >&2
  exit 1
fi
"$BUILD_DIR/moatsim" store fsck --dir "$CHAOS_STORE" --repair
"$BUILD_DIR/moatsim" store fsck --dir "$CHAOS_STORE"
test -s "$CHAOS_STORE/quarantine.jsonl" || {
  echo "FATAL: repair quarantined nothing" >&2
  exit 1
}
echo "determinism smoke passed"
