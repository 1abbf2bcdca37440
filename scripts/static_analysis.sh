#!/usr/bin/env bash
# Static-analysis gate: the determinism linter (tools/moatlint) with
# its keylint cache-key pass, the clang thread-safety build, and a
# curated clang-tidy pass.
#
#   ./scripts/static_analysis.sh                 # full gate (CI)
#   ./scripts/static_analysis.sh --lint-only     # moatlint only
#   ./scripts/static_analysis.sh --keylint-only  # key-* rules only
#
# --lint-only builds and runs just moatlint (both its textual and its
# semantic pass), which works with any toolchain; scripts/verify.sh
# uses it so the local loop stays gcc-only. --keylint-only further
# restricts the report to the semantic key-* rules plus the
# mutate-check self-test -- the fast inner loop when editing a config
# struct or key function. The full gate additionally needs clang (and
# clang-tidy):
#
#   - a clang build of the library, CLI, and linter with the Thread
#     Safety Analysis promoted to errors (-Werror=thread-safety; see
#     MOATSIM_THREAD_SAFETY in CMakeLists.txt and
#     src/common/thread_annotations.hh), which verifies the lock
#     discipline of the SingleFlight (the one compute-once map behind
#     every cache) and ThreadPool/parallelFor annotations;
#   - clang-tidy with the curated .clang-tidy profile over the files
#     changed since MOATSIM_TIDY_BASE (default origin/main; skipped
#     with a notice when no base resolves).
#
# Environment:
#   BUILD_DIR          lint build directory     (default: build)
#   CLANG_BUILD_DIR    clang side-build         (default: build-clang)
#   MOATSIM_TIDY_BASE  git base for changed-file clang-tidy
#   CLANG_CXX          clang compiler           (default: clang++)
#   CLANG_TIDY         clang-tidy binary        (default: clang-tidy)
set -euo pipefail

cd "$(dirname "$0")/.."

LINT_ONLY=0
KEYLINT_ONLY=0
for arg in "$@"; do
    case "$arg" in
    --lint-only) LINT_ONLY=1 ;;
    --keylint-only) KEYLINT_ONLY=1 ;;
    *)
        echo "usage: $0 [--lint-only|--keylint-only]" >&2
        exit 2
        ;;
    esac
done

BUILD_DIR="${BUILD_DIR:-build}"
CLANG_BUILD_DIR="${CLANG_BUILD_DIR:-build-clang}"
CLANG_CXX="${CLANG_CXX:-clang++}"
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"

# ------------------------------------------------------------ moatlint
# The repo-specific determinism/cache-key linter.
# Exits non-zero on any finding without a justified suppression; the
# JSON report is a CI artifact and the SARIF report feeds GitHub code
# scanning. mutate-check then proves the keylint pass would notice a
# dropped key fold before trusting the clean run.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    # shellcheck disable=SC2086 # word-splitting the extra args is the point
    cmake -B "$BUILD_DIR" -S . ${MOATSIM_CMAKE_ARGS:-}
fi
cmake --build "$BUILD_DIR" -j --target moatlint

if [ "$KEYLINT_ONLY" -eq 1 ]; then
    echo "moatlint: key-* rules over src/ tools/ tests/"
    "$BUILD_DIR/moatlint" --root . --pass semantic \
        --json "$BUILD_DIR/moatlint.json"
    "$BUILD_DIR/moatlint" --root . --mutate-check
    echo "static analysis (keylint-only) passed"
    exit 0
fi

echo "moatlint: linting src/ tools/ tests/"
"$BUILD_DIR/moatlint" --root . \
    --json "$BUILD_DIR/moatlint.json" \
    --sarif "$BUILD_DIR/moatlint.sarif"
"$BUILD_DIR/moatlint" --root . --mutate-check

if [ "$LINT_ONLY" -eq 1 ]; then
    echo "static analysis (lint-only) passed"
    exit 0
fi

# ------------------------------------------- clang thread-safety build
# Compile (not test) everything under clang so -Werror=thread-safety
# checks the mutex annotations; the build+test clang leg re-runs the
# same flags with the full suite.
if ! command -v "$CLANG_CXX" >/dev/null; then
    echo "error: $CLANG_CXX not found (full gate needs clang;" \
        "use --lint-only without it)" >&2
    exit 2
fi
cmake -B "$CLANG_BUILD_DIR" -S . \
    -DCMAKE_CXX_COMPILER="$CLANG_CXX" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DMOATSIM_WERROR=ON \
    ${MOATSIM_CMAKE_ARGS:-}
cmake --build "$CLANG_BUILD_DIR" -j
echo "clang thread-safety build passed"

# ---------------------------------------------------------- clang-tidy
# Curated profile (.clang-tidy) over the files this change touches.
# Headers are checked through their paired .cc (clang-tidy needs a
# translation unit) and via HeaderFilterRegex.
if ! command -v "$CLANG_TIDY" >/dev/null; then
    echo "error: $CLANG_TIDY not found (full gate needs clang-tidy)" >&2
    exit 2
fi

base="${MOATSIM_TIDY_BASE:-}"
if [ -z "$base" ] && git rev-parse --verify -q origin/main >/dev/null; then
    base=origin/main
fi
if [ -z "$base" ] ||
    ! git rev-parse --verify -q "$base^{commit}" >/dev/null; then
    # New branches (all-zero github.event.before) and clones without
    # origin/main have no diff base; the other two gates still ran.
    echo "clang-tidy: no usable base ref (set MOATSIM_TIDY_BASE);" \
        "skipping"
    exit 0
fi

mapfile -t changed < <(git diff --name-only --diff-filter=d \
    "$base"...HEAD -- 'src/*.cc' 'src/*.hh' 'tools/*.cc' 'tools/*.hh' |
    sort -u)
declare -a units=()
for f in "${changed[@]}"; do
    case "$f" in
    *.cc) units+=("$f") ;;
    *.hh)
        cc="${f%.hh}.cc"
        [ -f "$cc" ] && units+=("$cc")
        ;;
    esac
done
if [ "${#units[@]}" -eq 0 ]; then
    echo "clang-tidy: no changed translation units since $base"
else
    mapfile -t units < <(printf '%s\n' "${units[@]}" | sort -u)
    echo "clang-tidy: checking ${#units[@]} translation unit(s)" \
        "changed since $base"
    "$CLANG_TIDY" -p "$CLANG_BUILD_DIR" --quiet "${units[@]}"
fi

echo "static analysis passed"
