#!/usr/bin/env bash
# Codegen guard for the replay loop's PRAC-counter prefetch.
#
#   scripts/check_prefetch.sh LIBMOATSIM [OBJDUMP]
#
# Disassembles src/sim/system.cc's object inside the built static
# library and fails unless it holds a prefetch instruction (prefetch*
# on x86-64, prfm on aarch64). The hint is a pure performance matter,
# so no result test can see it vanish: GCC at -O2 once deleted it
# because it sat behind a void, side-effect-free helper. Exits 77
# (ctest SKIP_RETURN_CODE) when objdump is unavailable or the target
# is another architecture.
set -euo pipefail

lib="${1:?usage: check_prefetch.sh LIBMOATSIM [OBJDUMP]}"
objdump="${2:-objdump}"
member="system.cc.o"

if ! command -v "$objdump" > /dev/null 2>&1; then
    echo "SKIP: no objdump ('$objdump') to disassemble $lib"
    exit 77
fi

# Keep only the disassembly of system.cc's object: from its member
# header to the next member header.
disasm=$("$objdump" -d "$lib" | awk -v m="$member" '
    /^[^[:space:]]+\.o:[[:space:]]+file format/ { keep = ($1 == m ":") }
    keep')
if [ -z "$disasm" ]; then
    echo "FAIL: $member not found in $lib"
    exit 1
fi

case "$(printf '%s\n' "$disasm" | head -n 1)" in
    *x86-64*) insn='prefetch(t0|t1|t2|nta|w|wt1)' ;;
    *aarch64*) insn='prfm' ;;
    *)
        echo "SKIP: no prefetch mnemonic known for this target"
        exit 77
        ;;
esac

hits=$(printf '%s\n' "$disasm" | grep -cE "[[:space:]]${insn}[[:space:]]" ||
    true)
if [ "$hits" -eq 0 ]; then
    echo "FAIL: $member in $lib holds no prefetch instruction;"
    echo "the replay loop's counter prefetch was optimized away"
    exit 1
fi
echo "ok: $hits prefetch instruction(s) in $member"
