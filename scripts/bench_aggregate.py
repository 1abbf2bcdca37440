#!/usr/bin/env python3
"""Aggregate a bench-smoke JSONL stream into one BENCH_<date>.json.

Reads the result lines `moatsim reproduce --jsonl` wrote for the
claims table (perf, attack and co-attack cells; the attack lines of the
throughput patterns carry loss_fraction), the MOATSIM_JSONL line each
bench emitted (the core-loop record -- replay acts/sec of runSystem
alone, System construction ms on recycled counter slabs apart, and the
first, cold construction of each shape on its own -- and the
matrix-sweep throughput record) plus the per-run wall times, and writes
a single JSON document: the perf-trajectory snapshot CI archives on
every push. Throughput is recorded, not gated; compare it
against earlier snapshots, or measure a change with perfbench/run.py.
Stdlib only.
"""

import datetime
import json
import sys


def main() -> int:
    if len(sys.argv) != 6:
        print(
            "usage: bench_aggregate.py JSONL TIMES OUT SCALE GITREV",
            file=sys.stderr,
        )
        return 2
    jsonl_path, times_path, out_path, scale, git_rev = sys.argv[1:]

    rows = []
    with open(jsonl_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append(json.loads(line))

    bench_ms = {}
    with open(times_path, encoding="utf-8") as fh:
        for line in fh:
            name, ms = line.split()
            bench_ms[name] = int(ms)

    perf = [r for r in rows if r.get("kind") == "perf"]
    attacks = [r for r in rows if r.get("kind") == "attack"]
    tput = [r for r in attacks if "loss_fraction" in r]
    coattack = [r for r in rows if r.get("kind") == "coattack"]
    core = next((r for r in rows if r.get("kind") == "core_loop"), None)
    sweep = next((r for r in rows if r.get("kind") == "sweep_scale"), None)

    def mean(values):
        vals = list(values)
        return sum(vals) / len(vals) if vals else 0.0

    doc = {
        "schema": "moatsim-bench-smoke-v1",
        "date": datetime.date.today().isoformat(),
        "git": git_rev,
        "scale": float(scale),
        # Replay acts/sec (systemN_acts_per_sec) and System
        # construction on recycled slabs (systemN_construct_ms), each a
        # median with its _min/_max spread, plus the first, cold
        # construction of each shape (systemN_construct_cold_ms, one
        # sample), carried as bench_core_loop wrote them.
        "core_loop": core,
        # Matrix-sweep pipeline throughput (bench_sweep_scale): the raw
        # record plus the two headline numbers tooling keys on.
        "sweep_scale": sweep,
        "sweep_cells_per_sec": (
            sweep["cold_cells_per_sec"] if sweep else None
        ),
        "trace_store_hit_rate": (
            sweep["trace_store_hit_rate"] if sweep else None
        ),
        "perf": {
            "cells": len(perf),
            "total_acts": sum(r["acts"] for r in perf),
            "mean_norm_perf": mean(r["norm_perf"] for r in perf),
            "worst_norm_perf": min(
                (r["norm_perf"] for r in perf), default=1.0
            ),
            "mean_alerts_per_refi": mean(
                r["alerts_per_refi"] for r in perf
            ),
            "subchannel_cells": sum(
                1 for r in perf if len(r.get("sc_acts", [])) > 1
            ),
        },
        "attack": {
            "cells": len(attacks),
            "worst_max_hammer": max(
                (r["max_hammer"] for r in attacks), default=0
            ),
        },
        "throughput_attack": {
            "cells": len(tput),
            "worst_loss_fraction": max(
                (r["loss_fraction"] for r in tput), default=0.0
            ),
        },
        # Adversary-under-load cells: the attacker's residual hammer
        # on the shared system and the victims' worst/mean slowdown.
        "coattack": {
            "cells": len(coattack),
            "worst_attacker_max_hammer": max(
                (r["attacker_max_hammer"] for r in coattack), default=0
            ),
            "worst_victim_slowdown": max(
                (r["victim_slowdown"] for r in coattack), default=1.0
            ),
            "mean_victim_slowdown": mean(
                r["victim_slowdown"] for r in coattack
            ),
        },
        "bench_ms": bench_ms,
        "total_ms": sum(bench_ms.values()),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
