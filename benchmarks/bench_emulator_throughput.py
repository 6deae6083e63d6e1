#!/usr/bin/env python
"""Emulator throughput: host-side guest instructions/sec across engines.

Three engines, one emulated machine:

- ``reference`` — the seed interpreter (per-step cost recomputation
  plus a per-instruction runnable rescan, kept verbatim in
  ``Machine._run_reference``/``_step_reference``).
- ``fast`` — the two-tier plan-cache + superblock engine
  (``repro/emulator/engine.py``).
- ``jit`` — the tier-3 trace JIT that compiles hot superblocks into
  specialized Python code objects (``repro/emulator/jit.py``).

All three are bit-identical per seed — this bench asserts that on
every run, so the numbers always compare the same emulated work.

Each engine is timed twice over: *cold*, its first run on a freshly
loaded image (plans built from scratch, and for the jit every trace
compiled — ``jit.compile_seconds`` records how long that took), and
*warm*, the best of ``--repeats`` runs on an image whose shared trace
cache an untimed jit run has already filled.  A one-off ``polynima
run`` or validation pays the cold cost; only repeated runs of one
image in one process reach the warm figure.

Writes ``BENCH_emulator.json`` at the repo root to seed the perf
trajectory.  Runs as a script::

    PYTHONPATH=src python benchmarks/bench_emulator_throughput.py
    PYTHONPATH=src python benchmarks/bench_emulator_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.binfmt import Image
from repro.emulator import Machine
from repro.workloads import get as get_workload

from common import geomean, write_result

FULL_WORKLOADS = ("histogram", "kmeans", "linear_regression",
                  "matrix_multiply", "pca", "string_match", "word_count")
SMOKE_WORKLOADS = ("histogram", "string_match")
ENGINES = ("reference", "fast", "jit")
SIZE = "small"
OPT_LEVEL = 3
SEED = 7

BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "BENCH_emulator.json")


def _timed_run(image, library, engine):
    """One full emulation; returns (host seconds, fingerprint, machine)."""
    machine = Machine(image, library, seed=SEED, engine=engine)
    start = time.perf_counter()
    machine.run()
    elapsed = time.perf_counter() - start
    assert machine.fault is None
    fingerprint = (bytes(machine.stdout), machine.exit_code,
                   machine.wall_cycles, machine.context_switches,
                   machine.perf_counters().snapshot())
    return elapsed, fingerprint, machine


def bench_one(name: str, repeats: int):
    workload = get_workload(name)
    image = workload.compile(opt_level=OPT_LEVEL)
    cold = {}
    fingerprints = []        # (engine, fingerprint) of every run
    for engine in ENGINES:
        fresh = Image.from_bytes(image.to_bytes())
        cold[engine], fingerprint, machine = _timed_run(
            fresh, workload.library(SIZE), engine)
        fingerprints.append((engine, fingerprint))
        if engine == "jit":
            compile_seconds = machine.jit_stats()["jit.compile_seconds"]
    seconds = {engine: float("inf") for engine in ENGINES}
    instructions = 0
    jit_stats = {}
    # Warm the image-attached shared trace cache with one untimed run,
    # so jit timings measure steady-state throughput rather than the
    # one-off trace compilation (which later runs of the same image
    # skip entirely).  Matters in --smoke mode, where repeats == 1.
    _timed_run(image, workload.library(SIZE), "jit")
    for _ in range(repeats):
        for engine in ENGINES:
            elapsed, fingerprint, machine = _timed_run(
                image, workload.library(SIZE), engine)
            seconds[engine] = min(seconds[engine], elapsed)
            instructions = machine.instructions
            fingerprints.append((engine, fingerprint))
            if engine == "jit":
                jit_stats = machine.jit_stats()
    # Determinism invariant: same stdout/exit/wall_cycles/context
    # switches/perf counters from every engine, every single run, cold
    # or warm (the first run is the reference engine's).
    for engine, fingerprint in fingerprints:
        assert fingerprint == fingerprints[0][1], \
            f"{name}: {engine} engine diverged from the reference interpreter"
    ips = {engine: instructions / seconds[engine] for engine in ENGINES}
    return {
        "workload": name,
        "size": SIZE,
        "guest_instructions": instructions,
        "reference_seconds": round(seconds["reference"], 6),
        "fast_seconds": round(seconds["fast"], 6),
        "jit_seconds": round(seconds["jit"], 6),
        "reference_ips": round(ips["reference"]),
        "fast_ips": round(ips["fast"]),
        "jit_ips": round(ips["jit"]),
        "fast_vs_reference": round(ips["fast"] / ips["reference"], 3),
        "jit_vs_reference": round(ips["jit"] / ips["reference"], 3),
        "jit_vs_fast": round(ips["jit"] / ips["fast"], 3),
        "jit_traces": jit_stats.get("jit.traces", 0),
        "jit_deopts": jit_stats.get("jit.deopts", 0),
        "reference_cold_seconds": round(cold["reference"], 6),
        "fast_cold_seconds": round(cold["fast"], 6),
        "jit_cold_seconds": round(cold["jit"], 6),
        "jit_cold_compile_seconds": round(compile_seconds, 6),
        "cold_fast_vs_reference": round(cold["reference"] / cold["fast"], 3),
        "cold_jit_vs_fast": round(cold["fast"] / cold["jit"], 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: two workloads, one repeat, "
                             "relaxed speedup floors")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per engine (best-of)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if the fast-vs-reference geomean is "
                             "below this (default: 1.2 in --smoke, "
                             "report-only otherwise)")
    parser.add_argument("--min-jit-speedup", type=float, default=None,
                        help="fail if the jit-vs-fast geomean is below "
                             "this (default: 1.15 in --smoke, "
                             "report-only otherwise)")
    args = parser.parse_args(argv)

    names = SMOKE_WORKLOADS if args.smoke else FULL_WORKLOADS
    repeats = args.repeats or (1 if args.smoke else 3)
    min_speedup = args.min_speedup
    min_jit_speedup = args.min_jit_speedup
    if args.smoke:
        if min_speedup is None:
            min_speedup = 1.2      # generous floors for noisy CI runners
        if min_jit_speedup is None:
            min_jit_speedup = 1.15

    rows = [bench_one(name, repeats) for name in names]
    fast_geomean = geomean([row["fast_vs_reference"] for row in rows])
    jit_geomean = geomean([row["jit_vs_reference"] for row in rows])
    jit_vs_fast = geomean([row["jit_vs_fast"] for row in rows])
    cold_fast = geomean([row["cold_fast_vs_reference"] for row in rows])
    cold_jit_vs_fast = geomean([row["cold_jit_vs_fast"] for row in rows])

    record = {
        "benchmark": "emulator_throughput",
        "unit": "host-side guest instructions per second",
        "engines": {
            "reference": "seed per-step interpreter loop",
            "fast": "ExecPlan cache + superblock dispatch",
            "jit": "tier-3 trace JIT (specialized Python code objects)",
        },
        "seed": SEED,
        "opt_level": OPT_LEVEL,
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "results": rows,
        "geomean_fast_vs_reference": round(fast_geomean, 3),
        "geomean_jit_vs_reference": round(jit_geomean, 3),
        "geomean_jit_vs_fast": round(jit_vs_fast, 3),
        "geomean_cold_fast_vs_reference": round(cold_fast, 3),
        "geomean_cold_jit_vs_fast": round(cold_jit_vs_fast, 3),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(BENCH_JSON)}")

    write_result(
        "bench_emulator_throughput",
        "Emulator throughput: reference vs fast vs jit engine "
        "(host instructions/sec warm; seconds cold)",
        ("workload", "guest instrs", "ref ips", "fast ips", "jit ips",
         "jit/fast", "ref cold s", "fast cold s", "jit cold s",
         "jit compile s", "cold jit/fast"),
        [(r["workload"], r["guest_instructions"], r["reference_ips"],
          r["fast_ips"], r["jit_ips"], f'{r["jit_vs_fast"]:.2f}x',
          f'{r["reference_cold_seconds"]:.3f}',
          f'{r["fast_cold_seconds"]:.3f}', f'{r["jit_cold_seconds"]:.3f}',
          f'{r["jit_cold_compile_seconds"]:.3f}',
          f'{r["cold_jit_vs_fast"]:.2f}x')
         for r in rows],
        notes=f"warm geomeans (best of {repeats}, traces already "
              f"compiled): fast {fast_geomean:.2f}x, jit "
              f"{jit_geomean:.2f}x over reference ({jit_vs_fast:.2f}x "
              f"over fast); cold (first run on a fresh image): fast "
              f"{cold_fast:.2f}x over reference, jit {cold_jit_vs_fast:.2f}x "
              f"over fast; all three engines verified bit-identical per "
              f"run; seed {SEED}, size {SIZE}")

    status = 0
    if min_speedup is not None and fast_geomean < min_speedup:
        print(f"FAIL: fast geomean {fast_geomean:.2f}x < floor "
              f"{min_speedup:.2f}x", file=sys.stderr)
        status = 1
    if min_jit_speedup is not None and jit_vs_fast < min_jit_speedup:
        print(f"FAIL: jit-vs-fast geomean {jit_vs_fast:.2f}x < floor "
              f"{min_jit_speedup:.2f}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
