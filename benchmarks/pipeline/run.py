"""Pipeline ledger: the paper's workflow, end to end and layer by layer.

Usage (from anywhere; paths resolve from this file)::

    python3 benchmarks/pipeline/run.py [--workload W] [--seed 21]
        [--seconds 20] [--trace 0|1] [--smoke] [--out FILE]

Each workload (all three by default) runs in a fresh child process,
``ledger.py``, one at a time.  Every metric is printed by name and
unit.  With one workload the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace
0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones
(see README.md).  ``--out FILE`` adds the runs to FILE for
``compare.py``; with ``--trace 1`` a Chrome trace per workload is saved
beside it as ``FILE-stem.<workload>.trace.json``.

Exit status: 0 when every workload produced a result (``correct`` may
still be false), otherwise non-zero with no result printed — a failed
precondition guard, a crashed or timed-out child, or a checkout
without ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("table2-cold", "recompile-only", "validate-large")

#: A child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """The parent's environment minus ``POLYNIMA_*`` (no shared cache
    directory or cache switch can turn a cold run warm), with a fixed
    hash seed and temp files kept inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("POLYNIMA_")}
    env.update(PYTHONHASHSEED="0", TMPDIR=WORK)
    return env


def run_workload(workload: str, args) -> dict:
    """Run one workload in a child process and return its result."""
    fd, result_path = tempfile.mkstemp(dir=WORK, suffix=".json")
    os.close(fd)
    command = [sys.executable, os.path.join(HERE, "ledger.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", result_path]
    if args.smoke:
        command.append("--smoke")
    if args.trace and args.out:
        command += ["--trace-out", trace_path(args.out, workload)]
    try:
        completed = subprocess.run(command, env=child_env(),
                                   timeout=CHILD_TIMEOUT_S)
        if completed.returncode != 0:
            raise SystemExit(f"{workload}: ledger exited with status "
                             f"{completed.returncode}")
        with open(result_path) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within "
                         f"{CHILD_TIMEOUT_S} s")
    finally:
        os.remove(result_path)


def trace_path(out: str, workload: str) -> str:
    stem = out[:-5] if out.endswith(".json") else out
    return f"{stem}.{workload}.trace.json"


def report(result: dict) -> None:
    """Print one workload's result as a table."""
    rounds = result["rounds"]
    line = (f"{result['workload']}  seed {result['seed']}  "
            f"{rounds} round{'s' if rounds != 1 else ''}, "
            f"{result['attempted']} jobs, {result['failed']} failed, "
            f"cache hits {result['cache']['hits']}/{result['cache']['gets']}")
    if not result["trace"]:
        line += (f", fail_rate {result['fail_rate']:.4g}, tail "
                 f"{result['tail']['quantile']}")
    print(line)
    for failure in result["failures"]:
        print(f"  FAILED {failure['job']}: {failure['error']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Pipeline ledger: end-to-end and per-layer metrics "
                    "of the Polynima workflow.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=21,
                        help="scheduler and trace seed (default 21)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed-loop length; sets whole rounds from "
                             "each workload's nominal round time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "run instead of the end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of two jobs per workload")
    parser.add_argument("--out", help="add the runs to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              f"is missing", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    results = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        results.append(run_workload(workload, args))
        report(results[-1])
    if args.out:
        stored = []
        if os.path.exists(args.out):
            with open(args.out) as handle:
                stored = json.load(handle)["runs"]
        with open(args.out, "w") as handle:
            json.dump({"runs": stored + results}, handle, indent=1)
    if len(results) == 1:
        result = results[0]
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
