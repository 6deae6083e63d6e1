"""One workload of the pipeline ledger, measured in its own process.

``run.py`` starts this file once per workload and reads the result file
it writes; by hand::

    python3 benchmarks/pipeline/ledger.py --workload table2-cold \\
        --seed 21 --seconds 20 --trace 0 --result result.json

The run has three parts.  *Set-up* prepares the jobs' inputs and runs
the precondition guard (every original binary must run cleanly at the
workload's size).  The *timed loop* runs whole rounds of the workload's
jobs; ``--seconds`` fixes how many, from the workload's nominal round
time, so a given ``--seconds`` does the same work on every commit.
*Checks* then compare every output with the original binary's.  With
``--trace 1`` each job runs twice, untraced and traced in alternating
order, and the traced half yields the per-layer metrics.

Exit codes: 0 with a result file, 3 when the precondition guard fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

from repro.binfmt import Image                                 # noqa: E402
from repro.core import (ArtifactCache, ICFTTracer,             # noqa: E402
                        RecompileJob, Recompiler,
                        TranslationError, discover_callbacks, execute_job,
                        hybrid_recompile, run_image)
from repro.minicc import compile_minic                         # noqa: E402
from repro.observability import Tracer                         # noqa: E402
from repro.workloads import (GAPBS_WORKLOADS,                  # noqa: E402
                             PHOENIX_WORKLOADS, SPEC_WORKLOADS, Workload)

import benchstats                                              # noqa: E402
import layer_trace                                             # noqa: E402

#: Scratch space inside the checkout: private artifact caches, result
#: files and temp files.  Never read across runs.
WORK = os.path.join(HERE, ".work")

PRECONDITION_EXIT = 3


class PreconditionError(Exception):
    """An original binary does not run cleanly at the workload's size."""


class JobFailure(Exception):
    """A job produced a wrong or missing output."""


@dataclass(frozen=True)
class Job:
    program: Workload
    opt: int
    fence_opt: bool = False

    @property
    def name(self) -> str:
        return (f"{self.program.name}/O{self.opt}"
                + ("+fo" if self.fence_opt else ""))


@dataclass
class Execution:
    job: str
    seconds: float
    traced: bool
    output: Optional[bytes] = None
    error: Optional[str] = None


@dataclass
class Tally:
    """What the benchmark's own validation runs observed."""
    instructions: int = 0
    seconds: float = 0.0
    #: job name -> recompiled / original wall cycles, and image bytes.
    cycle_ratio: Dict[str, float] = field(default_factory=dict)
    size_ratio: Dict[str, float] = field(default_factory=dict)
    cache_gets: int = 0
    cache_hits: int = 0


def validation_run(image: Image, program: Workload, size: str, seed: int):
    """One validation run; the traced loop wraps it in a ``validate``
    span."""
    return run_image(image, library=program.library(size), seed=seed)


def mismatch(reference, run) -> Optional[str]:
    """Why ``run`` does not behave like ``reference``, or ``None``."""
    if run.fault is not None:
        return f"faulted: {run.fault}"
    if run.exit_code != reference.exit_code:
        return f"exit code {run.exit_code}, original {reference.exit_code}"
    if run.stdout != reference.stdout:
        return "stdout differs from the original's"
    return None


class Bench:
    """A workload: its jobs, set-up, one job, and post-loop checks."""
    name = ""
    size = "small"
    #: Seconds one round takes on a 2-core x86-64 host; sets the rounds.
    round_seconds = 1.0

    def __init__(self, seed: int, jobs: List[Job], smoke: bool) -> None:
        self.seed = seed
        # Smoke runs take the first and last job: cheap, and between
        # them they cover every code path of the workload.
        self.jobs = [jobs[0], jobs[-1]] if smoke else jobs
        self.tally = Tally()
        self.references: Dict[tuple, object] = {}
        self.scratch = tempfile.mkdtemp(dir=WORK)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def guard(self) -> None:
        """Precondition: every original binary runs cleanly at this
        workload's size, so no timing rests on a faulting original
        (``mcf`` faults at ``large``).  The runs are the reference
        outputs."""
        for job in self.jobs:
            key = (job.program.name, job.opt)
            if key in self.references:
                continue
            run = validation_run(job.program.compile(job.opt),
                                 job.program, self.size, self.seed)
            if not run.ok or run.exit_code != 0:
                raise PreconditionError(
                    f"original {job.program.name}/O{job.opt} does not run "
                    f"cleanly at size {self.size!r}: "
                    f"{run.fault or f'exit code {run.exit_code}'}")
            self.references[key] = run

    def reference(self, job: Job):
        return self.references[(job.program.name, job.opt)]

    def counted_run(self, job: Job, image: Image):
        """A validation run, counted into ``guest_mips``."""
        started = time.perf_counter()
        run = validation_run(image, job.program, self.size, self.seed)
        self.tally.seconds += time.perf_counter() - started
        self.tally.instructions += run.instructions
        return run

    def validate(self, job: Job, image: Image, original: Image, reference):
        """Run ``image`` and check it against ``reference``; record the
        cycle and size ratios."""
        run = self.counted_run(job, image)
        problem = mismatch(reference, run)
        if problem:
            raise JobFailure(problem)
        self.tally.cycle_ratio[job.name] = \
            run.wall_cycles / reference.wall_cycles
        self.tally.size_ratio[job.name] = \
            len(image.to_bytes()) / len(original.to_bytes())

    def setup(self) -> None:
        self.guard()

    def run_job(self, job: Job) -> Optional[bytes]:
        raise NotImplementedError

    def finish(self, executions: List[Execution]) -> None:
        """Checks after the timed loop (none by default)."""


class Table2Cold(Bench):
    """Table 2 reproduced cold, as a user runs it: compile, hybrid
    recompile into an empty cache, validate against the original."""
    name = "table2-cold"
    round_seconds = 25.0

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, [
            Job(program, opt, fence_opt) for program in PHOENIX_WORKLOADS
            for opt in (0, 3) for fence_opt in (False, True)], smoke)

    def run_job(self, job: Job) -> bytes:
        program = job.program
        original = compile_minic(program.source, opt_level=job.opt,
                                 name=program.name)
        if original.to_bytes() != program.compile(job.opt).to_bytes():
            raise JobFailure("compile_minic bytes differ from "
                             "Workload.compile")
        cache = ArtifactCache(tempfile.mkdtemp(dir=self.scratch))
        try:
            result, _report = hybrid_recompile(
                program, job.opt, size=self.size, seed=self.seed,
                fence_opt=job.fence_opt, cache=cache)
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)
        self.tally.cache_gets += cache.hits + cache.misses
        self.tally.cache_hits += cache.hits
        if cache.hits:
            raise JobFailure("a cold run was served from the cache")
        self.validate(job, result.image, original,
                      self.counted_run(job, original))
        return result.image.to_bytes()


class RecompileOnly(Bench):
    """The final stage of ``hybrid_recompile`` on precomputed ICFT
    traces and callbacks: compiler layers only, no emulation."""
    name = "recompile-only"
    round_seconds = 4.5
    #: Declared structured refusals: program -> text the
    #: ``TranslationError`` must contain.
    refusals = {"xalancbmk": "rdtls"}

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, [
            Job(program, opt)
            for program in PHOENIX_WORKLOADS + GAPBS_WORKLOADS + SPEC_WORKLOADS
            for opt in (0, 3)], smoke)
        self.inputs: Dict[str, tuple] = {}

    def setup(self) -> None:
        self.guard()
        for job in self.jobs:
            program = job.program
            image = program.compile(job.opt)
            trace = ICFTTracer(image).trace(
                lambda _x: program.library(self.size), inputs=[None],
                seed=self.seed)
            cfg = Recompiler(image).recover_cfg(trace=trace)
            try:
                observed = discover_callbacks(
                    image, program.library_factory(self.size),
                    seed=self.seed, cfg=cfg).observed
            except TranslationError:
                if program.name not in self.refusals:
                    raise
                observed = None
            self.inputs[job.name] = (image, trace, observed)

    def run_job(self, job: Job) -> Optional[bytes]:
        image, trace, observed = self.inputs[job.name]
        cfg = Recompiler(image).recover_cfg(trace=trace)
        expected = self.refusals.get(job.program.name)
        try:
            result = Recompiler(image, observed_callbacks=observed) \
                .recompile(cfg=cfg)
        except TranslationError as exc:
            if expected and expected in str(exc):
                return None
            raise
        if expected:
            raise JobFailure(f"expected a TranslationError ({expected})")
        return result.image.to_bytes()

    def finish(self, executions: List[Execution]) -> None:
        """Untimed: run each distinct output against its original."""
        by_name = {job.name: job for job in self.jobs}
        problems: Dict[str, str] = {}
        for execution in executions:
            if execution.error or execution.output is None \
                    or execution.job in problems \
                    or execution.job in self.tally.cycle_ratio:
                continue
            job = by_name[execution.job]
            try:
                self.validate(job, Image.from_bytes(execution.output),
                              job.program.compile(job.opt),
                              self.reference(job))
            except JobFailure as exc:
                problems[execution.job] = str(exc)
        for execution in executions:
            if execution.error is None and execution.job in problems:
                execution.error = problems[execution.job]


class ValidateLarge(Bench):
    """Warm-cache validation at ``large``: read each hybrid build from
    the cache, load it and run it with 8 guest threads."""
    name = "validate-large"
    size = "large"
    round_seconds = 9.5

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, [Job(program, opt)
                                for program in PHOENIX_WORKLOADS
                                for opt in (0, 3)], smoke)
        self.cache = ArtifactCache(os.path.join(self.scratch, "cache"))
        self.digests: Dict[str, str] = {}

    def setup(self) -> None:
        self.guard()
        for job in self.jobs:
            built = execute_job(RecompileJob(
                workload=job.program.name, opt_level=job.opt,
                seed=self.seed), cache=self.cache)
            if built.error:
                raise RuntimeError(f"{job.name}: build failed: {built.error}")
            self.digests[job.name] = built.digest

    def run_job(self, job: Job) -> bytes:
        hit = self.cache.get(self.digests[job.name])
        self.tally.cache_gets += 1
        if hit is None:
            raise JobFailure("cache miss on a warm cache")
        self.tally.cache_hits += 1
        self.validate(job, Image.from_bytes(hit.image_bytes),
                      job.program.compile(job.opt), self.reference(job))
        return hit.image_bytes


BENCHES = {bench.name: bench
           for bench in (Table2Cold, RecompileOnly, ValidateLarge)}


def execute(bench: Bench, job: Job,
            spans: Optional[layer_trace.LayerSpans]) -> Execution:
    """Run and time one job, traced when ``spans`` is given.  A failure
    is recorded, never raised: one bad job must not stop the others
    from being measured."""
    traced = spans is not None
    with spans if traced else nullcontext():
        started = time.perf_counter()
        output = error = None
        try:
            with (spans.tracer.span(layer_trace.ROOT, job=job.name)
                  if traced else nullcontext()):
                output = bench.run_job(job)
        except JobFailure as exc:
            error = str(exc)
        except Exception as exc:        # noqa: BLE001 - counted as failed
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
    return Execution(job.name, seconds, traced, output, error)


def check_repeats(executions: List[Execution]) -> None:
    """Every execution of a job must produce the bytes its first did."""
    first: Dict[str, Optional[bytes]] = {}
    for execution in executions:
        if execution.error:
            continue
        expected = first.setdefault(execution.job, execution.output)
        if execution.output != expected:
            execution.error = "output bytes differ from the job's first run"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, trace_out: Optional[str] = None) -> Dict:
    """Set up, run the timed loop and check one workload; the result
    dict ``run.py`` prints and stores."""
    os.makedirs(WORK, exist_ok=True)
    bench = BENCHES[workload](seed, smoke)
    try:
        started = time.perf_counter()
        bench.setup()
        setup_s = time.perf_counter() - started

        rounds = 1 if smoke else max(1, round(seconds / bench.round_seconds))
        tracers: List[Tracer] = []
        executions: List[Execution] = []
        started = time.perf_counter()
        for _round in range(rounds):
            spans = None
            if trace:
                # One tracer per round: the saved trace is round one.
                tracers.append(Tracer())
                spans = layer_trace.LayerSpans(tracers[-1], extra=[(
                    sys.modules[__name__], "validation_run", "validate",
                    None)])
            for index, job in enumerate(bench.jobs):
                # Traced mode runs each job untraced and traced, first
                # one then the other, so the warm-up a first run pays
                # falls on both halves alike.
                modes = ((None, spans) if index % 2 == 0 else
                         (spans, None)) if trace else (None,)
                for mode in modes:
                    executions.append(execute(bench, job, mode))
        wall_s = time.perf_counter() - started
        check_repeats(executions)
        bench.finish(executions)
    finally:
        bench.close()

    failures = [e for e in executions if e.error]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "rounds": rounds,
        "correct": not failures, "attempted": len(executions),
        "failed": len(failures),
        "failures": [{"job": e.job, "error": e.error}
                     for e in failures[:10]],
        "cache": {"gets": bench.tally.cache_gets,
                  "hits": bench.tally.cache_hits},
    }
    if trace:
        traced_wall = sum(e.seconds for e in executions if e.traced)
        untraced_wall = sum(e.seconds for e in executions if not e.traced)
        values = layer_trace.layer_metrics(
            [span for tracer in tracers for span in tracer.spans],
            traced_wall, untraced_wall)
        result["metrics"] = {name: {"value": value,
                                    "unit": layer_trace.unit(name)}
                             for name, value in values.items()}
        if trace_out:
            with open(trace_out, "w") as handle:
                json.dump(tracers[0].to_chrome_trace(), handle,
                          separators=(",", ":"))
        return result

    times = [e.seconds for e in executions]
    tail_pct, tail_s = benchstats.tail(times)
    tally = bench.tally
    result["tail"] = {"quantile": f"p{tail_pct}", "jobs": len(times)}
    result["fail_rate"] = len(failures) / len(executions)
    result["metrics"] = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "job_s.p50": {"value": statistics.median(times), "unit": "s"},
        "job_s.tail": {"value": tail_s, "unit": "s"},
        "guest_mips": {"value": (tally.instructions / tally.seconds / 1e6
                                 if tally.seconds else 0.0),
                       "unit": "Minstr/s"},
        "norm_runtime.geomean": {
            "value": benchstats.geomean(list(tally.cycle_ratio.values())),
            "unit": "ratio"},
        "code_size.geomean": {
            "value": benchstats.geomean(list(tally.size_ratio.values())),
            "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "unit": "MB"},
    }
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BENCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke, args.trace_out)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
