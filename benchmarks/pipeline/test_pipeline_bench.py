"""Self-test of the pipeline ledger: ``python -m pytest benchmarks/pipeline``.

Drives ``run.py --smoke`` (one round of two jobs per workload, untraced
and traced) and checks the result shape, the tail-quantile rule, the
failure accounting and ``compare.py`` against the benchmark definition.
"""

import json
import os
import subprocess
import sys

import pytest

import benchstats
import compare
import ledger                       # puts src/ on sys.path
from repro.binfmt import Image
from repro.observability import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = benchstats.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``{trace: path}`` of smoke runs over every workload."""
    outputs = {}
    for trace in (0, 1):
        out = str(tmp_path_factory.mktemp("ledger") / f"smoke-{trace}.json")
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--trace", str(trace), "--out", out],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        outputs[trace] = out
    return outputs


def load(path):
    with open(path) as handle:
        return {run["workload"]: run for run in json.load(handle)["runs"]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(smoke, trace, kind):
    runs = load(smoke[trace])
    assert sorted(runs) == sorted(WORKLOADS)
    for workload, run in runs.items():
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] == 2 * (1 + trace)
        assert {name: metric["unit"] for name, metric
                in run["metrics"].items()} == \
            {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        cache = run["cache"]
        expected_hits = cache["gets"] if workload == "validate-large" else 0
        assert cache["hits"] == expected_hits
    if trace:
        layers = {name: metric["value"] for name, metric
                  in runs["recompile-only"]["metrics"].items()}
        assert not any(value for name, value in layers.items()
                       if name.startswith("emulator."))
        assert layers["passes.calls"] > 0


def test_traced_run_saves_a_valid_chrome_trace(smoke):
    for workload in WORKLOADS:
        path = smoke[1][:-len(".json")] + f".{workload}.trace.json"
        with open(path) as handle:
            trace = json.load(handle)
        Tracer.validate_chrome_trace(trace)
        roots = [event for event in trace["traceEvents"]
                 if event["name"] == "job"]
        assert len(roots) == 2


def test_compare_of_a_result_against_itself_is_unchanged(smoke):
    for trace in (0, 1):
        runs = compare.load_runs(smoke[trace])
        rows = compare.compare(runs, runs, SPEC)
        expected = len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1 if trace == 0
                                     else len(SPEC["per_layer"]))
        assert len(rows) == expected
        assert {row[-1] for row in rows} == ({"unchanged"} if trace == 0
                                             else {"-"})


def test_tail_quantile_rule():
    values = list(range(28))
    assert benchstats.tail(values[::-1]) == (64, 17)
    values = list(range(300))
    assert benchstats.tail(values) == (96, 289)
    # Too few jobs for a tail beyond the median: the median stands in.
    assert benchstats.tail([3.0, 1.0, 2.0]) == (50, 2.0)


def corrupt(image_bytes: bytes) -> bytes:
    """Overwrite the instructions at the entry point."""
    image = Image.from_bytes(image_bytes)
    code = image.section_at(image.entry)
    offset = image.entry - code.addr
    code.data[offset:offset + 16] = b"\xff" * 16
    return image.to_bytes()


def test_corrupted_recompiled_image_counts_in_fail_rate(monkeypatch):
    setup = ledger.ValidateLarge.setup

    def corrupting_setup(self):
        setup(self)
        digest = self.digests[self.jobs[0].name]
        entry = self.cache.get(digest)
        self.cache.put(digest, corrupt(entry.image_bytes), meta=entry.meta)

    monkeypatch.setattr(ledger.ValidateLarge, "setup", corrupting_setup)
    result = ledger.measure("validate-large", seed=21, seconds=20.0,
                            trace=False, smoke=True)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["fail_rate"] == 0.5
    assert result["failures"][0]["job"] == "histogram/O0"


def test_refusal_other_than_the_declared_one_counts_in_fail_rate(
        monkeypatch):
    monkeypatch.setattr(ledger.RecompileOnly, "refusals",
                        {"xalancbmk": "a refusal it does not raise"})
    result = ledger.measure("recompile-only", seed=21, seconds=20.0,
                            trace=False, smoke=True)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["failures"][0]["job"] == "xalancbmk/O3"
