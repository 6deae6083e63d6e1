"""Per-layer spans recorded from outside the program.

:class:`LayerSpans` wraps the public entry point of every pipeline
layer in a span on a :class:`repro.observability.Tracer` while a
``with`` block is open, and puts the originals back when it closes, so
untraced runs execute the unmodified program.  :func:`layer_metrics`
turns the recorded spans into per-layer self times, call counts and
ratios.  A layer's self time is its spans' durations minus the time
their child spans cover, so the layers partition the traced wall time
and ``unattributed.share`` is what falls outside every span.

Layer -> wrapped entry points:

* ``minicc``: ``compile_minic``
* ``icft_tracer``: ``ICFTTracer.trace``
* ``disassembler``: ``Disassembler.recover``
* ``lifter``: ``Lifter.lift``
* ``fences``: ``FenceInsertion.run_module``, ``FenceMerge.run_module``
* ``pass.<name>`` (summed as ``passes``): ``run_module`` of each class
  in :data:`PASS_CLASSES`
* ``lowering``: ``RecompiledBinaryBuilder.build``
* ``recompiler``: ``Recompiler.recompile`` and ``recover_cfg`` (their
  glue: the stages above are child spans)
* ``callbacks``: ``discover_callbacks``
* ``fence_opt``: ``optimize_fences``
* ``spinloop``: ``SpinloopDetector.analyze``
* ``emulator.<caller>``: ``Machine.run``, named after the nearest
  enclosing ``icft_tracer``/``callbacks``/``fence_opt``/``validate``
  span
* ``artifact_cache.{digest,get,put}``: the ``ArtifactCache`` methods
* ``binfmt``: ``Image.to_bytes`` and ``Image.from_bytes``
* ``validate``: the benchmark's own validation run (``extra`` target)
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import minicc, passes
from repro.binfmt import Image
from repro.core import (AccessInstrumentation, ArtifactCache, Disassembler,
                        FenceInsertion, FenceMerge, ICFTTracer, Lifter,
                        RecompiledBinaryBuilder, Recompiler, SpinloopDetector,
                        callbacks, fence_opt)
from repro.emulator import Machine

#: The optimisation passes a recompilation can run, plus the fence
#: optimisation's access instrumentation.
PASS_CLASSES = (
    passes.Mem2Reg, passes.RegPromote, passes.SimplifyCFG, passes.ConstFold,
    passes.LocalCSE, passes.LoadElim, passes.DSE, passes.DCE,
    passes.LoopSimplify, passes.LICM, passes.LoopUnroll,
    passes.ScalarPromotion, AccessInstrumentation, passes.Inliner)

#: Name of the benchmark's per-job root span; its self time is the
#: benchmark's and ``hybrid_recompile``'s own glue, i.e. unattributed.
ROOT = "job"

#: Spans whose ``Machine.run`` children are attributed to them.
CALLERS = {"icft_tracer": "trace", "callbacks": "callbacks",
           "fence_opt": "fence_opt", "validate": "validate"}

#: Layers reported as ``<layer>.s`` and ``<layer>.calls``.
LAYERS = ("minicc", "icft_tracer", "disassembler", "lifter", "fences",
          "passes", "lowering", "recompiler", "callbacks", "fence_opt",
          "spinloop", "binfmt", "validate")

Note = Optional[Callable[[Any, tuple, Any], None]]


def _note_instructions(span, args, _result) -> None:
    span.args["instructions"] = args[0].instructions


def _note_applied(span, _args, result) -> None:
    span.args["applied"] = bool(result is not None and result.applied)


def _note_hit(span, _args, result) -> None:
    span.args["hit"] = result is not None


def targets() -> List[Tuple[Any, str, str, Note]]:
    """``(owner, attribute, span name, note)`` for every wrapped entry
    point.  ``note(span, args, result)`` adds span args after the call."""
    return [
        (minicc, "compile_minic", "minicc", None),
        (ICFTTracer, "trace", "icft_tracer", None),
        (Disassembler, "recover", "disassembler", None),
        (Lifter, "lift", "lifter", None),
        (FenceInsertion, "run_module", "fences", None),
        (FenceMerge, "run_module", "fences", None),
        *[(cls, "run_module", f"pass.{cls.name}", None)
          for cls in PASS_CLASSES],
        (RecompiledBinaryBuilder, "build", "lowering", None),
        (Recompiler, "recompile", "recompiler", None),
        (Recompiler, "recover_cfg", "recompiler", None),
        (callbacks, "discover_callbacks", "callbacks", None),
        (fence_opt, "optimize_fences", "fence_opt", _note_applied),
        (SpinloopDetector, "analyze", "spinloop", None),
        (Machine, "run", "emulator", _note_instructions),
        (ArtifactCache, "digest", "artifact_cache.digest", None),
        (ArtifactCache, "get", "artifact_cache.get", _note_hit),
        (ArtifactCache, "put", "artifact_cache.put", None),
        (Image, "to_bytes", "binfmt", None),
        (Image, "from_bytes", "binfmt", None),
    ]


def _wrap(tracer, function, name: str, note: Note):
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            tracer.end(span)
            if note is not None:
                note(span, args, result)
    traced.__wrapped__ = function
    return traced


_MISSING = object()


class LayerSpans:
    """Context manager that records layer spans on ``tracer``.

    Module-level functions are replaced in every loaded module that
    bound them by name (``from x import f``), so callers see the
    wrapper whichever way they imported it.  ``extra`` adds targets of
    the same shape as :func:`targets`."""

    def __init__(self, tracer, extra: Iterable = ()) -> None:
        self.tracer = tracer
        # Resolve every original before patching anything, so a
        # subclass never wraps its base class's wrapper.
        self._plan: List[Tuple[Any, str, Any]] = []
        for owner, attr, name, note in [*targets(), *extra]:
            if inspect.ismodule(owner):
                original = owner.__dict__[attr]
                wrapper = _wrap(tracer, original, name, note)
                for module in list(sys.modules.values()):
                    if getattr(module, "__dict__", {}).get(attr) is original:
                        self._plan.append((module, attr, wrapper))
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(_wrap(tracer, raw.__func__, name, note))
            else:
                wrapper = _wrap(tracer, raw, name, note)
            self._plan.append((owner, attr, wrapper))
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerSpans":
        for owner, attr, wrapper in self._plan:
            self._saved.append((owner, attr,
                                owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *_exc) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _caller(span) -> str:
    parent = span.parent
    while parent is not None:
        if parent.name in CALLERS:
            return CALLERS[parent.name]
        parent = parent.parent
    return "other"


def layer_metrics(spans: List, traced_wall: float,
                  untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of traced jobs that took
    ``traced_wall`` seconds; ``untraced_wall`` is the same jobs run
    untraced, for ``tracing.overhead``."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    instructions: Counter = Counter()
    flags: Counter = Counter()
    for span in spans:
        if span.name == ROOT:
            continue
        key = span.name
        if key == "emulator":
            key = f"emulator.{_caller(span)}"
        own[key] += span.duration - covered[id(span)]
        calls[key] += 1
        instructions[key] += span.args.get("instructions", 0)
        flags[key] += bool(span.args.get("applied") or span.args.get("hit"))
    pass_keys = [key for key in own if key.startswith("pass.")]
    own["passes"] = sum(own[key] for key in pass_keys)
    calls["passes"] = sum(calls[key] for key in pass_keys)

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = own[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    for cls in PASS_CLASSES:
        metrics[f"pass.{cls.name}.s"] = own[f"pass.{cls.name}"]
    emu_seconds = emu_instructions = 0
    for caller in CALLERS.values():
        key = f"emulator.{caller}"
        metrics[f"{key}.s"] = own[key]
        metrics[f"{key}.instructions"] = instructions[key]
        emu_seconds += own[key]
        emu_instructions += instructions[key]
    metrics["emulator.mips"] = (emu_instructions / emu_seconds / 1e6
                                if emu_seconds else 0.0)
    metrics["fence_opt.applied_ratio"] = (
        flags["fence_opt"] / calls["fence_opt"] if calls["fence_opt"]
        else 0.0)
    for op in ("digest", "get", "put"):
        metrics[f"artifact_cache.{op}.s"] = own[f"artifact_cache.{op}"]
    gets = calls["artifact_cache.get"]
    metrics["artifact_cache.hit_ratio"] = (
        flags["artifact_cache.get"] / gets if gets else 0.0)
    attributed = sum(seconds for key, seconds in own.items()
                     if key != "passes")
    metrics["unattributed.share"] = 1.0 - attributed / traced_wall
    metrics["tracing.overhead"] = traced_wall / untraced_wall - 1.0
    return metrics


def unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith(".s"):
        return "s"
    if metric.endswith((".calls", ".instructions")):
        return "count"
    if metric.endswith(".mips"):
        return "Minstr/s"
    return "ratio"
