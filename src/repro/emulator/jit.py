"""Tier-3 trace JIT: hot superblocks compiled to Python code objects.

The two-tier engine (repro.emulator.engine) retires one pre-planned
Python closure per guest instruction.  This module adds the third
tier: once a branch target's execution count crosses a hotness
threshold, the straight-line region starting there — following direct
jumps, direct calls (with a guarded static return stack) and ending at
a loop-closing branch back to the head — is stitched into generated
Python source, ``compile()``d once, and installed as a single-call
executor for the whole region.  Operand decode, width masking, flag
updates, cost accounting and counter increments are folded into
locals-only straight-line code; per-guest-instruction work drops to a
few Python bytecodes.

Determinism is the same hard invariant the fast engine carries, bit
for bit against the reference interpreter:

* traces contain no scheduling points, so the RNG sequence and the
  preemption boundaries are untouched — the trace is entered only when
  the remaining quantum budget covers a whole pass (``min_budget``)
  and the cycle budget covers its full cost (``cost_cap``); otherwise
  the dispatcher *deopts* to the tier-2 chain, which reproduces the
  exact per-instruction preemption and ``CycleLimitExceeded`` points;
* ``wall_cycles`` is accumulated with the identical sequence of float
  additions: one ``wall += cost / denom`` per retired instruction, in
  retirement order, with the precomputed per-cost quotients — float
  addition is non-associative, so per-exit folding of the wall clock
  would diverge;
* guest faults restore exact machine state via the ``k`` marker: the
  generated code stores the index of the instruction about to execute
  before every faultable operation, and the ``except BaseException``
  recovery block rebuilds counters from prefix tables and re-raises,
  so a fault surfaces with the same post-advance PC, cycle counts and
  flags as the interpreters;
* ``jit.*`` statistics live in :meth:`TraceJit.stats`, *not* in
  ``Machine.perf_counters()`` — engine snapshots are asserted
  bit-identical across reference/fast/jit and only one engine has
  traces.

Deopt rules (the trace tier is bypassed, not approximated): machines
with register-traffic profiling run tier-2 wholesale (generated code
indexes ``cpu.regs`` directly and would skip the counting accessors);
per-step hooks and sanitizers take the hook-preserving single-step
path exactly as in ``run_fast``; indirect-transfer hooks disable trace
dispatch for the quantum; ``invalidate_decode_cache()`` drops compiled
traces and hotness counters together with decodes and plans, so
patched code re-specializes instead of executing stale traces.

Per-mnemonic semantics are emitted from the ISA spec's ``sem`` tags
(``isa/spec.py``) — the emitter registry is derived by ``getattr``
over :data:`SPEC`, and the flag/condition source comes from
``flags_update_source`` / ``cond_source``, so the generated code and
the interpreters share one definition of every architectural effect.

Compiled traces are machine-independent (they close over nothing but
code-derived constants) and are published in a per-image shared cache
(``image._jit_shared_traces``), so repeated runs of a cached workload
image — the benchmark's warm repeats, batch recompiles — reuse the
compiled code objects instead of paying compilation again.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..binfmt import IMPORT_STUB_BASE
from ..isa.instructions import Imm, Mem
from ..isa.registers import Reg
from ..isa.spec import SPEC, cond_source, flags_update_source
from .cpu import U64
from .engine import _run_chain, run_fast
from .machine import (CycleLimitExceeded, EmulationFault, EXIT_ADDR,
                      THREAD_EXIT_ADDR)
from .memory import MemoryFault

__all__ = ["run_jit", "TraceJit", "Trace"]

#: Default superblock-entry count that triggers trace compilation.
DEFAULT_THRESHOLD = 16

#: Retired guest instructions per trace, at most.
MAX_TRACE_INSTRS = 64

#: Traces shorter than this are not worth the dispatch overhead.
MIN_TRACE_INSTRS = 4

_U128 = (1 << 128) - 1
_LANE = 0xFFFFFFFF


class Trace:
    """One compiled trace: the executor plus its dispatch guards."""

    __slots__ = ("fn", "head", "n_instrs", "min_budget", "cost_cap",
                 "is_loop", "source")

    def __init__(self, fn, head: int, n_instrs: int, min_budget: int,
                 cost_cap: int, is_loop: bool, source: str) -> None:
        self.fn = fn
        self.head = head
        self.n_instrs = n_instrs
        self.min_budget = min_budget
        self.cost_cap = cost_cap
        self.is_loop = is_loop
        self.source = source


# --- trace discovery ---------------------------------------------------------

class _Step:
    """One retired guest instruction inside a trace."""

    __slots__ = ("kind", "pc", "next_pc", "instr", "cost", "klass",
                 "atomic", "target", "cond_expr", "expected")

    def __init__(self, kind: str, pc: int, next_pc: int, instr, cost: int,
                 klass: str, atomic: bool, target: Optional[int] = None,
                 cond_expr=None, expected: Optional[int] = None) -> None:
        self.kind = kind          # straight|jmp|jcc_exit|call|ret|loop
        self.pc = pc
        self.next_pc = next_pc    # post-advance pc (pc + size)
        self.instr = instr
        self.cost = cost
        self.klass = klass
        self.atomic = atomic
        self.target = target      # jmp/call target, jcc taken target
        self.cond_expr = cond_expr
        self.expected = expected  # guarded ret: static return address


def _build_steps(machine, head: int):
    """Walk the region at ``head`` into a step list.

    Follows direct jumps (retired as counter-only ghosts), direct
    calls below the import-stub window (tracking a static return
    stack) and guarded returns; ends at a loop-closing direct branch
    back to ``head`` (with the static call depth at zero), or at the
    first untraceable instruction — indirect control flow, external
    calls, terminators, ``rdtls``, or the length cap.

    Returns ``(steps, end_pc, loop_cond)`` where ``loop_cond`` is the
    closing jCC's condition expression, ``True`` for an unconditional
    closing jump, or ``None`` for a straight trace ending at
    ``end_pc``.
    """
    steps: List[_Step] = []
    pc = head
    call_stack: List[int] = []
    seen = {head}
    while len(steps) < MAX_TRACE_INSTRS:
        if pc >= IMPORT_STUB_BASE or pc == EXIT_ADDR \
                or pc == THREAD_EXIT_ADDR or (pc == head and steps):
            return steps, pc, None
        plan = machine._plans.get(pc)
        if plan is None:
            plan = machine._plan_at(pc)
        _handler, instr, size, cost, klass, atomic = plan
        spec = SPEC[instr.mnemonic]
        np = pc + size
        if spec.branch_kind == "jmp":
            op = instr.operands[0]
            if not isinstance(op, Imm):
                return steps, pc, None
            tgt = op.value & U64
            if tgt == head and not call_stack:
                steps.append(_Step("loop", pc, np, instr, cost, klass,
                                   atomic, target=tgt, cond_expr=None))
                return steps, np, True
            if tgt in seen:
                return steps, pc, None
            steps.append(_Step("jmp", pc, tgt, instr, cost, klass,
                               atomic, target=tgt))
            seen.add(tgt)
            pc = tgt
            continue
        if spec.branch_kind == "jcc":
            op = instr.operands[0]
            if not isinstance(op, Imm):
                return steps, pc, None
            tgt = op.value & U64
            if tgt == head and not call_stack:
                steps.append(_Step("loop", pc, np, instr, cost, klass,
                                   atomic, target=tgt,
                                   cond_expr=spec.cond_expr))
                return steps, np, spec.cond_expr
            steps.append(_Step("jcc_exit", pc, np, instr, cost, klass,
                               atomic, target=tgt,
                               cond_expr=spec.cond_expr))
            seen.add(np)
            pc = np
            continue
        if spec.branch_kind == "call":
            op = instr.operands[0]
            if not isinstance(op, Imm):
                return steps, pc, None
            tgt = op.value & U64
            if tgt >= IMPORT_STUB_BASE or tgt in seen:
                return steps, pc, None
            steps.append(_Step("call", pc, np, instr, cost, klass,
                               atomic, target=tgt))
            call_stack.append(np)
            seen.add(tgt)
            pc = tgt
            continue
        if spec.terminator_kind == "ret":
            if not call_stack:
                return steps, pc, None
            expected = call_stack.pop()
            steps.append(_Step("ret", pc, np, instr, cost, klass,
                               atomic, expected=expected))
            pc = expected
            continue
        if spec.terminator_kind is not None or spec.sem is None:
            return steps, pc, None
        steps.append(_Step("straight", pc, np, instr, cost, klass,
                           atomic))
        pc = np
    return steps, pc, None


# --- code generation ---------------------------------------------------------

class _Gen:
    """Assembles the Python source of one trace executor.

    One instance per trace; emitter methods are looked up via the ISA
    spec's ``sem`` tags (``getattr(self, "_sem_" + tag)``), so no
    per-mnemonic table exists outside ``isa/spec.py``.
    """

    def __init__(self, steps: List[_Step], head: int, end_pc: int,
                 loop_cond) -> None:
        self.steps = steps
        self.head = head
        self.end_pc = end_pc
        self.loop_cond = loop_cond
        self.is_loop = loop_cond is not None
        self.n = len(steps)
        self.full_cost = sum(st.cost for st in steps)
        self.full_atomics = sum(1 for st in steps if st.atomic)
        self.costs = sorted({st.cost for st in steps})
        self.class_full: Dict[str, int] = {}
        for st in steps:
            self.class_full[st.klass] = \
                self.class_full.get(st.klass, 0) + st.cost
        self.classes = sorted(self.class_full)
        self.uses_mem = False
        self.uses_xmm = False
        self.tmp = 0

    # -- shared fragments --------------------------------------------------

    def _mask(self, width: int) -> int:
        return (1 << (width * 8)) - 1

    def _addr(self, mem: Mem) -> str:
        """Effective-address expression (Machine._mem_addr verbatim)."""
        parts = []
        if mem.disp:
            parts.append(str(mem.disp))
        if mem.base is not None:
            parts.append(f"regs[{mem.base.index}]")
        if mem.index is not None:
            if mem.scale == 1:
                parts.append(f"regs[{mem.index.index}]")
            else:
                parts.append(f"regs[{mem.index.index}] * {mem.scale}")
        if not parts:
            return str(mem.disp & U64)
        return f"({' + '.join(parts)}) & {U64}"

    def _read(self, out: List[str], op, width: int, idx: int,
              name: str) -> str:
        """Emit a read of ``op`` into a temp; returns the expression.

        Mirrors Machine._read_operand: GPRs are width-masked, Imms are
        pre-masked constants, memory goes through ``rd`` (faultable —
        the caller must have stored the ``k`` marker)."""
        if isinstance(op, Reg):
            if op.is_vector:
                self.uses_xmm = True
                return f"xmm[{op.index}]"
            if width == 8:
                return f"regs[{op.index}]"
            return f"(regs[{op.index}] & {self._mask(width)})"
        if isinstance(op, Imm):
            return str(op.value & self._mask(width))
        if isinstance(op, Mem):
            self.uses_mem = True
            out.append(f"{name} = rd({self._addr(op)}, {width})")
            return name
        raise _Untraceable(f"operand {op!r}")

    def _write(self, out: List[str], op, width: int, value: str) -> None:
        """Emit a write of an already width-masked ``value`` to ``op``.

        Mirrors Machine._write_operand: sub-64-bit register writes
        zero-extend (the value is masked by construction, so a plain
        store is the same bits cpu.set would keep)."""
        if isinstance(op, Reg):
            if op.is_vector:
                self.uses_xmm = True
                out.append(f"xmm[{op.index}] = {value}")
            else:
                out.append(f"regs[{op.index}] = {value}")
            return
        if isinstance(op, Mem):
            self.uses_mem = True
            out.append(f"wr({self._addr(op)}, {value}, {width})")
            return
        raise _Untraceable(f"destination {op!r}")

    def _flags(self, out: List[str], kind: str, a: str, b: str, res: str,
               width: int) -> None:
        live = self._live
        for line in flags_update_source(kind, a, b, res, width * 8):
            if line[:2] in live:      # lines start "zf = ", "cf = ", ...
                out.append(line)

    def _t(self, prefix: str) -> str:
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    # -- per-sem emitters (resolved via spec.sem, never by literal table) --

    def _sem_mov(self, out, instr) -> None:
        dst, src = instr.operands
        w = instr.width
        if isinstance(src, Mem):
            # Fused load: the read expression feeds the write directly
            # (same read-before-write order as the interpreter).
            self.uses_mem = True
            self._write(out, dst, w, f"rd({self._addr(src)}, {w})")
            return
        self._write(out, dst, w, self._read(out, src, w, 0, self._t("v")))

    def _sem_movsx(self, out, instr) -> None:
        dst, src = instr.operands
        w = instr.width
        v = self._t("v")
        expr = self._read(out, src, w, 0, v)
        bits = w * 8
        s = self._t("v")
        out.append(f"{s} = {expr}")
        out.append(f"{s} = ({s} - {1 << bits} if {s} >= {1 << (bits - 1)} "
                   f"else {s}) & {U64}")
        self._write(out, dst, 8, s)

    def _sem_lea(self, out, instr) -> None:
        dst, src = instr.operands
        self._write(out, dst, 8, self._addr(src))

    def _sem_push(self, out, instr) -> None:
        v = self._read(out, instr.operands[0], 8, 0, self._t("v"))
        sp = self._t("sp")
        # sp stays unmasked for the store, exactly as _op_push computes
        # it — only the register write zero-wraps (cpu.set masks).
        out.append(f"{sp} = regs[4] - 8")
        out.append(f"regs[4] = {sp} & {U64}")
        self.uses_mem = True
        out.append(f"wr({sp}, {v}, 8)")

    def _sem_pop(self, out, instr) -> None:
        sp = self._t("sp")
        v = self._t("v")
        self.uses_mem = True
        out.append(f"{sp} = regs[4]")
        out.append(f"{v} = rd({sp}, 8)")
        out.append(f"regs[4] = ({sp} + 8) & {U64}")
        self._write(out, instr.operands[0], 8, v)

    def _sem_xchg(self, out, instr) -> None:
        a, b = instr.operands
        w = instr.width
        va = self._t("v")
        vb = self._t("v")
        ea = self._read(out, a, w, 0, va)
        eb = self._read(out, b, w, 0, vb)
        if ea != va:
            out.append(f"{va} = {ea}")
        if eb != vb:
            out.append(f"{vb} = {eb}")
        self._write(out, a, w, vb)
        self._write(out, b, w, va)

    def _alu_binop(self, out, instr, res_tmpl: str, flag_kind: str) -> None:
        """Shared shape of the flag-producing two-operand ALU group."""
        dst, src = instr.operands
        w = instr.width
        if not self._live:
            # Dead flags (liveness says no observation point sees this
            # update) and therefore pure register/immediate operands —
            # fuse read + compute + write into one statement.
            ea = self._read(out, dst, w, 0, self._t("v"))
            eb = self._read(out, src, w, 0, self._t("v"))
            self._write(out, dst, w, res_tmpl.format(
                a=ea, b=eb, mask=self._mask(w), bits=w * 8,
                sign=1 << (w * 8 - 1), wrap=1 << (w * 8)))
            return
        va = self._t("v")
        vb = self._t("v")
        ea = self._read(out, dst, w, 0, va)
        eb = self._read(out, src, w, 0, vb)
        if ea != va:
            out.append(f"{va} = {ea}")
        if eb != vb:
            out.append(f"{vb} = {eb}")
        r = self._t("r")
        out.append(f"{r} = " + res_tmpl.format(
            a=va, b=vb, mask=self._mask(w), bits=w * 8,
            sign=1 << (w * 8 - 1), wrap=1 << (w * 8)))
        self._flags(out, flag_kind, va, vb, r, w)
        self._write(out, dst, w, r)

    def _sem_alu(self, out, instr) -> None:
        op = SPEC[instr.mnemonic].alu_op
        if op == "add":
            self._alu_binop(out, instr, "({a} + {b}) & {mask}", "add")
        elif op == "sub":
            self._alu_binop(out, instr, "({a} - {b}) & {mask}", "sub")
        elif op == "and":
            self._alu_binop(out, instr, "{a} & {b}", "logic")
        elif op == "or":
            self._alu_binop(out, instr, "{a} | {b}", "logic")
        else:
            self._alu_binop(out, instr, "{a} ^ {b}", "logic")

    def _sem_shl(self, out, instr) -> None:
        self._alu_binop(out, instr, "({a} << ({b} & 63)) & {mask}", "logic")

    def _sem_shr(self, out, instr) -> None:
        self._alu_binop(out, instr, "{a} >> ({b} & 63)", "logic")

    def _sem_sar(self, out, instr) -> None:
        self._alu_binop(
            out, instr,
            "(({a} - {wrap} if {a} >= {sign} else {a}) >> ({b} & 63))"
            " & {mask}", "logic")

    def _sem_imul(self, out, instr) -> None:
        self._alu_binop(
            out, instr,
            "(({a} - {wrap} if {a} >= {sign} else {a})"
            " * ({b} - {wrap} if {b} >= {sign} else {b})) & {mask}",
            "logic")

    def _div_common(self, out, instr, want_rem: bool) -> None:
        dst, src = instr.operands
        w = instr.width
        va = self._t("v")
        vb = self._t("v")
        ea = self._read(out, dst, w, 0, va)
        eb = self._read(out, src, w, 0, vb)
        bits = w * 8
        wrap, sign = 1 << bits, 1 << (bits - 1)
        sa = self._t("d")
        sb = self._t("d")
        out.append(f"{sa} = {ea} - {wrap} if {ea} >= {sign} else {ea}")
        out.append(f"{sb} = {eb} - {wrap} if {eb} >= {sign} else {eb}")
        out.append(f"if {sb} == 0:")
        # The interpreter raises with the post-advance pc; in trace
        # code cpu.pc is stale, so the constant next_pc is baked in.
        out.append(f"    raise EmulationFault('divide by zero', "
                   f"{self._next_pc}, t.tid)")
        q = self._t("q")
        r = self._t("r")
        # int(sa / sb) is the interpreter's exact semantics (C-style
        # truncation through float division) — reproduced verbatim.
        out.append(f"{q} = int({sa} / {sb})")
        if want_rem:
            out.append(f"{r} = ({sa} - {q} * {sb}) & {self._mask(w)}")
        else:
            out.append(f"{r} = {q} & {self._mask(w)}")
        out.append("cf = False")
        out.append("of = False")
        out.append(f"zf = {r} == 0")
        out.append(f"sf = {r} >= {sign}")
        self._write(out, dst, w, r)

    def _sem_idiv(self, out, instr) -> None:
        self._div_common(out, instr, want_rem=False)

    def _sem_irem(self, out, instr) -> None:
        self._div_common(out, instr, want_rem=True)

    def _unop(self, out, instr, res_tmpl: str, flag_kind: Optional[str],
              flag_a_zero: bool = False) -> None:
        dst = instr.operands[0]
        w = instr.width
        if not self._live or flag_kind is None:
            # Dead (or absent) flags: fuse into a single statement.
            ea = self._read(out, dst, w, 0, self._t("v"))
            self._write(out, dst, w, res_tmpl.format(
                a=ea, mask=self._mask(w), sign=1 << (w * 8 - 1)))
            return
        va = self._t("v")
        ea = self._read(out, dst, w, 0, va)
        if ea != va:
            out.append(f"{va} = {ea}")
        r = self._t("r")
        out.append(f"{r} = " + res_tmpl.format(
            a=va, mask=self._mask(w), sign=1 << (w * 8 - 1)))
        if flag_a_zero:                # neg is flags_sub(0, a)
            self._flags(out, flag_kind, "0", va, r, w)
        else:
            self._flags(out, flag_kind, va, "1", r, w)
        self._write(out, dst, w, r)

    def _sem_neg(self, out, instr) -> None:
        self._unop(out, instr, "(0 - {a}) & {mask}", "sub",
                   flag_a_zero=True)

    def _sem_not(self, out, instr) -> None:
        self._unop(out, instr, "(~{a}) & {mask}", None)

    def _sem_inc(self, out, instr) -> None:
        self._unop(out, instr, "({a} + 1) & {mask}", "inc")

    def _sem_dec(self, out, instr) -> None:
        self._unop(out, instr, "({a} - 1) & {mask}", "dec")

    def _sem_cmp(self, out, instr) -> None:
        if not self._live:
            return                    # flags are its only effect
        a, b = instr.operands
        w = instr.width
        va = self._t("v")
        vb = self._t("v")
        ea = self._read(out, a, w, 0, va)
        eb = self._read(out, b, w, 0, vb)
        if ea != va:
            out.append(f"{va} = {ea}")
        if eb != vb:
            out.append(f"{vb} = {eb}")
        r = self._t("r")
        out.append(f"{r} = ({va} - {vb}) & {self._mask(w)}")
        self._flags(out, "sub", va, vb, r, w)

    def _sem_test(self, out, instr) -> None:
        if not self._live:
            return                    # flags are its only effect
        a, b = instr.operands
        w = instr.width
        va = self._t("v")
        vb = self._t("v")
        ea = self._read(out, a, w, 0, va)
        eb = self._read(out, b, w, 0, vb)
        r = self._t("r")
        out.append(f"{r} = {ea} & {eb}")
        self._flags(out, "logic", ea, eb, r, w)

    def _sem_cmpxchg(self, out, instr) -> None:
        dst, src = instr.operands
        w = instr.width
        cur = self._t("v")
        ec = self._read(out, dst, w, 0, cur)
        if ec != cur:
            out.append(f"{cur} = {ec}")
        exp = self._t("v")
        out.append(f"{exp} = regs[0] & {self._mask(w)}"
                   if w < 8 else f"{exp} = regs[0]")
        fr = self._t("r")
        out.append(f"{fr} = ({exp} - {cur}) & {self._mask(w)}")
        self._flags(out, "sub", exp, cur, fr, w)
        out.append(f"if {exp} == {cur}:")
        inner: List[str] = []
        nv = self._read(inner, src, w, 0, self._t("v"))
        self._write(inner, dst, w, nv)
        out.extend("    " + line for line in inner)
        out.append("else:")
        out.append(f"    regs[0] = {cur}")

    def _sem_xadd(self, out, instr) -> None:
        dst, src = instr.operands
        w = instr.width
        va = self._t("v")
        vb = self._t("v")
        ea = self._read(out, dst, w, 0, va)
        eb = self._read(out, src, w, 0, vb)
        if ea != va:
            out.append(f"{va} = {ea}")
        if eb != vb:
            out.append(f"{vb} = {eb}")
        r = self._t("r")
        out.append(f"{r} = ({va} + {vb}) & {self._mask(w)}")
        self._flags(out, "add", va, vb, r, w)
        self._write(out, dst, w, r)
        self._write(out, src, w, va)

    def _sem_mfence(self, out, instr) -> None:
        out.append("m.fences_executed += 1")

    def _sem_nop(self, out, instr) -> None:
        pass

    def _sem_movdq(self, out, instr) -> None:
        dst, src = instr.operands
        self._write(out, dst, 16,
                    self._read(out, src, 16, 0, self._t("v")))

    def _vec_alu(self, out, instr, sym: str) -> None:
        dst, src = instr.operands
        va = self._t("v")
        vb = self._t("v")
        ea = self._read(out, dst, 16, 0, va)
        eb = self._read(out, src, 16, 0, vb)
        if ea != va:
            out.append(f"{va} = {ea}")
        if eb != vb:
            out.append(f"{vb} = {eb}")
        lanes = []
        for i in range(4):
            sh = 32 * i
            a = f"({va} >> {sh} & {_LANE})" if sh else f"({va} & {_LANE})"
            b = f"({vb} >> {sh} & {_LANE})" if sh else f"({vb} & {_LANE})"
            lane = f"(({a} {sym} {b}) & {_LANE})"
            lanes.append(f"{lane} << {sh}" if sh else lane)
        r = self._t("r")
        out.append(f"{r} = {' | '.join(lanes)}")
        self._write(out, dst, 16, r)

    def _sem_vec_add(self, out, instr) -> None:
        self._vec_alu(out, instr, "+")

    def _sem_vec_sub(self, out, instr) -> None:
        self._vec_alu(out, instr, "-")

    def _sem_vec_mul(self, out, instr) -> None:
        self._vec_alu(out, instr, "*")

    def _sem_vec_xor(self, out, instr) -> None:
        self._vec_alu(out, instr, "^")

    def _sem_pextrd(self, out, instr) -> None:
        dst, src, lane = instr.operands
        self.uses_xmm = True
        sh = 32 * (lane.value & 3)
        expr = f"xmm[{src.index}] >> {sh} & {_LANE}" if sh \
            else f"xmm[{src.index}] & {_LANE}"
        self._write(out, dst, 8, f"({expr})")

    def _sem_pinsrd(self, out, instr) -> None:
        dst, src, lane = instr.operands
        self.uses_xmm = True
        v = self._read(out, src, 4, 0, self._t("v"))
        sh = 32 * (lane.value & 3)
        keep = _U128 ^ (_LANE << sh)
        ins = f"{v} << {sh}" if sh else v
        out.append(f"xmm[{dst.index}] = xmm[{dst.index}] & {keep} | {ins}")

    def _sem_pbroadcastd(self, out, instr) -> None:
        dst, src = instr.operands
        self.uses_xmm = True
        v = self._t("v")
        expr = self._read(out, src, 4, 0, v)
        if expr != v:
            out.append(f"{v} = {expr}")
        out.append(f"xmm[{dst.index}] = {v} | {v} << 32 "
                   f"| {v} << 64 | {v} << 96")

    # -- whole-trace assembly ----------------------------------------------

    def _faultable(self, st: _Step) -> bool:
        """Whether a step's body can raise a guest-visible exception
        (memory access or divide trap) — these need the ``k`` marker."""
        if st.kind in ("call", "ret"):
            return True
        if st.kind in ("jmp", "loop", "jcc_exit"):
            return False
        instr = st.instr
        if instr.mnemonic in ("idiv", "irem"):
            return True
        if SPEC[instr.mnemonic].implicit_stack is not None:
            return True
        return any(isinstance(op, Mem) for op in instr.operands)

    def _counter_lines(self, j_expr: str, cyc_expr: str,
                       patm_expr: Optional[str],
                       cls_exprs: Dict[str, str],
                       with_iters: bool) -> List[str]:
        """The counter-publication statements shared by every exit."""
        lines = []
        n, full = self.n, self.full_cost
        it_i = f"iters * {n} + " if with_iters else ""
        it_c = f"iters * {full} + " if with_iters else ""
        lines.append(f"m.instructions += {it_i}{j_expr}")
        lines.append(f"t.instructions += {it_i}{j_expr}")
        lines.append(f"t.cycles += {it_c}{cyc_expr}")
        if self.full_atomics or patm_expr:
            it_a = f"iters * {self.full_atomics} + " if with_iters \
                and self.full_atomics else ""
            expr = patm_expr if patm_expr else "0"
            if it_a or expr != "0":
                lines.append(f"m.atomic_rmws += {it_a}{expr}".replace(
                    " + 0", ""))
        for klass in self.classes:
            it_k = f"iters * {self.class_full[klass]} + " if with_iters \
                else ""
            expr = cls_exprs.get(klass, "0")
            line = f"bc['{klass}'] += {it_k}{expr}"
            line = line.replace(" + 0", "") if expr == "0" else line
            if it_k or expr != "0":
                lines.append(line)
        return lines

    def _exit_lines(self, retired: int, target_pc_expr: str,
                    prefixes, dec: bool = True) -> List[str]:
        """Epilogue for a run-time exit after ``retired`` instructions
        of the current pass (side exits, budget stops, trace ends).
        ``dec`` charges the retired count against the quantum budget —
        False in the bounded body, which decrements per instruction."""
        pcyc, patm, pcls = prefixes
        lines = ([f"budget -= {retired}"] if retired and dec else [])
        lines += [f"cpu.pc = {target_pc_expr}",
                  "cpu.zf = zf", "cpu.sf = sf", "cpu.cf = cf",
                  "cpu.of = of",
                  f"m.total_cycles = total + {pcyc[retired]}"
                  if pcyc[retired] else "m.total_cycles = total",
                  "m.wall_cycles = wall"]
        cls_exprs = {klass: str(pcls[klass][retired])
                     for klass in self.classes if pcls[klass][retired]}
        patm_expr = str(patm[retired]) if patm[retired] else None
        lines += self._counter_lines(str(retired), str(pcyc[retired]),
                                     patm_expr, cls_exprs, self.is_loop)
        lines.append("return budget")
        return lines

    _FLAG_DEFS_ALL = frozenset((
        "alu", "shl", "shr", "sar", "imul", "idiv", "irem", "neg",
        "cmp", "test", "cmpxchg", "xadd"))
    _FLAG_DEFS_NO_CF = frozenset(("inc", "dec"))
    _ALL_FLAGS = frozenset(("zf", "sf", "cf", "of"))

    def _flag_liveness(self) -> List[frozenset]:
        """Per-step flag-emission filters (dead-flag elimination).

        Backward liveness over the trace: a step's flag updates can be
        skipped when every flag it defines is overwritten before the
        next *observation point*.  Observation points are conservative:
        any exit (side exits and the trace end publish the flag locals
        to the CPU) and any faultable step (the fault recovery block
        publishes the locals, which must therefore track the
        interpreter's flags exactly at every potential fault).  The
        bounded body ignores these filters — every step there precedes
        a potential budget stop, so all updates stay.
        """
        live = set(self._ALL_FLAGS)
        out: List[frozenset] = [self._ALL_FLAGS] * self.n
        for i in reversed(range(self.n)):
            st = self.steps[i]
            sem = SPEC[st.instr.mnemonic].sem if st.kind == "straight" \
                else None
            if sem in self._FLAG_DEFS_ALL:
                defs = self._ALL_FLAGS
            elif sem in self._FLAG_DEFS_NO_CF:
                defs = frozenset(("zf", "sf", "of"))
            else:
                defs = frozenset()
            faultable = self._faultable(st)
            out[i] = self._ALL_FLAGS if faultable else frozenset(live)
            if faultable or st.kind in ("jcc_exit", "ret", "loop"):
                # Exits publish all four flags (the loop back edge via
                # its fallthrough exit and the guard-break epilogue).
                live = set(self._ALL_FLAGS)
            else:
                live -= defs
        return out

    def _emit_step(self, i: int, st: _Step, prefixes,
                   checked: bool) -> List[str]:
        """Render one step for the fast body (``checked=False``) or
        the bounded body (``checked=True``, per-step budget countdown
        reproducing tier-2's exact mid-region preemption points)."""
        self._next_pc = st.next_pc
        self._live = self._ALL_FLAGS if checked else self._live_sets[i]
        out: List[str] = []
        if checked:
            out.append("if not budget:")
            out.extend("    " + line for line in self._exit_lines(
                i, str(st.pc), prefixes, dec=False))
            out.append("budget -= 1")
        if self._faultable(st):
            out.append(f"k = {i}")
        out.append(f"# [{i}] {st.pc:#x} {st.instr.mnemonic}")
        lines: List[str] = []
        kind = st.kind
        if kind == "straight":
            getattr(self, "_sem_" + SPEC[st.instr.mnemonic].sem)(
                lines, st.instr)
            lines.append(f"wall += wc_{st.cost}")
        elif kind == "jmp":
            # Ghost: the jump is retired (budget/counters/wall) but the
            # transfer itself is folded into the trace layout.
            lines.append(f"wall += wc_{st.cost}")
        elif kind == "call":
            sp = self._t("sp")
            self.uses_mem = True
            lines.append(f"{sp} = regs[4] - 8")
            lines.append(f"regs[4] = {sp} & {U64}")
            lines.append(f"wr({sp}, {st.next_pc}, 8)")
            lines.append(f"wall += wc_{st.cost}")
        elif kind == "ret":
            sp = self._t("sp")
            v = self._t("v")
            self.uses_mem = True
            lines.append(f"{sp} = regs[4]")
            lines.append(f"{v} = rd({sp}, 8)")
            lines.append(f"regs[4] = ({sp} + 8) & {U64}")
            lines.append(f"if {v} != {st.expected}:")
            exit_lines = [f"wall += wc_{st.cost}"]
            exit_lines += self._exit_lines(i + 1, v, prefixes,
                                           dec=not checked)
            lines.extend("    " + line for line in exit_lines)
            lines.append(f"wall += wc_{st.cost}")
        elif kind == "jcc_exit":
            cond = cond_source(st.cond_expr, "{}")
            lines.append(f"if {cond}:")
            exit_lines = [f"wall += wc_{st.cost}"]
            exit_lines += self._exit_lines(i + 1, str(st.target),
                                           prefixes, dec=not checked)
            lines.extend("    " + line for line in exit_lines)
            lines.append(f"wall += wc_{st.cost}")
        elif kind == "loop":
            if not checked:
                lines.append(f"budget -= {self.n}")
            lines.append(f"total += {self.full_cost}")
            lines.append("iters += 1")
            lines.append(f"wall += wc_{st.cost}")
            if st.cond_expr is None:
                lines.append("continue")
            else:
                cond = cond_source(st.cond_expr, "{}")
                lines.append(f"if {cond}:")
                lines.append("    continue")
                # Budget/cycles for the full final pass were already
                # charged at the back edge; only pc + publishes remain.
                lines.extend(self._exit_lines(0, str(st.next_pc),
                                              prefixes, dec=False))
        out.extend(lines)
        return out

    def generate(self) -> str:
        steps = self.steps
        pcyc = [0]
        patm = [0]
        pcls = {klass: [0] for klass in self.classes}
        for st in steps:
            pcyc.append(pcyc[-1] + st.cost)
            patm.append(patm[-1] + (1 if st.atomic else 0))
            for klass in self.classes:
                pcls[klass].append(pcls[klass][-1]
                                   + (st.cost if klass == st.klass else 0))
        prefixes = (pcyc, patm, pcls)
        self._tables = {
            "_NEXT": tuple(st.next_pc if st.kind != "jmp" else st.target
                           for st in steps),
            "_PCYC": tuple(pcyc),
            "_PATM": tuple(patm),
        }
        for klass in self.classes:
            self._tables[f"_PCLS_{klass}"] = tuple(pcls[klass])
        self._live_sets = self._flag_liveness()

        fast: List[str] = []
        for i, st in enumerate(steps):
            fast.extend(self._emit_step(i, st, prefixes, checked=False))
        bounded: List[str] = []
        for i, st in enumerate(steps):
            bounded.extend(self._emit_step(i, st, prefixes, checked=True))

        src: List[str] = ["def __trace(m, t, budget, denom, max_cycles):"]
        src.append("    cpu = t.cpu")
        src.append("    regs = cpu.regs")
        if self.uses_xmm:
            src.append("    xmm = cpu.xmm")
        if self.uses_mem:
            src.append("    mem = m.memory")
            src.append("    rd = mem.read_int")
            src.append("    wr = mem.write_int")
        src.append("    bc = m.cycles_by_class")
        src.append("    zf = cpu.zf")
        src.append("    sf = cpu.sf")
        src.append("    cf = cpu.cf")
        src.append("    of = cpu.of")
        src.append("    total = m.total_cycles")
        src.append("    wall = m.wall_cycles")
        src.append("    iters = 0")
        src.append("    k = 0")
        for cost in self.costs:
            src.append(f"    wc_{cost} = {cost} / denom")
        src.append("    try:")
        if self.is_loop:
            src.append("        while 1:")
            src.append(f"            if total + {self.full_cost} "
                       f"> max_cycles:")
            src.append("                break")
            src.append(f"            if budget < {self.n}:")
            src.extend("                " + line for line in bounded)
            src.append("            else:")
            src.extend("                " + line for line in fast)
            # Cycle-guard-break epilogue: zero instructions this pass;
            # the caller's dispatch guard stops re-entry, and tier-2
            # interpretation reproduces the exact CycleLimit boundary.
            src.append(f"        cpu.pc = {self.head}")
            src.append("        cpu.zf = zf")
            src.append("        cpu.sf = sf")
            src.append("        cpu.cf = cf")
            src.append("        cpu.of = of")
            src.append("        m.total_cycles = total")
            src.append("        m.wall_cycles = wall")
            src.append("        if iters:")
            src.append(f"            m.instructions += iters * {self.n}")
            src.append(f"            t.instructions += iters * {self.n}")
            src.append(f"            t.cycles += iters * {self.full_cost}")
            if self.full_atomics:
                src.append(f"            m.atomic_rmws += "
                           f"iters * {self.full_atomics}")
            for klass in self.classes:
                src.append(f"            bc['{klass}'] += "
                           f"iters * {self.class_full[klass]}")
            src.append("        return budget")
        else:
            src.append(f"        if budget < {self.n}:")
            src.extend("            " + line for line in bounded)
            # Unreachable (a bounded entry always stops early), but
            # keeps both branches syntactically complete.
            src.extend("            " + line for line in self._exit_lines(
                self.n, str(self.end_pc), prefixes, dec=False))
            src.append("        else:")
            src.extend("            " + line for line in fast)
            src.extend("            " + line for line in self._exit_lines(
                self.n, str(self.end_pc), prefixes, dec=True))
        # Fault recovery: restore exact interpreter-visible state from
        # the k marker and the prefix tables, then re-raise.
        src.append("    except BaseException:")
        src.append("        cpu.pc = _NEXT[k]")
        src.append("        cpu.zf = zf")
        src.append("        cpu.sf = sf")
        src.append("        cpu.cf = cf")
        src.append("        cpu.of = of")
        src.append("        m.total_cycles = total + _PCYC[k]")
        src.append("        m.wall_cycles = wall")
        it_i = f"iters * {self.n} + " if self.is_loop else ""
        it_c = f"iters * {self.full_cost} + " if self.is_loop else ""
        src.append(f"        m.instructions += {it_i}k")
        src.append(f"        t.instructions += {it_i}k")
        src.append(f"        t.cycles += {it_c}_PCYC[k]")
        if any(st.atomic for st in steps):
            it_a = f"iters * {self.full_atomics} + " \
                if self.is_loop and self.full_atomics else ""
            src.append(f"        m.atomic_rmws += {it_a}_PATM[k + 1]")
        for klass in self.classes:
            it_k = f"iters * {self.class_full[klass]} + " \
                if self.is_loop else ""
            src.append(f"        bc['{klass}'] += {it_k}_PCLS_{klass}[k]")
        src.append("        raise")
        return "\n".join(src) + "\n"

    def compile(self) -> Trace:
        source = self.generate()
        namespace = dict(self._tables)
        namespace["EmulationFault"] = EmulationFault
        namespace["__builtins__"] = {"int": int}
        code = compile(source, f"<jit-trace-{self.head:#x}>", "exec")
        exec(code, namespace)  # noqa: S102 - source generated above
        fn = namespace["__trace"]
        # min_budget is 1: the bounded body reproduces tier-2's exact
        # mid-region preemption, so any positive budget may enter.
        return Trace(fn, self.head, self.n, 1, self.full_cost,
                     self.is_loop, source)


class _Untraceable(Exception):
    """An operand shape the code generator does not fold."""
    pass


def build_trace(machine, head: int) -> Optional[Trace]:
    """Discover, generate and compile the trace at ``head``; None when
    the region is too short or contains an untraceable instruction."""
    try:
        steps, end_pc, loop_cond = _build_steps(machine, head)
    except (EmulationFault, MemoryFault, KeyError):
        return None
    if len(steps) < MIN_TRACE_INSTRS:
        return None
    try:
        return _Gen(steps, head, end_pc, loop_cond).compile()
    except _Untraceable:
        return None


# --- the runtime -------------------------------------------------------------

class TraceJit:
    """Per-machine tier-3 state: hotness counters + the trace cache.

    The trace cache itself is shared per image (compiled traces close
    over nothing machine-specific), so repeated runs of a cached
    workload image skip recompilation.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.threshold = max(2, int(machine.jit_threshold))
        self.heat: Dict[int, int] = {}
        image = machine.image
        shared = getattr(image, "_jit_shared_traces", None)
        if shared is None:
            shared = {}
            try:
                image._jit_shared_traces = shared
            except AttributeError:  # pragma: no cover - frozen images
                pass
        self.traces: Dict[int, Optional[Trace]] = shared
        self.compiled = 0
        self.failures = 0
        self.entries = 0
        self.trace_instructions = 0
        self.deopts = 0
        #: Host seconds spent discovering, generating and compiling
        #: traces (failed attempts included) — the cold-run cost.
        self.compile_seconds = 0.0
        profile = machine.jit_profile
        if profile is not None:
            # One arrival below the trigger: the next taken branch into
            # a profiled-hot block compiles it immediately.
            for addr in profile.hot_blocks():
                self.heat[addr] = self.threshold - 1

    def invalidate(self) -> None:
        """Drop every compiled trace and reset hotness counters (code
        bytes changed; see Machine.invalidate_decode_cache)."""
        self.traces.clear()
        self.heat.clear()

    def compile_trace(self, head: int) -> None:
        """Compile (or cache the failure of) the trace at ``head``."""
        if head >= IMPORT_STUB_BASE or head == EXIT_ADDR \
                or head == THREAD_EXIT_ADDR:
            return
        start = time.perf_counter()
        try:
            trace = build_trace(self.machine, head)
        except Exception:
            trace = None
        self.compile_seconds += time.perf_counter() - start
        if trace is None:
            self.failures += 1
        else:
            self.compiled += 1
        self.traces[head] = trace

    def stats(self) -> Dict[str, float]:
        """The ``jit.*`` counter snapshot (see Machine.jit_stats)."""
        live = sum(1 for t in self.traces.values() if t is not None)
        return {
            "jit.traces": live,
            "jit.compiled": self.compiled,
            "jit.failures": self.failures,
            "jit.entries": self.entries,
            "jit.instructions": self.trace_instructions,
            "jit.deopts": self.deopts,
            "jit.compile_seconds": self.compile_seconds,
        }


def run_jit(machine, max_cycles: int) -> int:
    """The tier-3 engine: ``run_fast``'s scheduling loop (same RNG
    draws, same context-switch accounting, same fault points) with
    runnable quanta handed to the trace-dispatching chain executor.
    Register-traffic profiling deopts the whole run to tier-2 —
    generated code bypasses the counting register accessors.
    """
    if machine._jit is None:
        machine._jit = TraceJit(machine)
    if machine.profile_registers:
        return run_fast(machine, max_cycles)
    return run_fast(machine, max_cycles, chain=_run_chain_jit)


def _run_chain_jit(machine, thread, budget: int, max_cycles: int) -> int:
    """``engine._run_chain`` with trace dispatch and heat counting.

    Per-instruction behaviour (fault wrapping, publication of the
    buffered counters) is the tier-2 chain's; the additions are (a) a
    trace-cache probe per chain iteration, entered only when the
    quantum and cycle budgets cover a full pass, and (b) a hotness
    bump per *taken* control transfer, compiling at the threshold.
    With indirect-transfer hooks installed the quantum deopts to the
    tier-2 chain, which fires them exactly.
    """
    if machine.indirect_hooks:
        return _run_chain(machine, thread, budget, max_cycles)
    jit = machine._jit
    cpu = thread.cpu
    plans = machine._plans
    plan_at = machine._plan_at
    by_class = machine.cycles_by_class
    traces = jit.traces
    heat = jit.heat
    threshold = jit.threshold
    denom = machine._runnable
    if denom > machine.cores:
        denom = machine.cores
    if denom < 1:
        denom = 1
    total = machine.total_cycles
    wall = machine.wall_cycles
    t_cycles = thread.cycles
    t_instr = thread.instructions
    n_instr = machine.instructions
    atomics = machine.atomic_rmws
    jit_insns = 0
    try:
        while budget > 0:
            if total > max_cycles:
                machine.fault = CycleLimitExceeded(
                    "cycle budget exceeded", 0, -1)
                raise machine.fault
            pc = cpu.pc
            trace = traces.get(pc)
            if trace is not None:
                # budget > 0 holds (loop invariant); the bounded body
                # preempts mid-region exactly as tier-2 would.  Only
                # the cycle budget must cover a full pass, so that no
                # in-trace CycleLimit check is needed — near the cycle
                # limit the chain interprets and faults precisely.
                if total + trace.cost_cap <= max_cycles:
                    machine.total_cycles = total
                    machine.wall_cycles = wall
                    machine.instructions = n_instr
                    machine.atomic_rmws = atomics
                    thread.cycles = t_cycles
                    thread.instructions = t_instr
                    try:
                        budget = trace.fn(machine, thread, budget,
                                          denom, max_cycles)
                    finally:
                        total = machine.total_cycles
                        wall = machine.wall_cycles
                        jit_insns += machine.instructions - n_instr
                        n_instr = machine.instructions
                        atomics = machine.atomic_rmws
                        t_cycles = thread.cycles
                        t_instr = thread.instructions
                    jit.entries += 1
                    tgt = cpu.pc
                    h = heat.get(tgt, 0) + 1
                    heat[tgt] = h
                    if h == threshold and tgt not in traces:
                        jit.compile_trace(tgt)
                    continue
                jit.deopts += 1
            plan = plans.get(pc)
            if plan is None:
                if pc >= IMPORT_STUB_BASE or pc == EXIT_ADDR \
                        or pc == THREAD_EXIT_ADDR:
                    break
                plan = plan_at(pc)
            handler, instr, size, cost, klass, atomic = plan
            if atomic:
                atomics += 1
            np = pc + size
            cpu.pc = np
            handler(machine, thread, instr)
            budget -= 1
            t_cycles += cost
            t_instr += 1
            total += cost
            n_instr += 1
            by_class[klass] += cost
            wall += cost / denom
            if machine.exited:
                break
            if cpu.pc != np:
                tgt = cpu.pc
                h = heat.get(tgt, 0) + 1
                heat[tgt] = h
                if h == threshold and tgt not in traces:
                    jit.compile_trace(tgt)
    except MemoryFault as exc:
        # Same wrapping (and same post-advance pc) as the seed loop.
        machine.fault = EmulationFault(str(exc), cpu.pc, thread.tid)
        raise machine.fault from exc
    except CycleLimitExceeded:
        raise
    except EmulationFault as exc:
        machine.fault = exc
        raise
    finally:
        machine.total_cycles = total
        machine.wall_cycles = wall
        machine.instructions = n_instr
        machine.atomic_rmws = atomics
        thread.cycles = t_cycles
        thread.instructions = t_instr
        jit.trace_instructions += jit_insns
    return budget
