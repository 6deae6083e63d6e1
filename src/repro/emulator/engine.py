"""Two-tier execution engine for the VX machine.

Tier 1 — **ExecPlan cache**.  A plan is a per-PC tuple computed once at
decode time::

    (handler, instr, size, cost, klass, atomic)

``handler`` is the instruction's specialized handler (see
:func:`specialize`): a few lines of Python over the thread's register
list with the register indices, width masks, immediates and address
formula folded in, so a register ``mov`` retires in one Python call.
``cost`` is the fully evaluated static cycle cost (base + lock penalty
+ memory operand traffic), ``klass`` the perf-counter class name and
``atomic`` whether the instruction counts as an atomic RMW.  With a
plan in hand, the steady-state step is one dict lookup plus the
handler call.

Tier 2 — **superblock dispatch** (:func:`run_fast`).  Within one
scheduling quantum the current thread executes straight-line (and
branchy) guest code without re-entering the outer loop: the chain
executor :func:`_run_chain` keeps the cycle and wall-clock sums in
locals, derives the retired-instruction counts from the quantum budget
it consumed, and publishes everything when the chain breaks.  The seed
loop's per-instruction runnable-thread rescan is replaced by the
machine's incrementally maintained ``_runnable`` counter, updated only
on thread state transitions (spawn/block/wake/done) and resynced for
free at every ``_pick_thread``.  :func:`run_fast` is the one scheduler
loop of the fast and jit engines; the trace JIT passes its
trace-dispatching chain executor in place of :func:`_run_chain`.

Determinism is a hard invariant, bit for bit:

* the RNG is consumed in exactly the seed sequence — one
  ``randrange(len(runnable))`` per pick plus one ``randrange(quantum)``
  per budget draw, and nothing else;
* preemption happens at the same instruction boundaries (the budget is
  decremented once per retired instruction, planned or not);
* ``wall_cycles`` is accumulated with the identical sequence of float
  additions ``cost / max(1, min(runnable, cores))`` — the divisor stays
  an int, and planned instructions cannot change the runnable count,
  so hoisting it out of the chain loop preserves every intermediate
  rounding;
* faults are raised at the same instruction with the same recorded
  ``machine.fault``.

Opt-in layers compose structurally: a machine with a ``step_hook`` or
an instance-level ``_step`` (the sanitizer's wrapper) never enters the
chain executor — every instruction takes the hook-preserving single
step path, which still benefits from the incremental runnable counter.
A machine with register-traffic profiling plans the generic handlers,
whose counting register accessors the specialized ones skip.
``invalidate_decode_cache()`` drops plans together with decodes, and
``call_guest`` re-enters via ``_step`` which shares the same plan
cache.  ``tests/integration/test_engine_equivalence.py`` pins the
invariant against the seed loop, ``tests/unit/test_engine_specialize.py``
each specialized shape against its generic handler;
``docs/PERFORMANCE.md`` documents the design and the throughput
benchmark.
"""

from __future__ import annotations

import functools

from ..binfmt import IMPORT_STUB_BASE
from ..isa.instructions import Imm, Instruction, Mem
from ..isa.registers import Reg
from ..isa.spec import SPEC
from .cpu import U64
from .machine import (CycleLimitExceeded, EmulationFault, EXIT_ADDR, RSP,
                      THREAD_EXIT_ADDR, ThreadContext)
from .memory import MemoryFault

__all__ = ["run_fast", "specialize"]


def _run_chain(machine, thread, budget: int, max_cycles: int) -> int:
    """Execute planned guest instructions on ``thread`` until the
    quantum budget runs out, an unplanned PC (magic return address or
    import stub) is reached, the machine exits, or a fault propagates.

    Returns the remaining budget.  The cycle and wall-clock sums live
    in locals for the duration of the chain; every retired instruction
    consumes one unit of budget, so the instruction counts are the
    budget consumed and the thread's cycles the growth of the cycle
    sum.  All of them are published in the ``finally`` block, so
    observable machine state is exact at every exit — including fault
    exits mid-chain, where the faulting instruction has not retired.
    """
    cpu = thread.cpu
    plans = machine._plans
    plan_at = machine._plan_at
    by_class = machine.cycles_by_class
    # Planned instructions never change thread states, so the wall-clock
    # divisor is loop-invariant.  It must stay an *int* divisor: the
    # reference loop computes ``cost / max(1, min(runnable, cores))``
    # and bit-identical wall_cycles requires the identical division.
    denom = machine._runnable
    if denom > machine.cores:
        denom = machine.cores
    if denom < 1:
        denom = 1
    start_budget = budget
    start_total = total = machine.total_cycles
    wall = machine.wall_cycles
    atomics = machine.atomic_rmws
    try:
        while budget > 0:
            if total > max_cycles:
                machine.fault = CycleLimitExceeded(
                    "cycle budget exceeded", 0, -1)
                raise machine.fault
            pc = cpu.pc
            plan = plans.get(pc)
            if plan is None:
                if pc >= IMPORT_STUB_BASE or pc == EXIT_ADDR \
                        or pc == THREAD_EXIT_ADDR:
                    break
                plan = plan_at(pc)
            handler, instr, size, cost, klass, atomic = plan
            if atomic:
                atomics += 1
            cpu.pc = pc + size
            handler(machine, thread, instr)
            budget -= 1
            total += cost
            by_class[klass] += cost
            wall += cost / denom
            if machine.exited:
                break
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
        retired = start_budget - budget
        machine.instructions += retired
        thread.instructions += retired
        thread.cycles += total - start_total
        machine.total_cycles = total
        machine.wall_cycles = wall
        machine.atomic_rmws = atomics
    return budget


def run_fast(machine, max_cycles: int, chain=_run_chain) -> int:
    """The outer scheduling loop of the fast and jit engines.

    Mirrors the seed ``Machine._run_reference`` decision for decision —
    same RNG draws, same context-switch accounting, same fault points —
    but hands runnable quanta to the chain executor ``chain`` (called
    as ``chain(machine, thread, budget, max_cycles)``, returning the
    remaining budget) whenever no per-step hook is installed.
    """
    current = None
    budget = 0
    rng = machine.rng
    quantum = machine.quantum
    cores = machine.cores
    while not machine.exited:
        if machine.total_cycles > max_cycles:
            machine.fault = CycleLimitExceeded("cycle budget exceeded", 0, -1)
            raise machine.fault
        if current is None or budget <= 0 or \
                current.state != ThreadContext.RUNNABLE:
            previous = current
            current = machine._pick_thread()
            if current is None:
                break
            if previous is not None and current is not previous:
                machine.context_switches += 1
            budget = quantum + rng.randrange(quantum)
        if machine.step_hook is None and "_step" not in machine.__dict__:
            pc = current.cpu.pc
            if pc < IMPORT_STUB_BASE and pc != EXIT_ADDR \
                    and pc != THREAD_EXIT_ADDR:
                budget = chain(machine, current, budget, max_cycles)
                continue
        # Single-step path: magic return addresses, import stubs, or a
        # hooked/sanitized machine.  Exactly the seed loop's body, with
        # the incremental runnable counter replacing the O(threads)
        # rescan (external calls may block/wake/spawn, so the counter
        # is re-read after every step).
        try:
            cost = machine._step(current)
        except MemoryFault as exc:
            machine.fault = EmulationFault(str(exc), current.cpu.pc,
                                           current.tid)
            raise machine.fault from exc
        except EmulationFault as exc:
            machine.fault = exc
            raise
        budget -= 1
        machine.wall_cycles += cost / max(1, min(machine._runnable, cores))
    return machine.exit_code


# --- plan-time handler specialization ----------------------------------------
#
# At plan-build time an instruction's operand shapes are known, so the
# generic handler's per-retire isinstance dispatch, width branching and
# register accessor calls compile away.  A specialized handler indexes
# the thread's register list ``r`` directly; memory still goes through
# ``Memory.read_int``/``write_int`` and flags through
# ``Machine._flags_*``, so those semantics stay defined in one place.
# Each handler performs its generic twin's reads, writes and faults in
# the same order, which ``tests/unit/test_engine_specialize.py`` checks
# shape by shape on random states.  Anything without a specialization
# (vector operands, indirect branches, shifts, division, atomics, SIMD,
# terminators other than ``ret``) keeps its generic handler.

#: jcc mnemonic -> flag predicate.  The compiled spec predicates are
#: the very callables Machine._cond evaluates, so both agree by
#: construction.
_CONDITIONS = {name: spec.cond for name, spec in SPEC.items()
               if spec.branch_kind == "jcc"}

#: The operator of each logic ``alu_op`` (add and sub have their own
#: flag helpers).
_LOGIC_OPS = {"and": "&", "or": "|", "xor": "^"}


def specialize(instr: Instruction, generic):
    """Return a handler specialized to ``instr``'s operand shapes, or
    ``generic`` when the shape has no specialization.

    Handlers keep the generic calling convention
    ``handler(machine, thread, instr)``.  Emitters are found by the
    spec's ``sem`` tag, or its branch or terminator kind, so no
    per-mnemonic table exists outside ``isa/spec.py``.
    """
    spec = SPEC[instr.mnemonic]
    tag = spec.sem or spec.branch_kind or spec.terminator_kind
    emit = getattr(_Handler, f"_sem_{tag}", None)
    if emit is None or instr.width not in spec.widths:
        return generic
    if spec.branch_kind is not None and \
            not isinstance(instr.operands[0], Imm):
        return generic      # indirect: the generic handler fires hooks
    handler = _Handler(instr)
    emit(handler, *instr.operands)
    return handler.build()


class _Handler:
    """The Python source of one specialized handler.

    Emitters append statements over ``m`` (machine), ``t`` (thread),
    ``cpu`` and ``r`` (its register list).  Operand constants become
    closure variables ``k0, k1, ...`` rather than literals, so every
    instruction of one shape shares a compiled factory: compiling per
    instruction would cost more than the handler saves.
    """

    def __init__(self, instr: Instruction) -> None:
        self.mnemonic = instr.mnemonic
        self.width = instr.width
        self.lines = []
        self.consts = []

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def reg(self, op: Reg) -> str:
        return f"r[{self.const(op.index)}]"

    def addr(self, mem: Mem) -> str:
        """The effective address, as Machine._mem_addr computes it."""
        terms = []
        if mem.base is not None:
            terms.append(self.reg(mem.base))
        if mem.index is not None:
            terms.append(f"{self.reg(mem.index)} * {self.const(mem.scale)}")
        if not terms:
            return self.const(mem.disp & U64)
        if mem.disp:
            terms.append(self.const(mem.disp))
        elif mem.index is None:
            return terms[0]         # a register value is already in range
        return f"({' + '.join(terms)}) & {U64}"

    def bind(self, op):
        """Evaluate a memory operand's address once into the local
        ``a`` (read-modify-write destinations); registers pass through."""
        if isinstance(op, Mem):
            self.lines.append(f"a = {self.addr(op)}")
            return "a"
        return op

    def read(self, op, width: int) -> str:
        """An expression for Machine._read_operand's value of ``op``
        (a register, an immediate, a Mem, or a bound address)."""
        if isinstance(op, Reg):
            if width < 8:
                return f"({self.reg(op)} & {_mask(width)})"
            return self.reg(op)
        if isinstance(op, Imm):
            return self.const(op.value & _mask(width))
        addr = op if isinstance(op, str) else self.addr(op)
        return f"m.memory.read_int({addr}, {width})"

    def store(self, op, value: str, width: int) -> None:
        """Machine._write_operand of a ``value`` already masked to
        ``width`` (so a register store needs no further masking)."""
        if isinstance(op, Reg):
            self.lines.append(f"{self.reg(op)} = {value}")
            return
        addr = op if isinstance(op, str) else self.addr(op)
        self.lines.append(f"m.memory.write_int({addr}, {value}, {width})")

    def build(self):
        """The handler: this shape's factory applied to the constants."""
        text = "\n".join(self.lines)
        prologue = []
        if "cpu" in text:
            prologue.append("cpu = t.cpu")
        if "r[" in text:
            prologue.append("r = cpu.regs" if prologue else "r = t.cpu.regs")
        body = "".join(f"        {line}\n" for line in prologue + self.lines)
        params = ", ".join(f"k{n}" for n in range(len(self.consts)))
        return _factory(self.mnemonic, params, body)(*self.consts)

    # -- per-sem emitters (resolved via the spec, never by literal table) --

    def _sem_mov(self, dst, src) -> None:
        self.store(dst, self.read(src, self.width), self.width)

    def _sem_movsx(self, dst, src) -> None:
        sign = 1 << (self.width * 8 - 1)
        value = self.read(src, self.width)
        self.store(dst, f"(({value} ^ {sign}) - {sign}) & {U64}", 8)

    def _sem_lea(self, dst, src) -> None:
        self.store(dst, self.addr(src), 8)

    def _sem_push(self, src) -> None:
        self.lines += [f"v = {self.read(src, 8)}",
                       f"sp = r[{RSP}] - 8",
                       f"r[{RSP}] = sp & {U64}",
                       "m.memory.write_int(sp, v, 8)"]

    def _sem_pop(self, dst) -> None:
        self.lines += [f"sp = r[{RSP}]",
                       "v = m.memory.read_int(sp, 8)",
                       f"r[{RSP}] = (sp + 8) & {U64}"]
        self.store(dst, "v", 8)

    def _binop(self, dst, src, result: str) -> None:
        """``dst = result`` over ``x`` (dst) and ``y`` (src), read in
        that order, as Machine._binop does."""
        dst = self.bind(dst)
        self.lines += [f"x = {self.read(dst, self.width)}",
                       f"y = {self.read(src, self.width)}",
                       f"v = {result}"]
        self.store(dst, "v", self.width)

    def _alu(self, alu_op: str, a: str, b: str) -> str:
        if alu_op in _LOGIC_OPS:
            return (f"m._flags_logic(cpu, {a} {_LOGIC_OPS[alu_op]} {b}, "
                    f"{self.width})")
        return f"m._flags_{alu_op}(cpu, {a}, {b}, {self.width})"

    def _sem_alu(self, dst, src) -> None:
        self._binop(dst, src, self._alu(SPEC[self.mnemonic].alu_op, "x", "y"))

    def _sem_imul(self, dst, src) -> None:
        sign = 1 << (self.width * 8 - 1)
        wrap = sign << 1
        self._binop(dst, src, (
            f"m._flags_logic(cpu, ((x - {wrap} if x >= {sign} else x) * "
            f"(y - {wrap} if y >= {sign} else y)) & {_mask(self.width)}, "
            f"{self.width})"))

    def _incdec(self, dst, alu_op: str) -> None:
        dst = self.bind(dst)
        self.lines += ["c = cpu.cf",
                       f"v = {self._alu(alu_op, self.read(dst, self.width), '1')}",
                       "cpu.cf = c"]       # INC/DEC leave CF unchanged
        self.store(dst, "v", self.width)

    def _sem_inc(self, dst) -> None:
        self._incdec(dst, "add")

    def _sem_dec(self, dst) -> None:
        self._incdec(dst, "sub")

    def _sem_cmp(self, a, b) -> None:
        self.lines.append(self._alu("sub", self.read(a, self.width),
                                    self.read(b, self.width)))

    def _sem_test(self, a, b) -> None:
        self.lines.append(self._alu("and", self.read(a, self.width),
                                    self.read(b, self.width)))

    def _sem_jcc(self, target: Imm) -> None:
        cond = self.const(_CONDITIONS[self.mnemonic])
        self.lines += [f"if {cond}(cpu):",
                       f"    cpu.pc = {self.const(target.value & U64)}"]

    def _sem_jmp(self, target: Imm) -> None:
        self.lines.append(f"cpu.pc = {self.const(target.value & U64)}")

    def _sem_call(self, target: Imm) -> None:
        self.lines += [f"sp = r[{RSP}] - 8",
                       f"r[{RSP}] = sp & {U64}",
                       "m.memory.write_int(sp, cpu.pc, 8)",
                       f"cpu.pc = {self.const(target.value & U64)}"]

    def _sem_ret(self) -> None:
        self.lines += [f"sp = r[{RSP}]",
                       "cpu.pc = m.memory.read_int(sp, 8)",
                       f"r[{RSP}] = (sp + 8) & {U64}"]


def _mask(width: int) -> int:
    return (1 << (width * 8)) - 1


@functools.lru_cache(maxsize=None)
def _factory(name: str, params: str, body: str):
    """Compile ``def make(params): def h_name(m, t, i): body`` once per
    distinct handler shape.  The key space is finite: mnemonics ×
    operand shapes × addressing forms × widths."""
    source = (f"def make({params}):\n"
              f"    def h_{name}(m, t, i):\n{body}"
              f"    return h_{name}\n")
    namespace = {"__builtins__": {}}
    exec(compile(source, f"<handler {name}>", "exec"),  # noqa: S102
         namespace)
    return namespace["make"]
