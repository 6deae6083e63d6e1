"""Shape-level differential test of the fast engine's specialized handlers.

Every operand shape ``engine.specialize`` accepts — mnemonic × operand
kinds × width × addressing form — runs through its specialized handler
and through the generic ``Machine._op_*`` handler on identical random
register, flag and memory states.  Both must leave identical
registers, flags, pc and memory, or raise the same fault.  Memory
operands and the stack pointer sit at a data segment's last bytes
(with another segment mapped right after it), so some accesses overrun
and must fault exactly as the generic handler does.
"""

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.binfmt import Image
from repro.emulator import EmulationFault, Machine, MemoryFault
from repro.emulator.engine import specialize
from repro.emulator.machine import _DISPATCH
from repro.isa import SPEC, Imm, Instruction, Mem, Reg
from repro.isa.registers import GPR_NAMES

_ALL = ("RR", "RI", "RM", "MR", "MI")

#: mnemonic -> the operand shapes ``specialize`` accepts.
SHAPES = {
    "mov": _ALL,
    "movsx": ("RR", "RM"),
    "lea": ("RM",),
    "push": ("R", "I", "M"),
    "pop": ("R", "M"),
    "add": _ALL,
    "sub": _ALL,
    "and": _ALL,
    "or": _ALL,
    "xor": _ALL,
    "imul": _ALL,
    "cmp": _ALL,
    "test": _ALL,
    "inc": ("R", "M"),
    "dec": ("R", "M"),
    "jmp": ("I",),
    "call": ("I",),
    "ret": ("",),
}
SHAPES.update({name: ("I",) for name, spec in SPEC.items()
               if spec.branch_kind == "jcc"})

CASES = sorted((name, shape) for name, shapes in SHAPES.items()
               for shape in shapes)

#: Addressing forms of a memory operand: absolute, base, index*scale,
#: each with or without a displacement, and base+index*scale.
FORMS = ("d", "b", "bd", "x", "xd", "bx", "bxd")

TEXT = 0x400000
NEXT_PC = TEXT + 8
DATA = 0x20000
SEGMENT = 64
DATA_END = DATA + SEGMENT
RSP = 4
U64 = (1 << 64) - 1
#: Random bytes fill the data segment's last TAIL bytes.
TAIL = 32
#: Registers no operand names hold fixed, distinct values.
FILLER = tuple((0x0123456789ABCDEF * (i + 1)) & U64 for i in range(16))

U64S = st.integers(0, U64)
#: Near the data segment's end, or so low that a push wraps below 0.
STACK_POINTERS = st.one_of(st.integers(DATA_END - 16, DATA_END),
                           st.integers(0, 16))


@pytest.fixture(scope="module")
def machine():
    image = Image()
    image.add_section(".text", TEXT, b"\x00" * 16, executable=True)
    image.entry = TEXT
    machine = Machine(image)
    machine.memory.map(DATA, SEGMENT, "data")
    machine.memory.map(DATA_END, SEGMENT, "next")   # adjacent: overruns
    return machine                                  # still fault


def _sample(kind):
    return {"R": Reg("rbx"), "V": Reg("xmm1"), "I": Imm(8),
            "M": Mem(base=Reg("rbp"), disp=-8)}[kind]


def test_table_lists_every_specialized_shape():
    """The table is exactly the set of shapes with a specialization, so
    a new specialized shape cannot go untested."""
    accepted = set()
    for name, spec in SPEC.items():
        generic = _DISPATCH[name]
        for shape in spec.shapes:
            instr = Instruction(name, tuple(_sample(k) for k in shape),
                                width=spec.widths[0])
            if specialize(instr, generic) is not generic:
                accepted.add((name, "".join(shape)))
    assert accepted == set(CASES)


def test_unlisted_widths_and_indirect_branches_stay_generic():
    generic = _DISPATCH["mov"]
    instr = Instruction("mov", (Reg("rax"), Reg("rbx")), width=16)
    assert specialize(instr, generic) is generic
    for name in ("jmp", "call", "je"):
        instr = Instruction(name, (Reg("rax"),))
        assert specialize(instr, _DISPATCH[name]) is _DISPATCH[name]


def _register(data, regs):
    """A random GPR operand holding a random value."""
    index = data.draw(st.integers(0, 15))
    regs[index] = data.draw(U64S)
    return Reg(GPR_NAMES[index])


def _memory_operand(data, form, regs):
    """A Mem operand of ``form`` addressing one of the data segment's
    last 16 bytes; the registers it uses are set to reach there."""
    target = DATA_END - data.draw(st.integers(1, 16))
    disp = data.draw(st.integers(-64, 64)) if "d" in form else 0
    if form == "d":
        return Mem(disp=target)
    base = index = None
    scale = 1
    if "b" in form:
        base = Reg(GPR_NAMES[data.draw(st.integers(0, 15))])
    if "x" in form:
        index = Reg(GPR_NAMES[data.draw(st.integers(0, 15))])
        scale = data.draw(st.sampled_from((1, 2, 4, 8)))
    rest = target - disp
    if base is None:
        regs[index.index] = (rest // scale) & U64
    elif index is None:
        regs[base.index] = rest & U64
    elif index.index == base.index:
        regs[base.index] = (rest // (1 + scale)) & U64
    else:
        regs[index.index] = data.draw(st.integers(0, 8))
        regs[base.index] = (rest - regs[index.index] * scale) & U64
    return Mem(base=base, index=index, scale=scale, disp=disp)


def _draw_case(data, name, shape, width, form):
    """An instruction of the given shape plus a start state: random
    operand registers and flags, the memory operand near the data
    segment's end, and random bytes there."""
    regs = list(FILLER)
    regs[RSP] = data.draw(STACK_POINTERS)
    operands = []
    for kind in shape:
        if kind == "R":
            operands.append(_register(data, regs))
        elif kind == "I":
            operands.append(Imm(data.draw(st.integers(-(1 << 63),
                                                      (1 << 63) - 1))))
        else:
            operands.append(_memory_operand(data, form, regs))
    flags = data.draw(st.tuples(*[st.booleans()] * 4))
    tail = data.draw(st.binary(min_size=TAIL, max_size=TAIL))
    instr = Instruction(name, tuple(operands), width=width)
    return instr, (regs, flags, tail)


def _execute(machine, handler, instr, state):
    """Run ``handler`` from ``state``; returns (fault, final state)."""
    regs, flags, tail = state
    thread = machine.main_thread
    cpu = thread.cpu
    cpu.regs[:] = regs
    cpu.zf, cpu.sf, cpu.cf, cpu.of = flags
    cpu.pc = NEXT_PC
    machine.memory.write(DATA, bytes(SEGMENT - TAIL) + tail)
    machine.memory.write(DATA_END, bytes(SEGMENT))
    fault = None
    try:
        handler(machine, thread, instr)
    except MemoryFault as exc:
        fault = (type(exc), exc.addr, exc.size, exc.kind)
    except EmulationFault as exc:
        fault = (type(exc), str(exc))
    return fault, (list(cpu.regs), (cpu.zf, cpu.sf, cpu.cf, cpu.of),
                   cpu.pc, machine.memory.read(DATA, SEGMENT),
                   machine.memory.read(DATA_END, SEGMENT))


@pytest.mark.parametrize("name,shape", CASES,
                         ids=[f"{n}-{s or 'none'}" for n, s in CASES])
# Every example loops over all widths and forms, so shrinking one would
# rerun that loop thousands of times; the failing instruction is in the
# assertion message instead.
@settings(max_examples=4, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.large_base_example])
@given(data=st.data())
def test_specialized_matches_generic(machine, name, shape, data):
    """Each example covers every width and addressing form of the shape."""
    generic = _DISPATCH[name]
    forms = FORMS if "M" in shape else ("",)
    for width in SPEC[name].widths:
        for form in forms:
            instr, state = _draw_case(data, name, shape, width, form)
            handler = specialize(instr, generic)
            assert handler is not generic, (instr, "not specialized")
            expected = _execute(machine, generic, instr, state)
            assert _execute(machine, handler, instr, state) == expected, \
                (instr, state)
