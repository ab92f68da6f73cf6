"""Opcode definitions and per-opcode metadata.

Each opcode carries an :class:`OpClass` that the timing simulator maps to
a functional-unit pool and an execution latency, plus an operand *format*
string the assembler uses to parse and print instructions.

Formats
-------
``rrr``   three registers: ``op rd, rs1, rs2``
``rri``   two registers + immediate: ``op rd, rs1, imm``
``ri``    register + immediate: ``op rd, imm``
``mem``   memory form: ``op rd, imm(rs1)`` (rd is the value register)
``brr``   branch on two registers: ``op rs1, rs2, label``
``br``    branch on one register: ``op rs1, label``
``j``     unconditional jump: ``op label``
``jr``    indirect jump: ``op rs1``
``none``  no operands
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional classes; the timing model assigns latencies per class."""

    IALU = "ialu"
    IMUL = "imul"
    IDIV = "idiv"
    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        return self in _MEMORY_CLASSES

    @property
    def is_control(self) -> bool:
        return self in _CONTROL_CLASSES


# Module-level, so a membership test does not look members up through
# the enum class on every call (every TraceRecord asks is_memory).
_MEMORY_CLASSES = (OpClass.LOAD, OpClass.STORE)
_CONTROL_CLASSES = (OpClass.BRANCH, OpClass.JUMP)


class Opcode(enum.Enum):
    """All opcodes in the ISA."""

    # Integer ALU, register-register.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SLT = "slt"
    # Integer ALU, register-immediate.
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    LI = "li"
    # Long-latency integer.
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMOV = "fmov"
    # Memory.
    LD = "ld"
    ST = "st"
    FLD = "fld"
    FST = "fst"
    # Control.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BEQZ = "beqz"
    BNEZ = "bnez"
    J = "j"
    JAL = "jal"
    JR = "jr"
    # Misc.
    NOP = "nop"
    HALT = "halt"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata for one opcode."""

    opcode: Opcode
    op_class: OpClass
    fmt: str

    @property
    def mnemonic(self) -> str:
        return self.opcode.value

    @property
    def writes_dest(self) -> bool:
        return self.fmt in ("rrr", "rri", "ri", "mem") and self.op_class not in (
            OpClass.STORE,
        )

    @property
    def is_branch(self) -> bool:
        return self.op_class is OpClass.BRANCH

    @property
    def is_jump(self) -> bool:
        return self.op_class is OpClass.JUMP

    @property
    def is_control(self) -> bool:
        return self.op_class.is_control

    @property
    def is_load(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE


def _info(opcode: Opcode, op_class: OpClass, fmt: str) -> OpcodeInfo:
    return OpcodeInfo(opcode=opcode, op_class=op_class, fmt=fmt)


OPCODE_INFO = {
    Opcode.ADD: _info(Opcode.ADD, OpClass.IALU, "rrr"),
    Opcode.SUB: _info(Opcode.SUB, OpClass.IALU, "rrr"),
    Opcode.AND: _info(Opcode.AND, OpClass.IALU, "rrr"),
    Opcode.OR: _info(Opcode.OR, OpClass.IALU, "rrr"),
    Opcode.XOR: _info(Opcode.XOR, OpClass.IALU, "rrr"),
    Opcode.SLL: _info(Opcode.SLL, OpClass.IALU, "rrr"),
    Opcode.SRL: _info(Opcode.SRL, OpClass.IALU, "rrr"),
    Opcode.SLT: _info(Opcode.SLT, OpClass.IALU, "rrr"),
    Opcode.ADDI: _info(Opcode.ADDI, OpClass.IALU, "rri"),
    Opcode.ANDI: _info(Opcode.ANDI, OpClass.IALU, "rri"),
    Opcode.ORI: _info(Opcode.ORI, OpClass.IALU, "rri"),
    Opcode.XORI: _info(Opcode.XORI, OpClass.IALU, "rri"),
    Opcode.SLTI: _info(Opcode.SLTI, OpClass.IALU, "rri"),
    Opcode.LI: _info(Opcode.LI, OpClass.IALU, "ri"),
    Opcode.MUL: _info(Opcode.MUL, OpClass.IMUL, "rrr"),
    Opcode.DIV: _info(Opcode.DIV, OpClass.IDIV, "rrr"),
    Opcode.REM: _info(Opcode.REM, OpClass.IDIV, "rrr"),
    Opcode.FADD: _info(Opcode.FADD, OpClass.FADD, "rrr"),
    Opcode.FSUB: _info(Opcode.FSUB, OpClass.FADD, "rrr"),
    Opcode.FMUL: _info(Opcode.FMUL, OpClass.FMUL, "rrr"),
    Opcode.FDIV: _info(Opcode.FDIV, OpClass.FDIV, "rrr"),
    Opcode.FMOV: _info(Opcode.FMOV, OpClass.FADD, "ri"),
    Opcode.LD: _info(Opcode.LD, OpClass.LOAD, "mem"),
    Opcode.ST: _info(Opcode.ST, OpClass.STORE, "mem"),
    Opcode.FLD: _info(Opcode.FLD, OpClass.LOAD, "mem"),
    Opcode.FST: _info(Opcode.FST, OpClass.STORE, "mem"),
    Opcode.BEQ: _info(Opcode.BEQ, OpClass.BRANCH, "brr"),
    Opcode.BNE: _info(Opcode.BNE, OpClass.BRANCH, "brr"),
    Opcode.BLT: _info(Opcode.BLT, OpClass.BRANCH, "brr"),
    Opcode.BGE: _info(Opcode.BGE, OpClass.BRANCH, "brr"),
    Opcode.BEQZ: _info(Opcode.BEQZ, OpClass.BRANCH, "br"),
    Opcode.BNEZ: _info(Opcode.BNEZ, OpClass.BRANCH, "br"),
    Opcode.J: _info(Opcode.J, OpClass.JUMP, "j"),
    Opcode.JAL: _info(Opcode.JAL, OpClass.JUMP, "j"),
    Opcode.JR: _info(Opcode.JR, OpClass.JUMP, "jr"),
    Opcode.NOP: _info(Opcode.NOP, OpClass.NOP, "none"),
    Opcode.HALT: _info(Opcode.HALT, OpClass.NOP, "none"),
}

_BY_MNEMONIC = {info.mnemonic: info for info in OPCODE_INFO.values()}


def lookup_mnemonic(mnemonic: str) -> OpcodeInfo:
    """Return metadata for a mnemonic; raise KeyError for unknown ones."""
    return _BY_MNEMONIC[mnemonic.lower()]
