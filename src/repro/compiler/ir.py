"""Intermediate representation for the mini optimising compiler.

The IR is a conventional three-address representation structured as
programs → functions → basic blocks → instructions, with an explicit loop
forest and an explicit dynamic execution profile.  It is deliberately rich
enough that every optimisation flag of the paper's Figure 3 corresponds to a
genuine code transformation:

* instructions carry *value keys* (``expr``) so the CSE/GCSE family can
  discover and delete recomputations;
* memory instructions carry a data *region* and a per-iteration *stride* so
  the cache model sees real access streams and load/store motion is
  meaningful;
* instructions carry intra-block dependence edges (``deps``, as distances to
  producer instructions) and producer latencies, so instruction scheduling is
  a real list-scheduling problem and its register-pressure cost is measurable;
* blocks carry execution counts (the profile), branch behaviour, and layout
  order matters — block reordering and alignment change the binary.

Dynamic execution counts are represented as floats; a "run" of a program is
fully described by the profile, which the simulator consumes.  The IR is
deterministic and owns no randomness.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import partial
from typing import Iterable, Iterator


#: Default producer latencies in cycles (dcache-hit latency for loads is
#: machine dependent and substituted by the simulator; 3 is the XScale value).
DEFAULT_LATENCY = {
    "alu": 1,
    "shift": 1,
    "mac": 3,
    "load": 3,
    "store": 1,
    "ctrl": 1,
}


class Opcode(enum.Enum):
    """Machine-level operation classes of the XScale-style target.

    The categories mirror the functional units tracked by the paper's
    performance counters (Table 1): ALU, MAC (multiply-accumulate) and the
    barrel shifter, plus memory and control flow.

    Each member is defined as ``(value, category, register reads)``.  Its
    constants are set once as plain attributes, not recomputed by
    properties on every lookup in the hot compile and finalize loops:

    * ``category``: functional unit — alu, mac, shift, load, store or ctrl;
    * ``register_reads``: register-file read ports consumed, for the
      regfile counter;
    * ``latency``: the category's :data:`DEFAULT_LATENCY`, which the
      scheduler plans with;
    * ``is_memory``: loads and stores;
    * ``is_branch``: control transfers that consult the branch predictor
      and BTB (every ctrl opcode except NOP).
    """

    ADD = ("add", "alu", 2)
    SUB = ("sub", "alu", 2)
    AND = ("and", "alu", 2)
    OR = ("or", "alu", 2)
    XOR = ("xor", "alu", 2)
    CMP = ("cmp", "alu", 2)
    MOV = ("mov", "alu", 1)
    MUL = ("mul", "mac", 2)
    MAC = ("mac", "mac", 3)
    SHL = ("shl", "shift", 2)
    SHR = ("shr", "shift", 2)
    LOAD = ("load", "load", 1)
    STORE = ("store", "store", 2)
    BR = ("br", "ctrl", 1)
    JMP = ("jmp", "ctrl", 0)
    CALL = ("call", "ctrl", 0)
    RET = ("ret", "ctrl", 0)
    NOP = ("nop", "ctrl", 0)

    def __new__(cls, value: str, category: str, register_reads: int) -> "Opcode":
        member = object.__new__(cls)
        member._value_ = value
        member.category = category
        member.register_reads = register_reads
        member.latency = DEFAULT_LATENCY[category]
        member.is_memory = category in ("load", "store")
        member.is_branch = category == "ctrl" and value != "nop"
        return member


#: Dependence-edge producer kinds; ``load`` edges resolve to the machine's
#: D-cache hit latency at simulation time, the rest are fixed.
DEP_KINDS = ("alu", "mac", "shift", "load", "carried")

#: Fixed instruction width of the target ISA in bytes (ARM/XScale).
INSTRUCTION_BYTES = 4


# Semantic tags attached by the program generator and honoured by passes.
TAG_LOCAL_REDUNDANT = "local_redundant"  # removable by CSE within a block
TAG_GLOBAL_REDUNDANT = "global_redundant"  # removable by GCSE across blocks
TAG_PARTIAL_REDUNDANT = "partial_redundant"  # removable by tree-PRE
TAG_RANGE_CHECK = "range_check"  # removable by tree-VRP
TAG_INVARIANT = "invariant"  # loop-invariant load/ALU, hoistable
TAG_INVARIANT_STORE = "invariant_store"  # sinkable by store motion
TAG_AFTER_STORE = "after_store"  # load forwarded from a prior store (LAS)
TAG_INDUCTION = "induction"  # MUL reducible to ADD by strength reduction
TAG_PEEPHOLE = "peephole"  # removable by peephole2
TAG_JUMP_CHAIN = "jump_chain"  # JMP-to-JMP removable by jump threading
TAG_MERGEABLE_TAIL = "mergeable_tail"  # identical tail, crossjump candidate
TAG_SIBLING = "sibling"  # tail call, sibling-call candidate
TAG_SPILL = "spill"  # inserted by the register allocator
TAG_PROLOGUE = "prologue"  # frame setup, elided when inlined
TAG_EPILOGUE = "epilogue"  # frame teardown, elided when inlined

ALL_TAGS = frozenset(
    {
        TAG_LOCAL_REDUNDANT,
        TAG_GLOBAL_REDUNDANT,
        TAG_PARTIAL_REDUNDANT,
        TAG_RANGE_CHECK,
        TAG_INVARIANT,
        TAG_INVARIANT_STORE,
        TAG_AFTER_STORE,
        TAG_INDUCTION,
        TAG_PEEPHOLE,
        TAG_JUMP_CHAIN,
        TAG_MERGEABLE_TAIL,
        TAG_SIBLING,
        TAG_SPILL,
        TAG_PROLOGUE,
        TAG_EPILOGUE,
    }
)


#: Default of :meth:`Instruction.replace`'s arguments: keep the field.
_KEEP: object = object()


class _InstructionMarks:
    """Whether an :class:`Instruction` passed :meth:`~Instruction.problem`,
    in a slot that is not a dataclass field, so it stays out of equality,
    ``repr``, pickles and :func:`dataclasses.fields`."""

    __slots__ = ("_checked",)


@dataclass(slots=True, frozen=True, init=False)
class Instruction(_InstructionMarks):
    """One IR instruction; immutable, and shared between program copies.

    A pass never changes an instruction in place: it puts a modified copy
    (:meth:`replace`) into its block's list instead.
    So :meth:`Program.clone` copies only the block lists and shares every
    instruction, and comparing two lists (see :mod:`repro.compiler.memo`)
    matches shared instructions by identity.  Construction validates
    the fields and marks the instruction checked; the copies skip both,
    and :meth:`Program.validate`, which every compile runs on its final
    IR, checks and marks each unmarked one (and every region and callee),
    so a pass that builds an invalid instruction still fails the compile.

    Attributes:
        opcode: operation class.
        expr: value key identifying the computation.  Two instructions with
            the same non-``None`` ``expr`` compute the same value; redundancy
            elimination passes may delete the later one.
        region: name of the data region accessed (memory ops only).
        stride: bytes the access address advances per loop iteration of the
            enclosing innermost loop.  ``0`` means loop invariant.
        deps: dependence edges ``(distance, kind)``: the instruction consumes
            a value produced ``distance`` instructions earlier in the dynamic
            stream by a producer of the given kind (see ``DEP_KINDS``).
            Distances may exceed the instruction's block-local index, which
            denotes a producer in the fall-through predecessor.
        latency: producer latency in cycles of this instruction's result.
        tags: semantic markers honoured by specific passes (see TAG_*).
        callee: callee function name (CALL only).
        chain: redundancy discovery depth; a GCSE sweep removes redundant
            instructions with ``chain`` ≤ the number of passes run so far.
    """

    opcode: Opcode
    expr: str | None = None
    region: str | None = None
    stride: int = 0
    deps: tuple[tuple[int, str], ...] = ()
    latency: int = 0
    tags: frozenset[str] = frozenset()
    callee: str | None = None
    chain: int = 1

    def __init__(
        self,
        opcode: Opcode,
        expr: str | None = None,
        region: str | None = None,
        stride: int = 0,
        deps: tuple[tuple[int, str], ...] = (),
        latency: int = 0,
        tags: frozenset[str] = frozenset(),
        callee: str | None = None,
        chain: int = 1,
    ) -> None:
        # Written out with the slot setters: a frozen dataclass's
        # generated __init__ (object.__setattr__ per field) takes over
        # twice as long, and program generation builds every instruction.
        _set_opcode(self, opcode)
        _set_expr(self, expr)
        _set_region(self, region)
        _set_stride(self, stride)
        _set_deps(self, deps)
        _set_latency(self, latency or opcode.latency)
        _set_tags(self, tags)
        _set_callee(self, callee)
        _set_chain(self, chain)
        if opcode is Opcode.CALL and callee is None:
            raise ValueError("CALL requires a callee")
        problem = self.problem()
        if problem is not None:
            raise ValueError(problem)
        _set_checked(self, True)

    def problem(self) -> str | None:
        """The first violated field invariant, or ``None`` if valid."""
        if self.opcode.is_memory and self.region is None:
            return f"{self.opcode} requires a data region"
        if not self.tags <= ALL_TAGS:
            return f"unknown instruction tags: {sorted(self.tags - ALL_TAGS)}"
        for distance, kind in self.deps:
            if distance < 1:
                return f"dep distance must be >= 1: {distance}"
            if kind not in DEP_KINDS:
                return f"unknown dep kind {kind!r}"
        return None

    def replace(
        self,
        *,
        opcode: Opcode = _KEEP,
        expr: str | None = _KEEP,
        region: str | None = _KEEP,
        stride: int = _KEEP,
        deps: tuple[tuple[int, str], ...] = _KEEP,
        latency: int = _KEEP,
        tags: frozenset[str] = _KEEP,
        callee: str | None = _KEEP,
        chain: int = _KEEP,
    ) -> "Instruction":
        """An unchecked copy with the given fields changed; they are
        validated by the next :meth:`Program.validate`.

        Spelled out field by field: the dependence rewrites of deletion,
        insertion and scheduling make most of a compile's copies."""
        copy = _new_instruction()
        _set_opcode(copy, self.opcode if opcode is _KEEP else opcode)
        _set_expr(copy, self.expr if expr is _KEEP else expr)
        _set_region(copy, self.region if region is _KEEP else region)
        _set_stride(copy, self.stride if stride is _KEEP else stride)
        _set_deps(copy, self.deps if deps is _KEEP else deps)
        _set_latency(copy, self.latency if latency is _KEEP else latency)
        _set_tags(copy, self.tags if tags is _KEEP else tags)
        _set_callee(copy, self.callee if callee is _KEEP else callee)
        _set_chain(copy, self.chain if chain is _KEEP else chain)
        _set_checked(copy, False)
        return copy

    @property
    def size_bytes(self) -> int:
        return INSTRUCTION_BYTES


def _read_only(self, name: str, value=None) -> None:
    raise FrozenInstanceError(f"cannot assign to {name!r}: instructions are immutable")


# The generated frozen ``__setattr__`` of a slotted class raises TypeError
# for a name that is not a field (a CPython quirk); any assignment should
# raise FrozenInstanceError, an AttributeError.
Instruction.__setattr__ = _read_only
Instruction.__delattr__ = _read_only

# Slot setters that bypass ``__setattr__``, for building copies.
_new_instruction = partial(object.__new__, Instruction)
(
    _set_opcode,
    _set_expr,
    _set_region,
    _set_stride,
    _set_deps,
    _set_latency,
    _set_tags,
    _set_callee,
    _set_chain,
) = (Instruction.__dict__[field.name].__set__ for field in fields(Instruction))
_set_checked = Instruction._checked.__set__


class _Marked:
    """A dirty mark for the pass memo, in a slot that is not a dataclass
    field, so it stays out of equality, ``repr`` and ``fields``.  A new
    object is marked; the memo clears the marks after each pass run and
    reads what the pass marked as what it may have changed."""

    __slots__ = ("_dirty",)

    def changed(self) -> None:
        """Mark the object: a pass calls this on each block, function or
        program whose own fields it alters."""
        self._dirty = True


@dataclass(slots=True)
class BasicBlock(_Marked):
    """A straight-line instruction sequence with a single entry and exit.

    ``exec_count`` is the dynamic execution count of the block from the
    program's profile; it is a float so that scaled workloads (e.g. the
    paper's 100M-instruction inputs) can be modelled without materialising
    traces.
    """

    label: str
    instructions: list[Instruction] = field(default_factory=list)
    successors: list[str] = field(default_factory=list)
    exec_count: float = 0.0
    taken_prob: float = 0.0
    predictability: float = 0.97
    invariant_branch: bool = False
    pad_bytes: int = 0
    aligned: bool = False
    is_loop_header: bool = False

    def __post_init__(self) -> None:
        problem = self.problem()
        if problem is not None:
            raise ValueError(problem)
        self._dirty = True

    def problem(self) -> str | None:
        """The first violated field invariant, or ``None`` if valid."""
        if not 0.0 <= self.taken_prob <= 1.0:
            return f"taken_prob out of range: {self.taken_prob}"
        if not 0.0 <= self.predictability <= 1.0:
            return f"predictability out of range: {self.predictability}"
        return None

    @property
    def size_bytes(self) -> int:
        """Static code bytes of the block, including alignment padding."""
        return len(self.instructions) * INSTRUCTION_BYTES + self.pad_bytes

    @property
    def terminator(self) -> Instruction | None:
        """The terminating control-flow instruction, if any."""
        if self.instructions and self.instructions[-1].opcode.is_branch:
            return self.instructions[-1]
        return None

    def body_and_terminator(self) -> tuple[list[Instruction], Instruction | None]:
        """Split the block into its straight-line body and its terminator."""
        term = self.terminator
        if term is None:
            return list(self.instructions), None
        return list(self.instructions[:-1]), term

    def clone(self, new_label: str | None = None) -> "BasicBlock":
        """A copy with its own instruction and successor lists that shares
        the (immutable) instructions and skips the field checks (which
        :meth:`Program.validate` re-runs); it keeps the mark unless relabelled."""
        copy = object.__new__(BasicBlock)
        copy.label = new_label or self.label
        copy.instructions = list(self.instructions)
        copy.successors = list(self.successors)
        copy.exec_count = self.exec_count
        copy.taken_prob = self.taken_prob
        copy.predictability = self.predictability
        copy.invariant_branch = self.invariant_branch
        copy.pad_bytes = self.pad_bytes
        copy.aligned = self.aligned
        copy.is_loop_header = self.is_loop_header
        copy._dirty = True if new_label else self._dirty
        return copy


@dataclass
class Loop:
    """A natural loop: a header plus body blocks, with profile information.

    ``trip_count`` is the average number of iterations per entry and
    ``entries`` the dynamic number of times the loop is entered, so the body
    executes ``entries * trip_count`` times.  ``carried_dep_latency`` > 0
    marks a serial loop-carried dependence (e.g. a pointer chase or a hash
    feedback), which caps the ILP that unrolling can expose.
    """

    header: str
    blocks: list[str]
    trip_count: float
    entries: float
    depth: int = 1
    parent: str | None = None
    carried_dep_latency: int = 0

    def __post_init__(self) -> None:
        if self.header not in self.blocks:
            raise ValueError(f"loop header {self.header!r} not in body blocks")
        if self.trip_count < 1.0:
            raise ValueError(f"trip_count must be >= 1: {self.trip_count}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1: {self.depth}")

    @property
    def iterations(self) -> float:
        """Total dynamic iterations of the loop."""
        return self.trip_count * self.entries

    def clone(self) -> "Loop":
        copy = object.__new__(Loop)
        copy.__dict__.update(self.__dict__)
        copy.blocks = list(self.blocks)
        return copy


@dataclass
class DataRegion:
    """A named data object (array, table, stack frame or linked structure).

    ``kind`` drives the cache model: ``stream`` regions are accessed with
    regular strides, ``table`` regions with data-dependent indices of high
    locality, ``chase`` regions with dependent pointer dereferences, and
    ``stack`` is the spill/local area.
    """

    name: str
    size_bytes: int
    kind: str = "stream"

    VALID_KINDS = ("stream", "table", "chase", "stack")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.size_bytes <= 0:
            raise ValueError("region size must be positive")


@dataclass
class Function(_Marked):
    """A function: ordered blocks (the order *is* the code layout), a loop
    forest over those blocks, and inlining metadata."""

    name: str
    blocks: dict[str, BasicBlock]
    layout: list[str]
    loops: list[Loop] = field(default_factory=list)
    inline_candidate: bool = False
    entry_count: float = 0.0

    def __post_init__(self) -> None:
        if set(self.layout) != set(self.blocks):
            raise ValueError(f"layout and blocks disagree in {self.name!r}")
        for loop in self.loops:
            for label in loop.blocks:
                if label not in self.blocks:
                    raise ValueError(
                        f"loop block {label!r} missing from function {self.name!r}"
                    )
        self._dirty = True

    @property
    def size_insns(self) -> int:
        return sum(len(block.instructions) for block in self.blocks.values())

    @property
    def size_bytes(self) -> int:
        return sum(block.size_bytes for block in self.blocks.values())

    @property
    def dynamic_insns(self) -> float:
        return sum(
            block.exec_count * len(block.instructions)
            for block in self.blocks.values()
        )

    def call_sites(self) -> Iterator[tuple[str, int, Instruction]]:
        """Yield ``(block_label, index, instruction)`` for every CALL."""
        for label in self.layout:
            block = self.blocks[label]
            for index, insn in enumerate(block.instructions):
                if insn.opcode is Opcode.CALL:
                    yield label, index, insn

    def innermost_loops(self) -> list[Loop]:
        headers_with_children = {
            loop.parent for loop in self.loops if loop.parent is not None
        }
        return [loop for loop in self.loops if loop.header not in headers_with_children]

    def loop_of_block(self, label: str) -> Loop | None:
        """The innermost loop containing ``label``, or ``None``."""
        best: Loop | None = None
        for loop in self.loops:
            if label in loop.blocks and (best is None or loop.depth > best.depth):
                best = loop
        return best

    def clone(self) -> "Function":
        """A copy with its own blocks, layout and loops."""
        copy = object.__new__(Function)
        copy.__dict__.update(self.__dict__)
        copy._dirty = self._dirty
        copy.blocks = {label: block.clone() for label, block in self.blocks.items()}
        copy.layout = list(self.layout)
        copy.loops = [loop.clone() for loop in self.loops]
        return copy


@dataclass
class Program(_Marked):
    """A whole program: functions, an entry point and its data regions."""

    name: str
    functions: dict[str, Function]
    entry: str
    regions: dict[str, DataRegion] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.entry not in self.functions:
            raise ValueError(f"entry function {self.entry!r} not defined")
        self._dirty = True

    @property
    def size_insns(self) -> int:
        return sum(function.size_insns for function in self.functions.values())

    @property
    def size_bytes(self) -> int:
        return sum(function.size_bytes for function in self.functions.values())

    @property
    def dynamic_insns(self) -> float:
        return sum(function.dynamic_insns for function in self.functions.values())

    def clone(self) -> "Program":
        """A copy with its own functions and region dict."""
        copy = object.__new__(Program)
        copy.__dict__.update(self.__dict__)
        copy._dirty = self._dirty
        copy.functions = {name: fn.clone() for name, fn in self.functions.items()}
        copy.regions = dict(self.regions)
        return copy

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Verified invariants:

        * every block successor exists in the same function;
        * every CALL has a defined callee;
        * every memory instruction references a declared region;
        * every block and instruction satisfies :meth:`BasicBlock.problem`
          and :meth:`Instruction.problem` (the field checks that their
          ``clone`` and ``replace`` methods skip); an instruction that
          passed once (or at construction) is marked and not re-checked.
        """
        for function in self.functions.values():
            for label in function.layout:
                block = function.blocks[label]
                problem = block.problem()
                if problem is not None:
                    raise ValueError(f"{function.name}/{label}: {problem}")
                for successor in block.successors:
                    if successor not in function.blocks:
                        raise ValueError(
                            f"{function.name}/{label}: unknown successor {successor!r}"
                        )
                for insn in block.instructions:
                    if not getattr(insn, "_checked", False):  # unpickled: unset
                        problem = insn.problem()
                        if problem is not None:
                            raise ValueError(f"{function.name}/{label}: {problem}")
                        _set_checked(insn, True)
                    if insn.opcode is Opcode.CALL:
                        if insn.callee not in self.functions:
                            raise ValueError(
                                f"{function.name}/{label}: unknown callee {insn.callee!r}"
                            )
                    elif insn.opcode.is_memory and insn.region not in self.regions:
                        raise ValueError(
                            f"{function.name}/{label}: unknown region {insn.region!r}"
                        )


def dynamic_mix(program: Program) -> dict[str, float]:
    """Dynamic instruction counts per functional-unit category."""
    mix = {"alu": 0.0, "mac": 0.0, "shift": 0.0, "load": 0.0, "store": 0.0, "ctrl": 0.0}
    for function in program.functions.values():
        for block in function.blocks.values():
            for insn in block.instructions:
                mix[insn.opcode.category] += block.exec_count
    return mix


def iter_instructions(program: Program) -> Iterator[tuple[Function, BasicBlock, Instruction]]:
    """Iterate over every instruction with its enclosing function and block."""
    for function in program.functions.values():
        for label in function.layout:
            block = function.blocks[label]
            for insn in block.instructions:
                yield function, block, insn


def fresh_label(existing: Iterable[str], base: str) -> str:
    """Return a label derived from ``base`` not present in ``existing``."""
    taken = set(existing)
    if base not in taken:
        return base
    suffix = 1
    while f"{base}.{suffix}" in taken:
        suffix += 1
    return f"{base}.{suffix}"
