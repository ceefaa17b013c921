"""Shared machinery for optimisation passes.

Passes mutate a working copy of the program IR: its functions, blocks and
block lists, never an instruction (instructions are immutable and shared
between copies; a rewrite puts a modified copy into the list).  A pass
marks each block, function or program it alters with ``changed()``: the
pass memo reads the marks as all that a run may have changed.  The two
fiddly operations — deleting and inserting instructions while keeping
dependence distances consistent — live here so each pass stays small and
every pass preserves the IR invariants the same way.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import Iterable, Sequence

from repro.compiler.flags import FLAG_SPECS, FlagSetting, o3_setting
from repro.compiler.ir import BasicBlock, Instruction, Program


class PassStats(Counter):
    """Per-compilation event counters, e.g. ``stats["gcse.removed"] += 1``.

    Used by tests to assert that a pass actually did something, and surfaced
    on the compiled binary for analysis.
    """


class Pass:
    """An optimisation pass gated by one or more flags.

    A pass's behaviour — whether it is enabled and everything ``run``
    does to the IR and the stats — may depend only on the program and
    on the flags named in :attr:`reads`.  The compiler's pass memo
    (:mod:`repro.compiler.memo`) relies on this: it runs a pass once for
    all settings that agree on its ``reads`` (or all disable it) and
    share the IR up to it.  A pass
    that consults a flag outside ``reads``, in ``enabled``, ``run`` or
    any helper, would hand some settings another setting's IR;
    ``tests/test_pass_reads.py`` checks every declaration.

    It must also depend only on the IR's *content*: the fields of its
    functions, blocks, loops, regions and instructions, in order, never
    on object identity or on anything outside the program.  Two
    equal-content copies must come out equal, with equal stats: the
    memo gives two walks whose IRs compare equal one state and follows
    a recorded transition instead of running the pass again.
    ``tests/test_pass_reads.py`` checks this as well.
    """

    #: Human-readable pass name, used as the stats prefix.
    name: str = "pass"

    #: Every flag ``enabled`` or ``run`` looks at, helpers included.
    #: Each pass declares its own; there is deliberately no default.
    reads: frozenset[str]

    def enabled(self, flags: FlagSetting) -> bool:
        raise NotImplementedError

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        raise NotImplementedError

    def apply(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        """Run the pass if its flags enable it."""
        if self.enabled(flags):
            self.run(program, flags, stats)
            stats[f"{self.name}.ran"] += 1

    def observed(self, flags: FlagSetting) -> tuple | None:
        """What the pass can see of ``flags``: ``None`` when they disable
        it, else the values of its declared :attr:`reads`.  Settings with
        equal observations get equal runs on equal IR."""
        if not self.enabled(flags):
            return None
        return tuple(map(flags.__getitem__, self.reads))

    @cached_property
    def branches(self) -> bool:
        """Whether two settings can enable the pass with different
        :meth:`observed` values, so that two runs from one IR can differ.
        Tries the values of :attr:`reads` most aggressive first, which
        finds a second enabled observation at once when there is one."""
        specs = [spec for spec in FLAG_SPECS if spec.name in self.reads]
        base = o3_setting()
        found = False
        for combination in itertools.product(*(reversed(spec.values) for spec in specs)):
            values = {spec.name: value for spec, value in zip(specs, combination)}
            if self.observed(base.with_values(**values)) is not None:
                if found:
                    return True
                found = True
        return False


def delete_instructions(block: BasicBlock, indices: Iterable[int]) -> int:
    """Remove the instructions at ``indices``, remapping dependence edges.

    Consumers of a deleted instruction lose that edge (the value is provided
    by the original, far-away computation, so no stall arises).  Edges that
    merely *cross* a deleted instruction shrink by the number of deletions
    between producer and consumer — deleting code genuinely packs dependent
    instructions closer together.

    Returns the number of instructions removed.
    """
    doomed = set(indices)
    if not doomed:
        return 0
    old_instructions = block.instructions
    # Everything before the first deletion keeps its place and its edges.
    first = max(min(doomed), 0)
    new_instructions = old_instructions[:first]
    # Old index → new index from ``first`` on; -1 marks a deleted one.
    new_of = list(range(first))
    for old_index in range(first, len(old_instructions)):
        if old_index in doomed:
            new_of.append(-1)
            continue
        insn = old_instructions[old_index]
        new_index = len(new_instructions)
        new_of.append(new_index)
        if insn.deps:
            new_deps: list[tuple[int, str]] = []
            for distance, kind in insn.deps:
                producer = old_index - distance
                if producer < 0:
                    # Cross-block producer: preserve the reach beyond the
                    # block start.
                    new_deps.append((new_index - producer, kind))
                elif new_of[producer] >= 0:
                    new_deps.append((new_index - new_of[producer], kind))
            deps = tuple(new_deps)
            if deps != insn.deps:
                insn = insn.replace(deps=deps)
        new_instructions.append(insn)
    removed = len(old_instructions) - len(new_instructions)
    block.instructions = new_instructions
    block.changed()
    return removed


def insert_instructions(
    block: BasicBlock, position: int, new_insns: Sequence[Instruction]
) -> None:
    """Insert instructions at ``position``, stretching crossing dependences.

    An edge whose producer sits before the insertion point and whose consumer
    after it grows by the number of inserted instructions — inserted code
    spaces dependent instructions apart, exactly as in a real binary.
    """
    stretch_crossing_deps(block.instructions, position, len(new_insns))
    block.instructions[position:position] = list(new_insns)
    block.changed()


def stretch_crossing_deps(instructions: list[Instruction], position: int, count: int) -> None:
    """Lengthen by ``count`` every edge from an instruction at or after
    ``position`` to a producer before it, as inserting ``count``
    instructions at ``position`` would.  The caller marks the block."""
    if count <= 0:
        return
    for old_index in range(position, len(instructions)):
        insn = instructions[old_index]
        if not insn.deps:
            continue
        new_deps = []
        stretched = False
        for distance, kind in insn.deps:
            if old_index - distance < position:
                new_deps.append((distance + count, kind))
                stretched = True
            else:
                new_deps.append((distance, kind))
        if stretched:
            instructions[old_index] = insn.replace(deps=tuple(new_deps))


def remove_tagged(block: BasicBlock, tag: str, predicate=None) -> int:
    """Delete all instructions in ``block`` carrying ``tag``.

    ``predicate`` optionally restricts which tagged instructions die.
    Returns the number removed.
    """
    doomed = [
        index
        for index, insn in enumerate(block.instructions)
        if tag in insn.tags and (predicate is None or predicate(insn))
    ]
    return delete_instructions(block, doomed) if doomed else 0


def remove_tagged_everywhere(
    program: Program, tag: str, stats: PassStats, key: str
) -> None:
    """:func:`remove_tagged` on every block, counted into ``stats[key]``:
    recorded, zero included, whenever the program has a block, as a
    ``+=`` per block would be."""
    blocks = [block for fn in program.functions.values() for block in fn.blocks.values()]
    if blocks:
        stats[key] += sum(remove_tagged(block, tag) for block in blocks)


def loop_preheader(function, loop) -> BasicBlock | None:
    """The unique block outside ``loop`` that falls into its header.

    The program generator guarantees every loop has one; return ``None``
    defensively if a transformed CFG lost it.
    """
    for label in function.layout:
        if label in loop.blocks:
            continue
        block = function.blocks[label]
        if loop.header in block.successors:
            return block
    return None
