"""Global common-subexpression elimination and its sub-passes.

This module implements gcc's ``-fgcse`` family:

* the core global elimination (availability tracked across blocks);
* load motion (on by default, disabled by ``-fno-gcse-lm``): loop-invariant
  loads are hoisted to the loop preheader;
* store motion (``-fgcse-sm``): loop-invariant stores are sunk to the loop
  exit;
* load-after-store elimination (``-fgcse-las``): loads forwarded from a
  preceding store to the same location are deleted;
* ``--param max-gcse-passes``: repeated sweeps discover *chained*
  redundancies (an expression only exposed as redundant once an earlier
  sweep removed its producer's duplicate) — instructions carry a ``chain``
  depth and sweep ``p`` may remove depths ≤ ``p``.  Without
  ``-fexpensive-optimizations`` only one sweep runs, as in gcc;
* ``-fgcse-after-reload``: a post-register-allocation cleanup that deletes
  redundant spill reloads.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    Opcode,
    Program,
    TAG_AFTER_STORE,
    TAG_GLOBAL_REDUNDANT,
    TAG_INVARIANT,
    TAG_INVARIANT_STORE,
    TAG_SPILL,
    Function,
    Loop,
)
from repro.compiler.passes.base import (
    Pass,
    PassStats,
    delete_instructions,
    insert_instructions,
    loop_preheader,
)


def _global_sweeps(function: Function, max_depth: int) -> int:
    """Remove globally redundant instructions with chain depth ≤ max_depth.

    Availability is approximated by layout order, which the generator
    guarantees to be a topological order of the acyclic part of the CFG —
    an expression computed in an earlier block dominates later recomputation
    sites for tagged instructions.
    """
    removed = 0
    available: set[str] = set()
    for label in function.layout:
        block = function.blocks[label]
        doomed: list[int] = []
        for index, insn in enumerate(block.instructions):
            expr = insn.expr
            if expr is None:
                continue
            if (
                expr in available
                and TAG_GLOBAL_REDUNDANT in insn.tags
                and insn.chain <= max_depth
            ):
                doomed.append(index)
            else:
                available.add(expr)
        removed += delete_instructions(block, doomed)
    return removed


def _movable(
    function: Function, loop: Loop, opcode: Opcode, tag: str
) -> list[tuple[str, int]]:
    """(block label, index) of the ``opcode`` instructions tagged ``tag``
    in ``loop``'s body whose address is loop invariant (stride 0) if
    they are loads."""
    return [
        (label, index)
        for label in loop.blocks
        for index, insn in enumerate(function.blocks[label].instructions)
        if insn.opcode is opcode
        and tag in insn.tags
        and (opcode is not Opcode.LOAD or insn.stride == 0)
    ]


def _loop_exit(function: Function, loop: Loop):
    """First block outside the loop reached from inside it."""
    member = set(loop.blocks)
    for label in loop.blocks:
        for successor in function.blocks[label].successors:
            if successor not in member:
                return function.blocks[successor]
    return None


class GcsePass(Pass):
    """``-fgcse`` with its load/store-motion and LAS sub-flags."""

    name = "gcse"
    reads = frozenset(
        {
            "fgcse",
            "param_max_gcse_passes",
            "fexpensive_optimizations",
            "fno_gcse_lm",
            "fgcse_sm",
            "fgcse_las",
        }
    )

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fgcse"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        max_passes = int(flags["param_max_gcse_passes"])
        if not flags["fexpensive_optimizations"]:
            max_passes = 1
        load_motion = not flags["fno_gcse_lm"]
        store_motion = bool(flags["fgcse_sm"])
        las = bool(flags["fgcse_las"])

        for function in program.functions.values():
            for sweep in range(1, max_passes + 1):
                removed = _global_sweeps(function, sweep)
                stats["gcse.removed"] += removed
                if removed == 0 and sweep > 1:
                    break

            if las:
                for block in function.blocks.values():
                    doomed = [
                        index
                        for index, insn in enumerate(block.instructions)
                        if insn.opcode is Opcode.LOAD and TAG_AFTER_STORE in insn.tags
                    ]
                    stats["gcse.las_removed"] += delete_instructions(block, doomed)

            # Innermost loops first so a load hoisted from a nested loop can
            # in principle be seen by an outer sweep; each hoist moves the
            # access from `iterations` executions to `entries` executions.
            loops = sorted(function.loops, key=lambda loop: -loop.depth)
            for loop in loops:
                if load_motion:
                    self._hoist(function, loop, stats)
                if store_motion:
                    self._sink(function, loop, stats)

    def _hoist(self, function: Function, loop: Loop, stats: PassStats) -> None:
        preheader = loop_preheader(function, loop)
        if preheader is None:
            return
        for label, index in reversed(_movable(function, loop, Opcode.LOAD, TAG_INVARIANT)):
            block = function.blocks[label]
            insn = block.instructions[index]
            delete_instructions(block, [index])
            # Operands are invariant, available long before.
            hoisted = insn.replace(deps=())
            end = len(preheader.instructions) - (preheader.terminator is not None)
            insert_instructions(preheader, end, [hoisted])
            stats["gcse.loads_hoisted"] += 1

    def _sink(self, function: Function, loop: Loop, stats: PassStats) -> None:
        exit_block = _loop_exit(function, loop)
        if exit_block is None:
            return
        for label, index in reversed(
            _movable(function, loop, Opcode.STORE, TAG_INVARIANT_STORE)
        ):
            block = function.blocks[label]
            insn = block.instructions[index]
            delete_instructions(block, [index])
            sunk = insn.replace(deps=())
            insert_instructions(exit_block, 0, [sunk])
            stats["gcse.stores_sunk"] += 1


class GcseAfterReloadPass(Pass):
    """``-fgcse-after-reload``: delete redundant spill reloads post-RA.

    After register allocation some reloads are redundant because the spilled
    value is still live in a call-clobbered or temporarily free register.
    gcc's post-reload GCSE catches roughly the easy half of them; here every
    second reload per block (deterministically, by position) is removable.
    """

    name = "gcse_after_reload"
    reads = frozenset({"fgcse", "fgcse_after_reload"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fgcse"]) and bool(flags["fgcse_after_reload"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        for function in program.functions.values():
            for block in function.blocks.values():
                reload_indices = [
                    index
                    for index, insn in enumerate(block.instructions)
                    if insn.opcode is Opcode.LOAD and TAG_SPILL in insn.tags
                ]
                doomed = reload_indices[1::2]
                stats["gcse.reloads_removed"] += delete_instructions(block, doomed)
