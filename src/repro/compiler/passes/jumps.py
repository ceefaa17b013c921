"""Jump optimisations: jump threading and cross-jumping.

* ``-fthread-jumps`` collapses jump-to-jump trampolines: a block containing
  only an unconditional JMP (tagged by the generator) is deleted and its
  predecessors retargeted, saving a dynamic jump plus a taken-branch bubble
  per execution and a little code.
* ``-fcrossjumping`` merges duplicated tail blocks (identical code sequences
  reached from different predecessors, sharing a successor): one copy is
  kept — the hottest — and the rest are deleted with their predecessors
  redirected.  Static code shrinks; the redirected control transfers become
  taken branches, so the flag trades a few dynamic bubbles for instruction
  cache footprint — which is why it pays off on small caches.
"""

from __future__ import annotations

from collections import defaultdict

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    Opcode,
    Program,
    TAG_JUMP_CHAIN,
    TAG_MERGEABLE_TAIL,
    Function,
)
from repro.compiler.passes.base import Pass, PassStats


def _retarget(function: Function, old_label: str, new_label: str) -> None:
    for block in function.blocks.values():
        if old_label in block.successors:
            block.successors = [
                new_label if successor == old_label else successor
                for successor in block.successors
            ]
            block.changed()


def _delete_block(function: Function, label: str) -> None:
    del function.blocks[label]
    function.layout.remove(label)
    for loop in function.loops:
        if label in loop.blocks:
            loop.blocks.remove(label)
    function.changed()


class ThreadJumpsPass(Pass):
    """``-fthread-jumps``: remove jump-to-jump trampolines."""

    name = "thread_jumps"
    reads = frozenset({"fthread_jumps"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fthread_jumps"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        for function in program.functions.values():
            for label in list(function.layout):
                block = function.blocks.get(label)
                if block is None or label == function.layout[0]:
                    continue
                if (
                    len(block.instructions) == 1
                    and block.instructions[0].opcode is Opcode.JMP
                    and TAG_JUMP_CHAIN in block.instructions[0].tags
                    and len(block.successors) == 1
                ):
                    target = block.successors[0]
                    if target == label:
                        continue
                    _retarget(function, label, target)
                    _delete_block(function, label)
                    stats["thread_jumps.removed"] += 1


class CrossJumpPass(Pass):
    """``-fcrossjumping``: merge duplicated tail blocks."""

    name = "crossjump"
    reads = frozenset({"fcrossjumping", "fexpensive_optimizations"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fcrossjumping"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        # Without -fexpensive-optimizations gcc's crossjumping makes a
        # single, shallower pass; model that as requiring larger groups.
        min_group = 2 if flags["fexpensive_optimizations"] else 3
        for function in program.functions.values():
            groups: dict[str, list[str]] = defaultdict(list)
            for label in function.layout:
                block = function.blocks[label]
                group_keys = {
                    insn.expr
                    for insn in block.instructions
                    if TAG_MERGEABLE_TAIL in insn.tags and insn.expr is not None
                }
                if len(group_keys) == 1:
                    groups[group_keys.pop()].append(label)
            for labels in groups.values():
                if len(labels) < min_group:
                    continue
                self._merge_group(function, labels, stats)

    def _merge_group(
        self, function: Function, labels: list[str], stats: PassStats
    ) -> None:
        blocks = [function.blocks[label] for label in labels]
        keeper = max(blocks, key=lambda block: (block.exec_count, block.label))
        for block in blocks:
            if block is keeper:
                continue
            keeper.exec_count += block.exec_count
            keeper.changed()
            self._mark_taken_edges(function, block.label)
            _retarget(function, block.label, keeper.label)
            _delete_block(function, block.label)
            stats["crossjump.blocks_merged"] += 1
            stats["crossjump.insns_removed"] += len(block.instructions)

    @staticmethod
    def _mark_taken_edges(function: Function, doomed_label: str) -> None:
        """Predecessors that fell through into the doomed copy now jump."""
        position = function.layout.index(doomed_label)
        if position == 0:
            return
        previous = function.blocks[function.layout[position - 1]]
        if doomed_label in previous.successors and previous.terminator is not None:
            # The fall-through edge becomes a taken edge to the keeper.
            previous.taken_prob = max(previous.taken_prob, 0.95)  # marked by _retarget
