"""Code alignment (``-falign-functions/-loops/-jumps/-labels``).

Alignment inserts padding so that fetch-critical code starts on a cache-line
or fetch-group boundary.  Padding costs code bytes (instruction-cache
footprint — significant on the small caches of the embedded space) and buys
a cheaper redirect: the simulator charges a smaller taken-branch bubble for
branches to aligned targets.

This pass runs last, after block reordering, because padding depends on the
final layout offsets.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import Opcode, Program, Function
from repro.compiler.passes.base import Pass, PassStats

FUNCTION_ALIGN = 32
LOOP_ALIGN = 16
JUMP_ALIGN = 8
LABEL_ALIGN = 8


class AlignPass(Pass):
    """All four ``-falign-*`` flags, applied in one layout walk."""

    name = "align"
    reads = frozenset(
        {
            "falign_functions",
            "falign_loops",
            "falign_jumps",
            "falign_labels",
        }
    )

    def enabled(self, flags: FlagSetting) -> bool:
        return any(
            flags[name]
            for name in (
                "falign_functions",
                "falign_loops",
                "falign_jumps",
                "falign_labels",
            )
        )

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        align_functions = bool(flags["falign_functions"])
        align_loops = bool(flags["falign_loops"])
        align_jumps = bool(flags["falign_jumps"])
        align_labels = bool(flags["falign_labels"])

        offset = 0
        for function in program.functions.values():
            branch_targets = self._branch_targets(function)
            loop_headers = {loop.header for loop in function.loops}
            for position, label in enumerate(function.layout):
                block = function.blocks[label]
                alignment = 0
                if align_labels:
                    alignment = LABEL_ALIGN
                if align_jumps and label in branch_targets:
                    alignment = max(alignment, JUMP_ALIGN)
                if align_loops and label in loop_headers:
                    alignment = max(alignment, LOOP_ALIGN)
                if align_functions and position == 0:
                    alignment = max(alignment, FUNCTION_ALIGN)

                padding = 0
                if alignment:
                    padding = (alignment - offset % alignment) % alignment
                    stats["align.pad_bytes"] += padding
                if block.pad_bytes != padding or block.aligned != bool(alignment):
                    block.pad_bytes = padding
                    block.aligned = bool(alignment)
                    block.changed()
                offset += block.size_bytes

    @staticmethod
    def _branch_targets(function: Function) -> set[str]:
        """Labels reached by a *taken* edge of some conditional branch."""
        targets: set[str] = set()
        for block in function.blocks.values():
            terminator = block.terminator
            if terminator is None:
                continue
            if terminator.opcode is Opcode.BR and len(block.successors) > 1:
                targets.update(block.successors[1:])
            elif terminator.opcode is Opcode.JMP and block.successors:
                targets.add(block.successors[0])
        return targets
