"""Small late passes: peephole2 and sibling-call optimisation.

(``-fcaller-saves`` and ``-fregmove`` act inside the register allocator —
see :mod:`repro.compiler.regalloc` — since both are register-assignment
policies rather than standalone rewrites.)
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import Opcode, Program, TAG_PEEPHOLE, TAG_SIBLING
from repro.compiler.passes.base import Pass, PassStats, delete_instructions, remove_tagged_everywhere


class PeepholePass(Pass):
    """``-fpeephole2``: delete the redundant move/compare patterns the
    generator marked as peephole-removable."""

    name = "peephole"
    reads = frozenset({"fpeephole2"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fpeephole2"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        remove_tagged_everywhere(program, TAG_PEEPHOLE, stats, "peephole.removed")


class SiblingCallPass(Pass):
    """``-foptimize-sibling-calls``: tail call + RET → direct jump.

    A tagged CALL immediately followed by a RET becomes a JMP to the callee
    and the RET disappears: one fewer dynamic instruction and one fewer
    return-predictor event per execution.
    """

    name = "sibcall"
    reads = frozenset({"foptimize_sibling_calls"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["foptimize_sibling_calls"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        # The tag first: it rules out almost every instruction.
        for function in program.functions.values():
            for block in function.blocks.values():
                for index, insn in enumerate(block.instructions):
                    if (
                        TAG_SIBLING in insn.tags
                        and insn.opcode is Opcode.CALL
                        and index + 1 < len(block.instructions)
                        and block.instructions[index + 1].opcode is Opcode.RET
                    ):
                        delete_instructions(block, [index + 1])
                        block.instructions[index] = block.instructions[
                            index
                        ].replace(opcode=Opcode.JMP)  # marked by the deletion
                        stats["sibcall.converted"] += 1
                        break
