"""Loop optimisations: invariant code motion, unswitching, strength reduction.

* Loop-invariant *ALU* motion runs unconditionally (gcc's first ``loop``
  pass is on at every level the paper considers); ``-frerun-loop-opt``
  performs a second sweep which catches the chained invariants (chain
  depth 2) the first sweep exposes.
* ``-funswitch-loops`` duplicates a loop whose body tests a loop-invariant
  condition: the hot version drops the per-iteration branch, at the cost of
  doubling the loop's code — the classic code-size/branch trade-off that
  small instruction caches punish.
* ``-fstrength-reduce`` rewrites induction-variable multiplies into adds,
  changing both the latency feeding dependent instructions and the MAC/ALU
  instruction mix.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    Instruction,
    Opcode,
    Program,
    TAG_INDUCTION,
    TAG_INVARIANT,
    Function,
    Loop,
    fresh_label,
)
from repro.compiler.passes.base import (
    Pass,
    PassStats,
    delete_instructions,
    insert_instructions,
    loop_preheader,
)


def _hoist_invariant_alu(
    function: Function, max_chain: int, stats: PassStats
) -> None:
    """Move invariant non-memory instructions to their loop preheader."""
    for loop in sorted(function.loops, key=lambda candidate: -candidate.depth):
        preheader = loop_preheader(function, loop)
        if preheader is None:
            continue
        for label in loop.blocks:
            block = function.blocks[label]
            movable = [
                (index, insn)
                for index, insn in enumerate(block.instructions)
                if TAG_INVARIANT in insn.tags
                and not insn.opcode.is_memory
                and not insn.opcode.is_branch
                and insn.chain <= max_chain
            ]
            if not movable:
                continue
            delete_instructions(block, [index for index, _ in movable])
            hoisted = [
                insn.replace(deps=(), tags=insn.tags - {TAG_INVARIANT})
                for _, insn in movable
            ]
            end = len(preheader.instructions) - (preheader.terminator is not None)
            insert_instructions(preheader, end, hoisted)
            stats["loop.invariants_hoisted"] += len(hoisted)


class LoopInvariantMotionPass(Pass):
    """The always-on first invariant-motion sweep (chain depth 1)."""

    name = "loop_im"
    reads = frozenset()

    def enabled(self, flags: FlagSetting) -> bool:
        return True

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        for function in program.functions.values():
            _hoist_invariant_alu(function, max_chain=1, stats=stats)


class RerunLoopOptPass(Pass):
    """``-frerun-loop-opt``: the second sweep (chain depth 2)."""

    name = "rerun_loop_opt"
    reads = frozenset({"frerun_loop_opt"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["frerun_loop_opt"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        for function in program.functions.values():
            _hoist_invariant_alu(function, max_chain=2, stats=stats)


class UnswitchLoopsPass(Pass):
    """``-funswitch-loops``: hoist invariant conditionals out of loops."""

    name = "unswitch"
    reads = frozenset({"funswitch_loops"})

    #: Do not unswitch loops whose body exceeds this size (gcc has the same
    #: kind of guard via --param max-unswitch-insns, which bounds the
    #: duplicated region similarly once inlining has grown the body).
    MAX_BODY_INSNS = 1400

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["funswitch_loops"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        for function in program.functions.values():
            # Snapshot: unswitching extends the loop list's block sets.
            for loop in list(function.loops):
                self._unswitch(function, loop, stats)

    def _unswitch(self, function: Function, loop: Loop, stats: PassStats) -> None:
        candidates = [
            label
            for label in loop.blocks
            if function.blocks[label].invariant_branch
            and function.blocks[label].terminator is not None
            and function.blocks[label].terminator.opcode is Opcode.BR
        ]
        if not candidates:
            return
        body_insns = sum(
            len(function.blocks[label].instructions) for label in loop.blocks
        )
        if body_insns > self.MAX_BODY_INSNS:
            return
        preheader = loop_preheader(function, loop)
        if preheader is None:
            return

        # Clone the whole loop body as the cold specialisation.  The clone
        # never executes under the profiled input (the invariant condition
        # takes one arm) but occupies code space adjacent to the hot loop.
        clone_map = {
            label: fresh_label(function.blocks, f"{label}.us") for label in loop.blocks
        }
        insert_at = max(function.layout.index(label) for label in loop.blocks) + 1
        for label in loop.blocks:
            clone = function.blocks[label].clone(clone_map[label])
            clone.exec_count = 0.0
            clone.successors = [
                clone_map.get(successor, successor) for successor in clone.successors
            ]
            function.blocks[clone.label] = clone
            function.layout.insert(insert_at, clone.label)
            insert_at += 1
        function.changed()

        # The hot version loses the invariant branch: it becomes a
        # fall-through to its hot (first) successor.
        for label in candidates:
            block = function.blocks[label]
            terminator_index = len(block.instructions) - 1
            hot_successor = block.successors[0]
            delete_instructions(block, [terminator_index])
            block.successors = [hot_successor]
            block.taken_prob = 0.0
            block.invariant_branch = False  # marked by the deletion
            stats["unswitch.branches_removed"] += 1

        # One switching test+branch executes per loop entry, in the
        # preheader.  If the preheader falls through, the branch becomes its
        # terminator with the cold clone as the (never-) taken target; if it
        # already has a terminator, only the comparison is added.
        test = Instruction(opcode=Opcode.CMP)
        if preheader.terminator is None:
            branch = Instruction(opcode=Opcode.BR)
            insert_instructions(
                preheader, len(preheader.instructions), [test, branch]
            )
            preheader.successors = [loop.header, clone_map[loop.header]]
            preheader.taken_prob = 0.0  # marked by the insertion
        else:
            insert_instructions(
                preheader, len(preheader.instructions) - 1, [test]
            )

        # The clone belongs to the loop region for footprint purposes.
        loop.blocks.extend(clone_map.values())
        stats["unswitch.loops"] += 1


class StrengthReducePass(Pass):
    """``-fstrength-reduce``: induction-variable MUL → ADD."""

    name = "strength_reduce"
    reads = frozenset({"fstrength_reduce"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fstrength_reduce"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        # The tag first: it rules out almost every instruction.
        for function in program.functions.values():
            for block in function.blocks.values():
                for index, insn in enumerate(block.instructions):
                    if TAG_INDUCTION in insn.tags and insn.opcode is Opcode.MUL:
                        block.instructions[index] = insn.replace(
                            opcode=Opcode.ADD, latency=1
                        )
                        block.changed()
                        self._retag_consumers(block, index)
                        stats["strength_reduce.converted"] += 1

    @staticmethod
    def _retag_consumers(block, producer_index: int) -> None:
        """Consumers saw a 3-cycle 'mac' producer; it is now a 1-cycle ALU."""
        instructions = block.instructions
        for consumer_index in range(producer_index + 1, len(instructions)):
            insn = instructions[consumer_index]
            distance = consumer_index - producer_index
            if (distance, "mac") in insn.deps:
                instructions[consumer_index] = insn.replace(
                    deps=tuple(
                        (edge, "alu") if edge == distance and kind == "mac"
                        else (edge, kind)
                        for edge, kind in insn.deps
                    )
                )
