"""Loop unrolling (``-funroll-loops`` and its two parameters).

Unrolling an innermost loop by factor ``u`` clones the loop body ``u - 1``
times, chains the copies by fall-through, and keeps a single back-edge test
in the last copy.  The effects are exactly the real ones:

* the per-iteration exit branch executes ``u`` times less often — branch
  and BTB pressure drop;
* the loop's code footprint grows by a factor of ``u`` — instruction-cache
  pressure rises, which is why small-I-cache microarchitectures dislike it;
* copies are independent when the loop carries no serial dependence, giving
  the (interblock) scheduler a wider window; a loop-carried dependence adds
  an explicit serialising edge between consecutive copies, so unrolling a
  pointer-chase or hash loop buys little ILP;
* invariant recomputations in the clones are tagged locally redundant, so a
  following ``-frerun-cse-after-loop`` can clean them up — the classic
  unroll/re-CSE interaction.

The unroll factor is ``min(max_unroll_times, max_unrolled_insns // body,
trip_count)``, mirroring gcc's two ``--param`` knobs.  Programs whose hot
loops are already unrolled in the source (e.g. rijndael) present large
bodies and small trip counts, so the factor collapses to 1 and the pass
correctly does nothing.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    Opcode,
    Program,
    TAG_INVARIANT,
    TAG_LOCAL_REDUNDANT,
    Function,
    Loop,
    fresh_label,
)
from repro.compiler.passes.base import Pass, PassStats, delete_instructions


def unroll_factor(
    body_insns: int, trip_count: float, max_times: int, max_insns: int
) -> int:
    """The factor gcc's heuristics would pick for this loop."""
    if body_insns <= 0:
        return 1
    by_size = max_insns // body_insns
    factor = min(max_times, by_size, int(trip_count))
    return max(factor, 1)


class UnrollLoopsPass(Pass):
    """``-funroll-loops`` with ``max-unroll-times``/``max-unrolled-insns``."""

    name = "unroll"
    reads = frozenset(
        {
            "funroll_loops",
            "param_max_unroll_times",
            "param_max_unrolled_insns",
        }
    )

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["funroll_loops"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        max_times = int(flags["param_max_unroll_times"])
        max_insns = int(flags["param_max_unrolled_insns"])
        for function in program.functions.values():
            for loop in function.innermost_loops():
                self._unroll(function, loop, max_times, max_insns, stats)

    def _unroll(
        self,
        function: Function,
        loop: Loop,
        max_times: int,
        max_insns: int,
        stats: PassStats,
    ) -> None:
        body_labels = [label for label in function.layout if label in set(loop.blocks)]
        body_insns = sum(
            len(function.blocks[label].instructions) for label in body_labels
        )
        factor = unroll_factor(body_insns, loop.trip_count, max_times, max_insns)
        if factor < 2:
            return

        latch_label = self._find_latch(function, loop)
        if latch_label is None or latch_label != body_labels[-1]:
            # Only bottom-tested loops whose latch is the last body block in
            # layout are unrolled (the generator emits exactly this shape).
            return

        serial_kind = self._carried_kind(loop)
        control_labels = {body_labels[0], latch_label}
        # Snapshot pristine templates before any mutation: later copies must
        # not inherit the back-edge deletions applied to earlier ones.
        templates = {label: function.blocks[label].clone() for label in body_labels}

        insert_at = function.layout.index(latch_label) + 1
        previous_latch = latch_label
        for copy in range(1, factor):
            clone_map = {
                label: fresh_label(function.blocks, f"{label}.u{copy}")
                for label in body_labels
            }
            for label in body_labels:
                clone = templates[label].clone(clone_map[label])
                clone.is_loop_header = False
                # Internal edges go to this copy's blocks; the back edge to
                # the header stays on the original (it either dies when the
                # next copy is chained in, or survives as the single
                # remaining loop branch in the last copy).
                clone.successors = [
                    successor
                    if successor == loop.header
                    else clone_map.get(successor, successor)
                    for successor in clone.successors
                ]
                instructions = clone.instructions
                if serial_kind is not None and instructions:
                    first = instructions[0]
                    instructions[0] = first.replace(
                        deps=first.deps + ((1, serial_kind),)
                    )
                for position, insn in enumerate(instructions):
                    if insn.expr is None or insn.opcode.is_memory:
                        continue
                    if TAG_INVARIANT in insn.tags or label in control_labels:
                        # Replicated loop control (induction updates, exit
                        # comparisons) and invariant recomputations are
                        # redundant across copies; a following CSE rerun
                        # folds them — gcc fuses induction increments the
                        # same way when it unrolls counted loops.
                        instructions[position] = insn.replace(
                            tags=insn.tags | {TAG_LOCAL_REDUNDANT}
                        )
                function.blocks[clone.label] = clone
                function.layout.insert(insert_at, clone.label)
                insert_at += 1
                loop.blocks.append(clone.label)

            # The previous copy's latch no longer loops back: its exit test
            # is deleted (the trip count is known to cover all copies) and
            # it falls through into this copy's first block.
            previous = function.blocks[previous_latch]
            terminator_index = len(previous.instructions) - 1
            if (
                previous.terminator is not None
                and previous.terminator.opcode in (Opcode.BR, Opcode.JMP)
            ):
                delete_instructions(previous, [terminator_index])
                previous.successors = [clone_map[body_labels[0]]]
                previous.taken_prob = 0.0  # marked by the deletion
                stats["unroll.branches_removed"] += 1
            previous_latch = clone_map[latch_label]

        # Profile: the same dynamic work is spread over `factor` copies and
        # the loop now iterates `factor` times less often.
        for label in loop.blocks:
            block = function.blocks[label]
            block.exec_count /= factor
            block.changed()
        loop.trip_count = max(loop.trip_count / factor, 1.0)
        function.changed()  # its blocks, layout and loop too
        stats["unroll.loops"] += 1
        stats["unroll.factor_total"] += factor

    @staticmethod
    def _find_latch(function: Function, loop: Loop) -> str | None:
        for label in loop.blocks:
            if loop.header in function.blocks[label].successors:
                return label
        return None

    @staticmethod
    def _carried_kind(loop: Loop) -> str | None:
        """Dependence kind expressing the loop-carried serial chain."""
        latency = loop.carried_dep_latency
        if latency <= 0:
            return None
        if latency >= 3:
            return "load"  # pointer chase: next iteration needs the load
        if latency == 2:
            return "mac"
        return "alu"
