"""Local common-subexpression elimination (gcc's RTL ``cse`` pass).

CSE walks each block tracking the expressions already computed; a later
instruction recomputing an available expression (marked
``TAG_LOCAL_REDUNDANT`` by the generator) is deleted.

Two flags widen the availability scope exactly as in gcc:

* ``-fcse-follow-jumps`` propagates the available set across an
  unconditional fall-through edge (a block whose single successor is the
  next block in layout);
* ``-fcse-skip-blocks`` additionally propagates it over one intervening
  conditional diamond (availability from the block *before* the previous
  one when the previous block is a side arm).

``-frerun-cse-after-loop`` runs the same elimination again after the loop
optimisers and the unroller, catching the duplicate expressions that
unrolling introduces.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import TAG_LOCAL_REDUNDANT, Function, Program
from repro.compiler.passes.base import Pass, PassStats, delete_instructions


def _eliminate_in_function(
    function: Function,
    follow_jumps: bool,
    skip_blocks: bool,
) -> int:
    """One CSE sweep over ``function``; returns instructions removed.

    Availability-in per block:

    * base CSE: empty — each block is analysed in isolation;
    * ``follow_jumps``: inherited along single-successor fall-through
      chains (the previous block in layout whose only successor this is);
    * ``skip_blocks``: full forward availability dataflow — the
      intersection of all predecessors' available sets, which carries
      expressions around diamond side-blocks.  Layout order is a
      topological order of the forward CFG (the generator guarantees it
      and the structural passes preserve it), so one pass converges; back
      edges are treated optimistically, which is sound here because
      redundancy tags assert semantic redundancy.
    """
    removed = 0
    available_out: dict[str, set[str]] = {}
    predecessors: dict[str, list[str]] = {label: [] for label in function.layout}
    if skip_blocks:
        for label in function.layout:
            for successor in function.blocks[label].successors:
                if successor in predecessors:
                    predecessors[successor].append(label)

    layout = function.layout
    for position, label in enumerate(layout):
        block = function.blocks[label]
        available: set[str] = set()
        if skip_blocks:
            seen_sets = [
                available_out[pred]
                for pred in predecessors[label]
                if pred in available_out
            ]
            if seen_sets:
                available = set.intersection(*seen_sets)
        if follow_jumps and position > 0 and not available:
            previous = function.blocks[layout[position - 1]]
            if previous.successors == [label]:
                available |= available_out[previous.label]

        # ``None`` is never available: the redundant tag needs an expr.
        doomed: list[int] = []
        for index, insn in enumerate(block.instructions):
            expr = insn.expr
            if expr in available:
                if TAG_LOCAL_REDUNDANT in insn.tags:
                    doomed.append(index)
            elif expr is not None:
                available.add(expr)
        if doomed:
            removed += delete_instructions(block, doomed)
        available_out[label] = available
    return removed


class CsePass(Pass):
    """The first CSE run (always on at O1+; scope widened by two flags)."""

    name = "cse"
    reads = frozenset({"fcse_follow_jumps", "fcse_skip_blocks"})

    def enabled(self, flags: FlagSetting) -> bool:
        # gcc runs CSE at every optimisation level the paper considers; the
        # *scope* flags are what the optimisation space varies.
        return True

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        follow = bool(flags["fcse_follow_jumps"])
        skip = bool(flags["fcse_skip_blocks"])
        for function in program.functions.values():
            stats["cse.removed"] += _eliminate_in_function(function, follow, skip)


class RerunCsePass(Pass):
    """``-frerun-cse-after-loop``: clean up after unrolling/loop opts."""

    name = "rerun_cse"
    reads = frozenset(
        {
            "fre_run_cse_after_loop",
            "fcse_follow_jumps",
            "fcse_skip_blocks",
        }
    )

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fre_run_cse_after_loop"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        follow = bool(flags["fcse_follow_jumps"])
        skip = bool(flags["fcse_skip_blocks"])
        for function in program.functions.values():
            stats["rerun_cse.removed"] += _eliminate_in_function(
                function, follow, skip
            )
