"""Tree-level (SSA) optimisations: value-range propagation and PRE.

gcc's ``-ftree-vrp`` removes dominated range checks and ``-ftree-pre``
removes partially redundant expressions.  The program generator marks which
instructions are provably removable by each analysis; the passes perform the
removal.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import TAG_PARTIAL_REDUNDANT, TAG_RANGE_CHECK, Program
from repro.compiler.passes.base import Pass, PassStats, remove_tagged_everywhere


class TreeVrpPass(Pass):
    """``-ftree-vrp``: delete range checks proven redundant by value ranges."""

    name = "tree_vrp"
    reads = frozenset({"ftree_vrp"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["ftree_vrp"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        remove_tagged_everywhere(program, TAG_RANGE_CHECK, stats, "tree_vrp.removed")


class TreePrePass(Pass):
    """``-ftree-pre``: delete partially redundant expressions."""

    name = "tree_pre"
    reads = frozenset({"ftree_pre"})

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["ftree_pre"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        remove_tagged_everywhere(
            program, TAG_PARTIAL_REDUNDANT, stats, "tree_pre.removed"
        )
