"""The pass manager: a flag setting drives an ordered pass schedule.

The order follows gcc 4.2's RTL pipeline closely enough that the documented
pass interactions hold: inlining before the scalar cleanups, loop passes
before unrolling, the post-loop CSE rerun after unrolling, scheduling before
register allocation (the -fschedule-insns/spill interaction of the paper's
§5.4), post-reload GCSE after allocation, and layout passes last.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, FlagSpace
from repro.compiler.ir import Program
from repro.compiler.passes.align import AlignPass
from repro.compiler.passes.base import Pass, PassStats
from repro.compiler.passes.cse import CsePass, RerunCsePass
from repro.compiler.passes.gcse import GcseAfterReloadPass, GcsePass
from repro.compiler.passes.inline import InlineFunctionsPass
from repro.compiler.passes.jumps import CrossJumpPass, ThreadJumpsPass
from repro.compiler.passes.loopopt import (
    LoopInvariantMotionPass,
    RerunLoopOptPass,
    StrengthReducePass,
    UnswitchLoopsPass,
)
from repro.compiler.passes.misc import PeepholePass, SiblingCallPass
from repro.compiler.passes.reorder import ReorderBlocksPass
from repro.compiler.passes.schedule import ScheduleInsnsPass
from repro.compiler.passes.tree import TreePrePass, TreeVrpPass
from repro.compiler.passes.unroll import UnrollLoopsPass
from repro.compiler.regalloc import RegisterAllocationPass


def default_pass_order() -> list[Pass]:
    """The gcc-4.2-like pass schedule used for every compilation."""
    return [
        TreeVrpPass(),
        TreePrePass(),
        InlineFunctionsPass(),
        SiblingCallPass(),
        ThreadJumpsPass(),
        CsePass(),
        GcsePass(),
        LoopInvariantMotionPass(),
        RerunLoopOptPass(),
        UnswitchLoopsPass(),
        StrengthReducePass(),
        UnrollLoopsPass(),
        RerunCsePass(),
        ScheduleInsnsPass(),
        RegisterAllocationPass(),
        GcseAfterReloadPass(),
        PeepholePass(),
        CrossJumpPass(),
        ReorderBlocksPass(),
        AlignPass(),
    ]


class Compiler:
    """The optimising compiler: (program, flag setting) → compiled binary.

    Compilations are memoised on ``(program name, canonical setting)``; two
    settings that differ only in dimensions masked by a disabled parent flag
    share one compilation, exactly as they would share one gcc invocation's
    behaviour.

    :meth:`compile_many` compiles a batch of settings for one program as a
    depth-first walk of a pass-prefix trie.  The key of a setting at level
    *k* is what pass *k* observes of it: nothing when the setting disables
    the pass, else the values of the pass's declared ``reads``.  Settings
    that agree on passes 0..*k* share one run of each of them on one
    working IR.  A node with *c* children snapshots the IR for the first
    *c*−1 of them and hands the working copy to the last, so a batch takes
    one clone per leaf, as separate compiles would.  :meth:`compile` is a
    batch of one.
    """

    def __init__(self, space: FlagSpace = DEFAULT_SPACE, cache: bool = True):
        self.space = space
        self._cache_enabled = cache
        self._cache: dict[tuple[str, FlagSetting], CompiledBinary] = {}
        self._passes = default_pass_order()

    def compile(self, program: Program, setting: FlagSetting) -> CompiledBinary:
        """Run the pass pipeline over a fresh copy of ``program``."""
        return self.compile_many(program, [setting])[0]

    def compile_many(
        self, program: Program, settings: Sequence[FlagSetting]
    ) -> list[CompiledBinary]:
        """``[self.compile(program, s) for s in settings]``, sharing passes.

        Each binary's ``setting`` is the setting passed in; with the memo
        on, a setting whose canonical form came earlier (in this batch or
        before) gets that earlier binary, as :meth:`compile` would.
        """
        binaries: list[CompiledBinary | None] = [None] * len(settings)
        pending: dict[FlagSetting, list[int]] = {}
        for index, setting in enumerate(settings):
            canonical = setting.canonical()
            if self._cache_enabled:
                # Single atomic read (not check-then-index) so a concurrent
                # clear_cache() can only cause a recompile, never a KeyError.
                cached = self._cache.get((program.name, canonical))
                if cached is not None:
                    binaries[index] = cached
                    continue
            pending.setdefault(canonical, []).append(index)

        def finish(working: Program, stats: PassStats, leaf: list[FlagSetting]) -> None:
            working.validate()
            for canonical in leaf:
                binary = None
                for index in pending[canonical]:
                    if binary is None or not self._cache_enabled:
                        binary = finalize(working, settings[index], PassStats(stats))
                    binaries[index] = binary
                if self._cache_enabled:
                    self._cache[(program.name, canonical)] = binary

        if pending:
            self._walk(program.clone(), PassStats(), 0, list(pending), finish)
        return binaries

    def _walk(
        self,
        working: Program,
        stats: PassStats,
        level: int,
        group: list[FlagSetting],
        finish: Callable[[Program, PassStats, list[FlagSetting]], None],
    ) -> None:
        """Run passes ``level``.. over ``working`` for ``group``, canonical
        settings that every earlier pass treated alike."""
        for level in range(level, len(self._passes)):
            optimisation = self._passes[level]
            if len(group) > 1:
                children: dict[tuple | None, list[FlagSetting]] = {}
                for canonical in group:
                    children.setdefault(
                        _observed(optimisation, canonical), []
                    ).append(canonical)
                *branches, group = children.values()
                for branch in branches:
                    self._walk(working.clone(), PassStats(stats), level, branch, finish)
            optimisation.apply(working, group[0], stats)
        finish(working, stats, group)

    @property
    def cache_enabled(self) -> bool:
        return self._cache_enabled

    def clear_cache(self) -> None:
        self._cache.clear()


def _observed(optimisation: Pass, flags: FlagSetting) -> tuple | None:
    """What ``optimisation`` can see of ``flags``: ``None`` when they
    disable it, else the values of its declared ``reads``."""
    if not optimisation.enabled(flags):
        return None
    return tuple(flags[name] for name in optimisation.reads)
