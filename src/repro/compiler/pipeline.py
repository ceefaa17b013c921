"""The pass manager: a flag setting drives an ordered pass schedule.

The order follows gcc 4.2's RTL pipeline closely enough that the documented
pass interactions hold: inlining before the scalar cleanups, loop passes
before unrolling, the post-loop CSE rerun after unrolling, scheduling before
register allocation (the -fschedule-insns/spill interaction of the paper's
§5.4), post-reload GCSE after allocation, and layout passes last.
"""

from __future__ import annotations

import operator
import threading
from collections import deque
from typing import Callable, Sequence

from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, FlagSpace
from repro.compiler.ir import Program
from repro.compiler.memo import PassMemo
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


#: The pass memo engages for a program once this many misses of its
#: current run (no other program's miss in between) were *near* misses:
#: at most :data:`NEAR_DISTANCE` flag dimensions away from one of the
#: :data:`RECENT_MISSES` misses before them.  Iterative search probes
#: neighbours of settings it has just compiled, and there the memo pays;
#: a dataset grid compiles random settings, about half the dimensions
#: apart, and there its keys and snapshots cost more than they save.
MEMO_AFTER_NEAR_MISSES = 8
NEAR_DISTANCE = 2
RECENT_MISSES = 16


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

    Compilations are memoised per program content and canonical setting
    (see :meth:`_binaries_of`); two settings that differ only in dimensions
    masked by a disabled parent flag share one compilation, exactly as they
    would share one gcc invocation's behaviour.  :meth:`compile` is a batch
    of one :meth:`compile_many`.

    The settings that miss the memo take one of two paths.

    * **Pass memo.**  Once a program's run of misses looks like an
      iterative search (:data:`MEMO_AFTER_NEAR_MISSES` of them near a
      recent miss), its misses go through a
      :class:`~repro.compiler.memo.PassMemo`.  The memo keys every pass
      run by (input IR content, pass, what the pass observes of the
      setting), so a pass runs once per distinct IR state and each
      distinct final IR is finalized once, across calls.  The compiler
      keeps only the current program's memo, checks that the program's
      content still matches it on every call, and drops it when another
      program misses or the cache is cleared.
    * **Pass-prefix trie.**  Otherwise a batch is compiled as a
      depth-first walk of a pass-prefix trie.  The key of a setting at
      level *k* is what pass *k* observes of it.  Settings that agree on
      passes 0..*k* share one run of each of them on one working IR.  A
      node with *c* children snapshots the IR for the first *c*−1 of
      them and hands the working copy to the last, so a batch takes one
      clone per leaf, as separate compiles would.

    Copies of the IR share its immutable instructions, so a clone copies
    only the block lists.  Threads may share a compiler: memo walks run
    under a lock, trie walks own their IR.  ``Compiler(cache=False)``
    runs every setting through the trie, with no memo of either kind;
    it is the reference the batch and memo paths are tested against.
    """

    def __init__(self, space: FlagSpace = DEFAULT_SPACE, cache: bool = True):
        self.space = space
        self._cache_enabled = cache
        self._cache: dict[str, tuple[Program, dict[FlagSetting, CompiledBinary]]] = {}
        self._passes = default_pass_order()
        self._memo_lock = threading.Lock()
        self._memo: PassMemo | None = None
        self._run_program: str | None = None
        self._recent: deque[tuple] = deque(maxlen=RECENT_MISSES)
        self._near_misses = 0

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
        cache = self._binaries_of(program) if self._cache_enabled else {}
        for index, setting in enumerate(settings):
            canonical = setting.canonical()
            cached = cache.get(canonical)
            if cached is not None:
                binaries[index] = cached
                continue
            pending.setdefault(canonical, []).append(index)
        if not pending:
            return binaries

        if self._cache_enabled:
            with self._memo_lock:
                memo = self._engage(program, pending)
                if memo is not None:
                    for canonical, indices in pending.items():
                        binary = memo.compile(canonical, settings[indices[0]])
                        for index in indices:
                            binaries[index] = binary
                        cache[canonical] = binary
                    return binaries

        def finish(working: Program, stats: PassStats, leaf: list[FlagSetting]) -> None:
            working.validate()
            for canonical in leaf:
                binary = None
                for index in pending[canonical]:
                    if binary is None or not self._cache_enabled:
                        binary = finalize(working, settings[index], PassStats(stats))
                    binaries[index] = binary
                cache[canonical] = binary

        self._walk(program.clone(), PassStats(), 0, list(pending), finish)
        return binaries

    def _binaries_of(self, program: Program) -> dict[FlagSetting, CompiledBinary]:
        """``program``'s cached binaries, filed under its name with the object
        they came from: another object finds them only if its content is
        equal, else they are dropped (a compile keeps the dict it got)."""
        entry = self._cache.get(program.name)
        if entry is None or entry[0] is not program:
            entry = (program, entry[1] if entry is not None and entry[0] == program else {})
            self._cache[program.name] = entry
        return entry[1]

    def _engage(
        self, program: Program, misses: Sequence[FlagSetting]
    ) -> PassMemo | None:
        """Count ``misses`` (canonical settings) into ``program``'s run;
        the memo, once the run looks like a search.  Called under the
        memo lock."""
        if program.name != self._run_program:
            self._run_program, self._memo, self._near_misses = program.name, None, 0
            self._recent.clear()
        if self._memo is None:
            for canonical in misses:
                values = canonical.values()
                if any(
                    sum(map(operator.ne, values, other)) <= NEAR_DISTANCE
                    for other in self._recent
                ):
                    self._near_misses += 1
                self._recent.append(values)
            if self._near_misses < MEMO_AFTER_NEAR_MISSES:
                return None
        if self._memo is None or not self._memo.serves(program):
            self._memo = PassMemo(self._passes, program)
        return self._memo

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
                    children.setdefault(optimisation.observed(canonical), []).append(
                        canonical
                    )
                *branches, group = children.values()
                for branch in branches:
                    self._walk(working.clone(), PassStats(stats), level, branch, finish)
            optimisation.apply(working, group[0], stats)
        finish(working, stats, group)

    @property
    def cache_enabled(self) -> bool:
        return self._cache_enabled

    def clear_cache(self) -> None:
        """Drop every cached binary and the pass memo."""
        self._cache.clear()
        with self._memo_lock:
            self._memo, self._run_program = None, None
