"""The pass manager: a flag setting drives an ordered pass schedule.

The order follows gcc 4.2's RTL pipeline closely enough that the documented
pass interactions hold: inlining before the scalar cleanups, loop passes
before unrolling, the post-loop CSE rerun after unrolling, scheduling before
register allocation (the -fschedule-insns/spill interaction of the paper's
§5.4), post-reload GCSE after allocation, and layout passes last.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

from repro.compiler import memo
from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.flags import FlagSetting
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


@dataclass(eq=False)
class _Entry:
    """What a compiler keeps of the program last compiled under a name."""

    program: Program
    binaries: dict[FlagSetting, CompiledBinary] = field(default_factory=dict)
    memo: PassMemo | None = None


class Compiler:
    """The optimising compiler: (program, flag setting) → compiled binary.

    Compilations are memoised per program content and canonical setting
    (see :meth:`_entry_of`); two settings that differ only in dimensions
    masked by a disabled parent flag share one compilation, exactly as they
    would share one gcc invocation's behaviour.  :meth:`compile` is a batch
    of one :meth:`compile_many`.

    Every miss goes through the program's
    :class:`~repro.compiler.memo.PassMemo`, so a pass runs once per
    distinct IR state and pass observation, across calls.  Each program
    keeps its memo across other programs' compiles (the protocol's folds
    take programs in turn); all memos together retain at most
    :data:`~repro.compiler.memo.RETAINED_SLOTS` slots, the least recently
    compiled program's given up first.  Threads may share a compiler: its
    binaries and memos are used under one lock.  ``Compiler(cache=False)``
    compiles each setting with a plain pass loop over a fresh copy; it is
    the reference the memo is tested against.
    """

    def __init__(self, cache: bool = True):
        self._cache_enabled = cache
        self._passes = default_pass_order()
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()  # by name, LRU first
        self._retained = 0  # slots all memos hold, as of the last compile

    def compile(self, program: Program, setting: FlagSetting) -> CompiledBinary:
        """Run the pass pipeline over a fresh copy of ``program``."""
        return self.compile_many(program, [setting])[0]

    def compile_many(
        self, program: Program, settings: Sequence[FlagSetting]
    ) -> list[CompiledBinary]:
        """``[self.compile(program, s) for s in settings]``, sharing passes.

        Each binary's ``setting`` is the setting passed in; with the cache
        on, a setting whose canonical form came earlier (in this batch or
        before) gets that earlier binary, as :meth:`compile` would.
        """
        if not self._cache_enabled:
            return [self._compile_alone(program, setting) for setting in settings]
        binaries: list[CompiledBinary | None] = [None] * len(settings)
        with self._lock:
            entry = self._entry_of(program)
            for index, setting in enumerate(settings):
                canonical = setting.canonical()
                binary = entry.binaries.get(canonical)
                if binary is None:
                    kept = entry.memo
                    if kept is None:
                        kept = entry.memo = PassMemo(self._passes, program)
                    before = kept.retained
                    binary = entry.binaries[canonical] = kept.compile(canonical, setting)
                    self._retained += kept.retained - before
                    if self._retained > memo.RETAINED_SLOTS:
                        self._trim()
                binaries[index] = binary
        return binaries

    def _compile_alone(self, program: Program, setting: FlagSetting) -> CompiledBinary:
        """``setting``'s binary from a plain pass loop over a fresh copy."""
        working = program.clone()
        canonical = setting.canonical()
        stats = PassStats()
        for optimisation in self._passes:
            optimisation.apply(working, canonical, stats)
        working.validate()
        return finalize(working, setting, stats)

    def _entry_of(self, program: Program) -> _Entry:
        """``program``'s binaries and memo, filed under its name: another
        object finds them only if its content is equal, else they go."""
        entry = self._entries.pop(program.name, None)
        if entry is None or (entry.program is not program and entry.program != program):
            entry = _Entry(program)
        entry.program = program
        self._entries[program.name] = entry
        return entry

    def _trim(self) -> None:
        """Keep all memos within ``RETAINED_SLOTS``: drop snapshots and
        sibling records, least recently compiled program first, then whole
        memos in that order (a lost snapshot costs replayed passes, a lost
        record the convergences it would find, a lost memo all of it).
        Memos already shrunk to their transitions are passed over: once
        the budget binds, most of them are."""
        budget = memo.RETAINED_SLOTS
        entries = [entry for entry in self._entries.values() if entry.memo is not None]
        total = sum(entry.memo.retained for entry in entries)
        for entry in entries:
            if total > budget and entry.memo.shrinkable:
                kept = entry.memo.retained
                total += entry.memo.shrink(budget - total + kept) - kept
        for entry in entries:
            if total > budget:
                total -= entry.memo.retained
                entry.memo = None
        self._retained = total

    @property
    def cache_enabled(self) -> bool:
        return self._cache_enabled

    def clear_cache(self) -> None:
        """Drop every cached binary and pass memo."""
        with self._lock:
            self._entries.clear()
            self._retained = 0
