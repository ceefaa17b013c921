"""A pass memo: each distinct IR state of one program is compiled once.

:class:`PassMemo` records each pass run of one source program as a
transition (state, pass index, :meth:`Pass.observed
<repro.compiler.passes.base.Pass.observed>`) → (next state, stats
delta).  A compile follows recorded transitions and runs a pass only on
one it has not seen, on a copy of the latest snapshot on its path with
the passes since run again; it then keeps a snapshot of that state, as
walks split there.  Each distinct final IR is finalized once.

A pass marks what it alters (``changed()``), and a new state is named
from those marks, with no table of contents:

* a run that marked nothing leaves its input state;
* a run of the last pass gives a final state, which no walk leaves and
  two walks seldom reach, so it gets a fresh id;
* any other run is compared with its *siblings*, the recorded runs of
  the same pass from the same state under other observations.  It takes
  the id of the one whose result equals its own, else a fresh id.

Every convergence of two walks seen on a dataset grid, in the paper
protocol and in a search tournament was between siblings.  Two results
of one input are equal if they marked the same objects and those are
equal (by plain ``==``, where shared instructions compare by identity
first): whatever neither marked is still the input's.  So a sibling's
record is a copy of what it marked, kept only for passes that have more
than one enabled observation (:attr:`Pass.branches
<repro.compiler.passes.base.Pass.branches>`).
``tests/test_memo_keys.py`` checks every verdict against a from-scratch
comparison of whole IRs.  A memo's :attr:`~PassMemo.retained` slots are
its transitions, its snapshots' instructions and its records' blocks'
instructions; over budget, it drops snapshots first and records next
(a dropped record costs only the convergences it would have found).
"""

from __future__ import annotations

import itertools
import operator
from collections import OrderedDict
from typing import Sequence

from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.flags import FlagSetting
from repro.compiler.ir import BasicBlock, Function, Program
from repro.compiler.passes.base import Pass, PassStats

#: Slots (transitions, snapshot and record instructions) all memos of
#: one compiler may retain together.
RETAINED_SLOTS = 20_000

#: The state id of the source program.
SOURCE = 0

_dirty = operator.attrgetter("_dirty")


class PassMemo:
    """Transitions, snapshots and final binaries of one source program,
    which it holds: like the binary cache, it takes the source as fixed."""

    def __init__(self, passes: Sequence[Pass], program: Program):
        self._passes = passes
        # Pass indices whose runs keep a record for their siblings: the
        # last pass's results are final, and fresh anyway.
        self._recorded = frozenset(
            level for level, optimisation in enumerate(passes[:-1]) if optimisation.branches
        )
        _changes(program, copy=False)  # its copies start unmarked
        self._source = program
        self._fresh = itertools.count(SOURCE + 1).__next__
        self._steps: dict[tuple[int, int, tuple], tuple[int, tuple]] = {}
        # (state, pass index) → (next state, what the run marked), per run.
        self._siblings: dict[tuple[int, int], list[tuple[int, list]]] = {}
        self._snapshots: OrderedDict[int, Program] = OrderedDict()
        self._held = 0
        self._finals: dict[int, CompiledBinary] = {}
        #: Transitions, snapshot instructions and record instructions held.
        self.retained = 0

    def shrink(self, limit: int) -> int:
        """Drop LRU snapshots, then LRU records, until ``limit`` slots or
        neither is left; the slots kept."""
        while self._snapshots and self.retained > limit:
            _, evicted = self._snapshots.popitem(last=False)
            self._held -= evicted.size_insns
            self.retained -= evicted.size_insns
        while self._siblings and self.retained > limit:
            group = next(iter(self._siblings))
            for _, changes in self._siblings.pop(group):
                self.retained -= _record_slots(changes)
        return self.retained

    def compile(self, canonical: FlagSetting, setting: FlagSetting) -> CompiledBinary:
        """The binary of the source under ``canonical``, bound to ``setting``."""
        stats = PassStats()
        state = SOURCE
        # (pass index, input state) of every enabled pass so far.
        trail: list[tuple[int, int]] = []
        # An IR this walk owns, and the trail length it is at.
        working: Program | None = None
        working_at = -1
        for level, optimisation in enumerate(self._passes):
            observed = optimisation.observed(canonical)
            if observed is None:
                continue  # a disabled pass leaves the IR and stats alone
            step = self._steps.get((state, level, observed))
            if step is None:
                if working_at != len(trail):
                    # Another walk made this state: walks split here.
                    working = self._materialise(trail, state, working, working_at, canonical)
                    self._snapshot(state, working)
                delta = PassStats()
                optimisation.apply(working, canonical, delta)
                after = self._state_after(working, state, level)
                step = self._steps[(state, level, observed)] = (after, tuple(delta.items()))
                self.retained += 1
                working_at = len(trail) + 1
            trail.append((level, state))
            state, delta_items = step
            for name, count in delta_items:
                stats[name] += count

        summary = self._finals.get(state)
        if summary is not None:
            return finalize(summary, setting, stats)
        if working_at != len(trail):
            working = self._materialise(trail, state, working, working_at, canonical)
        working.validate()
        binary = self._finals[state] = finalize(working, setting, stats)
        return binary

    # ------------------------------------------------------------ snapshots
    def _materialise(
        self,
        trail: list[tuple[int, int]],
        state: int,
        working: Program | None,
        working_at: int,
        canonical: FlagSetting,
    ) -> Program:
        """An owned, unmarked IR of ``state``, the end of ``trail``: the
        latest copy on it (``working`` or a snapshot) with the passes
        since run again."""
        start, base = working_at, working
        for index in range(len(trail), working_at, -1):
            at = state if index == len(trail) else trail[index][1]
            if at == SOURCE:
                start, base = index, self._source.clone()
                break
            snapshot = self._snapshots.get(at)
            if snapshot is not None:
                self._snapshots.move_to_end(at)
                start, base = index, snapshot.clone()
                break
        if start < len(trail):
            for level, _ in trail[start:]:
                self._passes[level].apply(base, canonical, PassStats())
            _changes(base, copy=False)
        return base

    def _snapshot(self, state: int, working: Program) -> None:
        """Keep a copy of ``working`` (at ``state``) before a pass runs on it."""
        if state in self._snapshots:
            self._snapshots.move_to_end(state)
        elif state != SOURCE:
            self._snapshots[state] = working.clone()
            self._held += working.size_insns
            self.retained += working.size_insns

    # --------------------------------------------------------------- naming
    def _state_after(self, program: Program, before: int, level: int) -> int:
        """The id of ``program``'s state after pass ``level`` ran on state
        ``before``, its marks cleared: ``before`` if the run marked
        nothing, else an equal sibling's id or a fresh one."""
        recorded = level in self._recorded
        changes = _changes(program, copy=recorded)
        if changes is None:
            return before
        if not recorded:
            return self._fresh()
        # Most recently run groups last: the budget drops the others first.
        siblings = self._siblings[(before, level)] = self._siblings.pop((before, level), [])
        for state, sibling in siblings:
            if sibling == changes:
                return state
        state = self._fresh()
        siblings.append((state, changes))
        self.retained += _record_slots(changes)
        return state


def _record_slots(changes: list) -> int:
    """A record's slots: the instructions of its blocks."""
    return sum(len(change.instructions) for change in changes if type(change) is BasicBlock)


def _changes(program: Program, copy: bool) -> list | None:
    """Clear the marks on ``program``: ``None`` if there were none.  Else
    a list, which with ``copy`` holds each marked object's own fields
    in program order, each block's behind its function's name."""
    changes = None
    if program._dirty:
        program._dirty = False
        changes = [_program_fields(program)] if copy else []
    for function in program.functions.values():
        blocks = function.blocks.values()
        if not function._dirty and not any(map(_dirty, blocks)):
            continue
        if changes is None:
            changes = []
        if copy:
            changes.append(function.name)
        if function._dirty:
            function._dirty = False
            if copy:
                changes.append(_function_fields(function))
        for block in blocks:
            if block._dirty:
                block._dirty = False
                if copy:
                    changes.append(block.clone())
    return changes


def _program_fields(program: Program) -> tuple:
    return (program.entry, tuple(program.regions.items()), tuple(program.functions))


def _function_fields(function: Function) -> tuple:
    return (
        tuple(function.blocks), tuple(function.layout), [loop.clone() for loop in function.loops],
        function.inline_candidate, function.entry_count,
    )
