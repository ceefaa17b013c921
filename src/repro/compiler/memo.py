"""A content-addressed pass memo: each distinct IR state is compiled once.

:class:`PassMemo` records each pass run of one source program as a
transition (state, pass index, :meth:`Pass.observed
<repro.compiler.passes.base.Pass.observed>`) → (next state, stats
delta).  A compile follows recorded transitions and runs a pass only on
one it has not seen, on a copy of the latest snapshot on its path with
the passes since run again; it then keeps a snapshot of that state, as
walks split there.  Each distinct final IR is finalized once.

A state is named by an exact key: interned ids from one process-wide
counter, never a hash.  Ids are cached on the memo's own IR objects and
a pass marks what it alters (``changed()``), so after a pass only marked
objects are rekeyed, and a pass that marked nothing leaves its state;
a state after the last pass gets a fresh id instead of a key.
``tests/test_memo_keys.py`` rekeys from scratch after every pass run to
check that no change goes unmarked.  A memo's :attr:`~PassMemo.retained`
slots are its snapshots' instructions plus its interned entries.
"""

from __future__ import annotations

import itertools
import operator
from collections import OrderedDict
from typing import Sequence

from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.flags import FlagSetting
from repro.compiler.ir import BasicBlock, Function, Instruction, Program, iter_instructions
from repro.compiler.passes.base import Pass, PassStats

#: Slots (snapshot instructions plus interned entries) all memos of one
#: compiler may retain together.
RETAINED_SLOTS = 10_000

#: The state id of the source program.
SOURCE = 0

_next_content_id = itertools.count(1).__next__
_content_id = operator.attrgetter("_cid")
_set_content_id = Instruction._cid.__set__


class PassMemo:
    """Transitions, snapshots and final binaries of one source program,
    which it holds: like the binary cache, it takes the source as fixed."""

    def __init__(self, passes: Sequence[Pass], program: Program):
        self._passes = passes
        # Content → id for instructions, instruction lists, blocks,
        # functions and programs: keys of two kinds never meet, as they
        # differ in length or in the type of their first item.
        self._ids: dict[tuple, int] = {}
        self._tuples: dict[tuple, tuple] = {}  # one copy of equal observations
        for _, _, insn in iter_instructions(program):
            if not getattr(insn, "_cid", 0):  # unpickled: unset
                _set_content_id(insn, _next_content_id())
        self._source = program
        self._source_key = self._key(program, cached=False)
        self._states: dict[tuple, int] = {self._source_key: SOURCE}
        self._steps: dict[tuple[int, int, tuple], tuple[int, tuple]] = {}
        self._snapshots: OrderedDict[int, Program] = OrderedDict()
        self._held = 0
        self._finals: dict[int, CompiledBinary] = {}

    @property
    def retained(self) -> int:
        """Snapshot instructions plus interned entries held."""
        entries = (self._ids, self._tuples, self._states, self._steps)
        return self._held + sum(map(len, entries))

    def shrink(self, limit: int) -> int:
        """Drop LRU snapshots until ``limit`` slots or none are left; the slots kept."""
        while self._snapshots and self.retained > limit:
            _, evicted = self._snapshots.popitem(last=False)
            self._held -= evicted.size_insns
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
                items = tuple(delta.items())
                after = self._state_after(working, state, level == len(self._passes) - 1)
                step = (after, self._tuples.setdefault(items, items))
                self._steps[(state, level, self._tuples.setdefault(observed, observed))] = step
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
        """An owned IR of ``state``, the end of ``trail``: the latest copy
        on it (``working`` or a snapshot) with the passes since run again."""
        start, base = working_at, working
        for index in range(len(trail), working_at, -1):
            at = state if index == len(trail) else trail[index][1]
            if at == SOURCE:
                start, base = index, self._source_copy()
                break
            snapshot = self._snapshots.get(at)
            if snapshot is not None:
                self._snapshots.move_to_end(at)
                start, base = index, snapshot.clone()
                break
        for level, _ in trail[start:]:
            self._passes[level].apply(base, canonical, PassStats())
        return base

    def _source_copy(self) -> Program:
        """A copy of the source, with the ids of its key cached on it."""
        copy = self._source.clone()
        ids = iter(self._source_key)
        copy._cid = next(ids)
        for function in copy.functions.values():
            function._cid = next(ids)
            for block in function.blocks.values():
                block._cid = next(ids)
        return copy

    def _snapshot(self, state: int, working: Program) -> None:
        """Keep a copy of ``working`` (at ``state``) before a pass runs on it."""
        if state in self._snapshots:
            self._snapshots.move_to_end(state)
        elif state != SOURCE:
            self._snapshots[state] = working.clone()
            self._held += working.size_insns

    # ----------------------------------------------------------------- keys
    def _state_after(self, program: Program, before: int, final: bool) -> int:
        """The id of ``program``'s state after a pass from ``before``: it if
        the pass marked nothing, a fresh one if ``final`` (after the last
        pass: never left, seldom met twice), else its key's, made if new."""
        if program._cid and all(
            f._cid and all(map(_content_id, f.blocks.values())) for f in program.functions.values()
        ):
            return before
        if final:
            return -_next_content_id()
        return self._states.setdefault(self._key(program), len(self._states))

    def _key(self, program: Program, cached: bool = True) -> tuple:
        """The exact key of ``program``'s content: with ``cached``, from and
        into the ids cached on it; without, recomputed and not cached."""
        key = [self._own_id(program, _program_fields, cached)]
        for function in program.functions.values():
            key.append(self._own_id(function, _function_fields, cached))
            blocks = function.blocks.values()
            ids = list(map(_content_id, blocks)) if cached else [0] * len(blocks)
            if 0 in ids:
                ids = [cid or self._block_id(block, cached) for cid, block in zip(ids, blocks)]
            key += ids
        return tuple(key)

    def _own_id(self, owner: Program | Function, fields, cached: bool) -> int:
        """``owner``'s id for its own ``fields(owner)``."""
        if cached and owner._cid:
            return owner._cid
        found = self._intern(fields(owner))
        if cached:
            owner._cid = found
        return found

    def _block_id(self, block: BasicBlock, cached: bool) -> int:
        instructions = block.instructions
        insn_ids = tuple(map(_content_id, instructions))
        if 0 in insn_ids:  # some built by a pass: intern them by content
            for insn in itertools.compress(instructions, map(operator.not_, insn_ids)):
                _set_content_id(insn, self._intern(insn.content()))
            insn_ids = tuple(map(_content_id, instructions))
        key = (*_block_fields(block), self._intern(insn_ids), tuple(block.successors))
        found = self._intern(key)
        if cached:
            block._cid = found
        return found

    def _intern(self, key: tuple) -> int:
        """The id this memo gives ``key``, a fresh one if it has none."""
        return self._ids.get(key) or self._ids.setdefault(key, _next_content_id())


_block_fields = operator.attrgetter(
    "label", "exec_count", "taken_prob", "predictability", "invariant_branch",
    "pad_bytes", "aligned", "is_loop_header",
)
_loop_fields = operator.attrgetter(
    "header", "trip_count", "entries", "depth", "parent", "carried_dep_latency"
)
_region_fields = operator.attrgetter("name", "size_bytes", "kind")


def _program_fields(program: Program) -> tuple:
    regions = tuple((name, *_region_fields(region)) for name, region in program.regions.items())
    return (program.entry, regions, tuple(program.functions))


def _function_fields(function: Function) -> tuple:
    loops = tuple((*_loop_fields(loop), tuple(loop.blocks)) for loop in function.loops)
    return (
        function.name, tuple(function.blocks), tuple(function.layout), loops,
        function.inline_candidate, function.entry_count,
    )
