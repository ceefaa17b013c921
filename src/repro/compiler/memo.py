"""A content-addressed pass memo: each distinct IR state is compiled once.

Iterative compilation compiles one program under many nearby settings.
Most of them differ in a flag that finds nothing to do on the program,
so their passes see the same IR and do the same work.  :class:`PassMemo`
records each pass run as a transition

    (state, pass index, observed flags) → (next state, stats delta)

where a *state* names an IR by an exact structural key of its content,
and ``observed`` is :meth:`Pass.observed <repro.compiler.passes.base.Pass.observed>`.
A compile follows recorded transitions, summing their stats deltas, and
runs a pass only on a transition it has not seen.  To run one it needs
the IR of the state it stopped at: a snapshot of it, or of an earlier
state on its path with the passes in between run again.  Each distinct
final IR is validated and finalized once; every binary of it is that
summary rebound to its own ``setting`` and summed ``stats``.

Keys are exact, not hashes.  An instruction is named by an interned
content id, cached on the (immutable) instruction; a block by an
interned id of its fields and instruction ids; a function likewise; a
state by its functions, entry and data regions.  Ids come from one
process-wide counter and each names one content for good, so equal keys
always mean equal IR; two ids for one content (interned by different
memos) cost only a missed share.

Memory is bounded by what the snapshots hold: together at most
:data:`SNAPSHOT_INSNS` instruction slots, least recently used evicted
first, plus a pinned copy of the source program.  Snapshots share the
instructions, so each costs only its block lists.  The memo serves one
program; :class:`~repro.compiler.pipeline.Compiler` keeps one, for the
program it is compiling, and decides when to use it.
"""

from __future__ import annotations

import itertools
import operator
from collections import OrderedDict
from typing import Sequence

from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.flags import FlagSetting
from repro.compiler.ir import BasicBlock, Instruction, Program
from repro.compiler.passes.base import Pass, PassStats

#: Instruction slots all snapshots together may hold.
SNAPSHOT_INSNS = 8_192

#: The state id of the source program.
SOURCE = 0

_next_content_id = itertools.count(1).__next__
_content_id = operator.attrgetter("_cid")
_set_content_id = Instruction._cid.__set__
_NOT_INTERNED = 0


class PassMemo:
    """Transitions, snapshots and final binaries of one source program."""

    def __init__(self, passes: Sequence[Pass], program: Program):
        self._passes = passes
        self._insn_ids: dict[tuple, int] = {}
        self._block_ids: dict[tuple, int] = {}
        self._function_ids: dict[tuple, int] = {}
        self._states: dict[tuple, int] = {}
        self._source_key = self._key(program)
        self._states[self._source_key] = SOURCE
        self._root = program.clone()
        self._steps: dict[tuple[int, int, tuple], tuple[int, tuple]] = {}
        self._snapshots: OrderedDict[int, Program] = OrderedDict()
        self._held = 0
        self._finals: dict[int, CompiledBinary] = {}

    def serves(self, program: Program) -> bool:
        """Whether ``program`` has the content this memo was built from."""
        return self._key(program) == self._source_key

    @property
    def transitions(self) -> int:
        """Pass runs recorded so far."""
        return len(self._steps)

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
                    working = self._materialise(trail, state, working, working_at, canonical)
                self._snapshot(state, working)
                delta = PassStats()
                optimisation.apply(working, canonical, delta)
                step = (self._state(working), tuple(delta.items()))
                self._steps[(state, level, observed)] = step
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
        binary = finalize(working, setting, stats)
        self._finals[state] = binary
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
        """An owned IR of ``state``, the end of ``trail``: a copy of the
        latest snapshot on the trail (or ``working``, if later), with the
        trail's passes from there run again."""
        start, base = working_at, working
        for index in range(len(trail), working_at, -1):
            at = state if index == len(trail) else trail[index][1]
            snapshot = self._root if at == SOURCE else self._snapshots.get(at)
            if snapshot is not None:
                if at != SOURCE:
                    self._snapshots.move_to_end(at)
                start, base = index, snapshot.clone()
                break
        for level, _ in trail[start:]:
            self._passes[level].apply(base, canonical, PassStats())
        return base

    def _snapshot(self, state: int, working: Program) -> None:
        """Keep a copy of ``working`` (at ``state``) before a pass runs on it."""
        if state == SOURCE:
            return
        if state in self._snapshots:
            self._snapshots.move_to_end(state)
            return
        self._snapshots[state] = working.clone()
        self._held += working.size_insns
        while self._held > SNAPSHOT_INSNS and len(self._snapshots) > 1:
            _, evicted = self._snapshots.popitem(last=False)
            self._held -= evicted.size_insns

    # ----------------------------------------------------------------- keys
    def _state(self, program: Program) -> int:
        """The id of ``program``'s state, registering a new one."""
        return self._states.setdefault(self._key(program), len(self._states))

    def _key(self, program: Program) -> tuple:
        """The exact structural key of ``program``'s content."""
        return (
            program.entry,
            tuple(
                (name, region.name, region.size_bytes, region.kind)
                for name, region in program.regions.items()
            ),
            tuple(program.functions),
            tuple(
                self._function_id(function) for function in program.functions.values()
            ),
        )

    def _function_id(self, function) -> int:
        key = (
            function.name,
            tuple(function.blocks),
            tuple(self._block_id(block) for block in function.blocks.values()),
            tuple(function.layout),
            tuple(
                (
                    loop.header,
                    tuple(loop.blocks),
                    loop.trip_count,
                    loop.entries,
                    loop.depth,
                    loop.parent,
                    loop.carried_dep_latency,
                )
                for loop in function.loops
            ),
            function.inline_candidate,
            function.entry_count,
        )
        return _intern(self._function_ids, key)

    def _block_id(self, block: BasicBlock) -> int:
        instructions = block.instructions
        try:
            insn_ids = tuple(map(_content_id, instructions))
        except AttributeError:  # unpickled instructions have no id slot set
            insn_ids = tuple(getattr(insn, "_cid", _NOT_INTERNED) for insn in instructions)
        if _NOT_INTERNED in insn_ids:
            insn_ids = tuple(
                cid or self._insn_id(insn) for cid, insn in zip(insn_ids, instructions)
            )
        key = (
            block.label,
            insn_ids,
            tuple(block.successors),
            block.exec_count,
            block.taken_prob,
            block.predictability,
            block.invariant_branch,
            block.pad_bytes,
            block.aligned,
            block.is_loop_header,
        )
        return _intern(self._block_ids, key)

    def _insn_id(self, insn: Instruction) -> int:
        cid = _intern(self._insn_ids, insn.content())
        _set_content_id(insn, cid)
        return cid


def _intern(table: dict[tuple, int], key: tuple) -> int:
    """The id ``table`` gives ``key``, a fresh one if it has none."""
    found = table.get(key)
    if found is None:
        found = table[key] = _next_content_id()
    return found
