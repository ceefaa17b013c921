"""Differential tests: the compiler's hot kernels against their old versions.

The scheduler, the spill count, dependence-preserving deletion, local CSE
and the tag-scan passes were rewritten for speed.  The versions they
replaced are kept below as oracles (renamed, comments dropped).  Each new
kernel must give the same result as its oracle, field for field, on

* every input a compile of the ``build`` benchmark grid (all 35 MiBench
  programs under ``DEFAULT_SPACE.sample_many(6, 7)``) hands it, and
* hypothesis-generated blocks and functions.

The scheduler and the pressure count also have independent oracles: a
scheduler that re-sorts the whole ready pool at every slot, and a
pressure count that sorts live-range events.

The tests of :meth:`Program.validate`'s check-once mark are here too: an
instruction is checked by :meth:`Instruction.problem` once, so a pass's
invalid ``replace()`` copy must still fail the compile.
"""

from __future__ import annotations

import heapq
from dataclasses import FrozenInstanceError
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import DEFAULT_SPACE
from repro.compiler.ir import (
    ALL_TAGS,
    DEFAULT_LATENCY,
    DEP_KINDS,
    TAG_INDUCTION,
    TAG_LOCAL_REDUNDANT,
    TAG_PARTIAL_REDUNDANT,
    TAG_PEEPHOLE,
    TAG_RANGE_CHECK,
    TAG_SIBLING,
    BasicBlock,
    DataRegion,
    Function,
    Instruction,
    Opcode,
    Program,
)
from repro.compiler.passes import (
    base,
    cse,
    gcse,
    inline,
    loopopt,
    misc,
    reorder,
    schedule,
    unroll,
)
from repro.compiler.passes.base import PassStats, delete_instructions
from repro.compiler.passes.loopopt import StrengthReducePass
from repro.compiler.passes.misc import PeepholePass, SiblingCallPass
from repro.compiler.passes.schedule import (
    BASELINE_LIVE,
    MAX_REGION_INSNS,
    block_pressure,
)
from repro.compiler.passes.tree import TreePrePass, TreeVrpPass
from repro.compiler.pipeline import Compiler
from repro.compiler.regalloc import (
    ALLOCATABLE_REGISTERS,
    MAX_SPILLS_PER_BLOCK,
    RegisterAllocationPass,
)
from repro.programs.mibench import MIBENCH_ORDER, mibench_program


# ------------------------------------------------------------------ oracles
# The kernels as they were before the rewrite.


def old_dependence_edges(block, allow_speculation):
    instructions = block.instructions
    count = len(instructions)
    predecessors = [[] for _ in range(count)]
    for index, insn in enumerate(instructions):
        for distance, _ in insn.deps:
            producer = index - distance
            if 0 <= producer < count:
                predecessors[index].append(producer)

    last_store_by_region = {}
    last_store_any = -1
    for index, insn in enumerate(instructions):
        if insn.opcode is Opcode.STORE:
            previous = last_store_by_region.get(insn.region, -1)
            if previous >= 0:
                predecessors[index].append(previous)
            last_store_by_region[insn.region] = index
            last_store_any = index
        elif insn.opcode is Opcode.LOAD:
            if allow_speculation:
                previous = last_store_by_region.get(insn.region, -1)
            else:
                previous = last_store_any
            if previous >= 0:
                predecessors[index].append(previous)
    return predecessors


def old_list_schedule(block, allow_speculation, schedule_segment=None):
    schedule_segment = schedule_segment or old_schedule_segment
    body, terminator = block.body_and_terminator()
    if len(body) < 3:
        return False

    segments = []
    start = 0
    for index, insn in enumerate(body):
        if insn.opcode is Opcode.CALL:
            if index > start:
                segments.append((start, index))
            start = index + 1
    if len(body) > start:
        segments.append((start, len(body)))

    predecessors = old_dependence_edges(block, allow_speculation)
    new_order = []
    moved = False
    cursor = 0
    for seg_start, seg_end in segments:
        while cursor < seg_start:
            new_order.append(cursor)
            cursor += 1
        order = schedule_segment(block, predecessors, seg_start, seg_end)
        if order != list(range(seg_start, seg_end)):
            moved = True
        new_order.extend(order)
        cursor = seg_end
    while cursor < len(body):
        new_order.append(cursor)
        cursor += 1

    if not moved:
        return False
    old_apply_order(block, new_order, terminator is not None)
    return True


def old_schedule_segment(block, predecessors, seg_start, seg_end):
    instructions = block.instructions
    count = seg_end - seg_start
    latency = [
        DEFAULT_LATENCY[instructions[index].opcode.category]
        for index in range(seg_start, seg_end)
    ]
    successors = [[] for _ in range(count)]
    remaining = [0] * count
    for local in range(count):
        for producer in predecessors[seg_start + local]:
            if seg_start <= producer < seg_end:
                successors[producer - seg_start].append(local)
                remaining[local] += 1

    height = [0] * count
    for local in reversed(range(count)):
        height[local] = latency[local] + max(
            (height[consumer] for consumer in successors[local]), default=0
        )

    ready_time = [0] * count
    available = [
        (-height[local], local) for local in range(count) if not remaining[local]
    ]
    heapq.heapify(available)
    waiting = []
    order = []
    for slot in range(count):
        while waiting and waiting[0][0] <= slot:
            _, neg_height, local = heapq.heappop(waiting)
            heapq.heappush(available, (neg_height, local))
        if available:
            chosen = heapq.heappop(available)[1]
        else:
            chosen = heapq.heappop(waiting)[2]
        order.append(seg_start + chosen)
        finish = slot + latency[chosen]
        for consumer in successors[chosen]:
            if finish > ready_time[consumer]:
                ready_time[consumer] = finish
            remaining[consumer] -= 1
            if not remaining[consumer]:
                heapq.heappush(
                    waiting, (ready_time[consumer], -height[consumer], consumer)
                )
    return order


def old_apply_order(block, new_order, has_terminator):
    old_instructions = block.instructions
    body_len = len(new_order)
    position_of = {old_index: new_index for new_index, old_index in enumerate(new_order)}
    if has_terminator:
        terminator_old = len(old_instructions) - 1
        position_of[terminator_old] = body_len
        new_order = new_order + [terminator_old]

    reordered = [old_instructions[old_index] for old_index in new_order]
    for new_index, insn in enumerate(reordered):
        if not insn.deps:
            continue
        old_index = new_order[new_index]
        new_deps = []
        for distance, kind in insn.deps:
            producer = old_index - distance
            if producer < 0:
                new_deps.append((new_index - producer, kind))
            else:
                new_position = position_of.get(producer)
                if new_position is None or new_position >= new_index:
                    continue
                new_deps.append((new_index - new_position, kind))
        deps = tuple(new_deps)
        if deps != insn.deps:
            reordered[new_index] = insn.replace(deps=deps)
    block.instructions = reordered


def old_block_pressure(block):
    last_use = {}
    for index, insn in enumerate(block.instructions):
        for distance, _ in insn.deps:
            if distance <= index:
                last_use[index - distance] = index
    delta = [0] * len(block.instructions)
    for producer, last in last_use.items():
        delta[producer] += 1
        delta[last] -= 1
    return max(accumulate(delta, initial=0)) + BASELINE_LIVE


def sorted_schedule_segment(block, predecessors, seg_start, seg_end):
    """Reference scheduler: re-sort the whole ready pool at every slot by
    ``(max(ready_time, slot), -height, index)``.  The heap scheduler in
    ``schedule.py`` must pick exactly what this picks."""
    instructions = block.instructions

    def latency_of(insn):
        return DEFAULT_LATENCY[insn.opcode.category]

    indices = range(seg_start, seg_end)
    successors = {index: [] for index in indices}
    indegree = {index: 0 for index in indices}
    for index in indices:
        for producer in predecessors[index]:
            if seg_start <= producer < seg_end:
                successors[producer].append(index)
                indegree[index] += 1
    height = {}
    for index in reversed(indices):
        height[index] = latency_of(instructions[index]) + max(
            (height[consumer] for consumer in successors[index]), default=0
        )
    ready = {index for index in indices if indegree[index] == 0}
    ready_time = {index: 0 for index in ready}
    order = []
    remaining = dict(indegree)
    slot = 0
    while ready:
        pool = sorted(
            ready,
            key=lambda index: (max(ready_time[index], slot), -height[index], index),
        )
        chosen = pool[0]
        ready.remove(chosen)
        order.append(chosen)
        finish = slot + latency_of(instructions[chosen])
        for consumer in successors[chosen]:
            ready_time[consumer] = max(ready_time.get(consumer, 0), finish)
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                ready.add(consumer)
        slot += 1
    return order


def event_block_pressure(block):
    """Reference pressure: sort (position, ±1) live-range events."""
    last_use = {}
    for index, insn in enumerate(block.instructions):
        for distance, _ in insn.deps:
            producer = index - distance
            if producer >= 0:
                last_use[producer] = max(last_use.get(producer, producer), index)
    events = []
    for producer, last in last_use.items():
        events.append((producer, +1))
        events.append((last, -1))
    live = peak = 0
    for _, delta in sorted(events):
        live += delta
        peak = max(peak, live)
    return peak + BASELINE_LIVE


def old_spill_count(block, regmove, caller_saves):
    pressure = old_block_pressure(block)
    if regmove:
        pressure -= 1
    calls = sum(1 for insn in block.instructions if insn.opcode is Opcode.CALL)
    available = ALLOCATABLE_REGISTERS
    spilled = max(0, pressure - available)
    if calls:
        if caller_saves:
            spilled = max(0, pressure + 1 - available)
        else:
            spilled += calls
    return min(spilled, MAX_SPILLS_PER_BLOCK)


def old_delete_instructions(block, indices):
    doomed = set(indices)
    if not doomed:
        return 0
    old_instructions = block.instructions
    old_to_new = {}
    kept = []
    for old_index, insn in enumerate(old_instructions):
        if old_index not in doomed:
            old_to_new[old_index] = len(kept)
            kept.append((old_index, insn))

    new_instructions = []
    for new_index, (old_index, insn) in enumerate(kept):
        if insn.deps:
            new_deps = []
            for distance, kind in insn.deps:
                producer = old_index - distance
                if producer < 0:
                    new_deps.append((new_index - producer, kind))
                elif producer in doomed:
                    continue
                else:
                    new_deps.append((new_index - old_to_new[producer], kind))
            deps = tuple(new_deps)
            if deps != insn.deps:
                insn = insn.replace(deps=deps)
        new_instructions.append(insn)
    removed = len(old_instructions) - len(new_instructions)
    block.instructions = new_instructions
    return removed


def old_remove_tagged(block, tag, predicate=None):
    doomed = [
        index
        for index, insn in enumerate(block.instructions)
        if tag in insn.tags and (predicate is None or predicate(insn))
    ]
    return old_delete_instructions(block, doomed)


def old_eliminate_in_function(function, follow_jumps, skip_blocks):
    removed = 0
    available_out = {}
    predecessors = {label: [] for label in function.layout}
    if skip_blocks:
        for label in function.layout:
            for successor in function.blocks[label].successors:
                if successor in predecessors:
                    predecessors[successor].append(label)

    layout = function.layout
    for position, label in enumerate(layout):
        block = function.blocks[label]
        available = set()
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

        doomed = []
        for index, insn in enumerate(block.instructions):
            expr = insn.expr
            if expr is None:
                continue
            if expr in available and TAG_LOCAL_REDUNDANT in insn.tags:
                doomed.append(index)
            else:
                available.add(expr)
        removed += old_delete_instructions(block, doomed)
        available_out[label] = available
    return removed


def old_tree_vrp_run(program, flags, stats):
    for function in program.functions.values():
        for block in function.blocks.values():
            stats["tree_vrp.removed"] += old_remove_tagged(block, TAG_RANGE_CHECK)


def old_tree_pre_run(program, flags, stats):
    for function in program.functions.values():
        for block in function.blocks.values():
            stats["tree_pre.removed"] += old_remove_tagged(block, TAG_PARTIAL_REDUNDANT)


def old_peephole_run(program, flags, stats):
    for function in program.functions.values():
        for block in function.blocks.values():
            stats["peephole.removed"] += old_remove_tagged(block, TAG_PEEPHOLE)


def old_sibling_call_run(program, flags, stats):
    for function in program.functions.values():
        for block in function.blocks.values():
            for index, insn in enumerate(block.instructions):
                if (
                    insn.opcode is Opcode.CALL
                    and TAG_SIBLING in insn.tags
                    and index + 1 < len(block.instructions)
                    and block.instructions[index + 1].opcode is Opcode.RET
                ):
                    old_delete_instructions(block, [index + 1])
                    block.instructions[index] = block.instructions[index].replace(
                        opcode=Opcode.JMP
                    )
                    stats["sibcall.converted"] += 1
                    break


def old_retag_consumers(block, producer_index):
    instructions = block.instructions
    for consumer_index in range(producer_index + 1, len(instructions)):
        insn = instructions[consumer_index]
        distance = consumer_index - producer_index
        if (distance, "mac") in insn.deps:
            instructions[consumer_index] = insn.replace(
                deps=tuple(
                    (edge, "alu") if edge == distance and kind == "mac" else (edge, kind)
                    for edge, kind in insn.deps
                )
            )


def old_strength_reduce_run(program, flags, stats):
    for function in program.functions.values():
        for block in function.blocks.values():
            for index, insn in enumerate(block.instructions):
                if insn.opcode is Opcode.MUL and TAG_INDUCTION in insn.tags:
                    block.instructions[index] = insn.replace(opcode=Opcode.ADD, latency=1)
                    old_retag_consumers(block, index)
                    stats["strength_reduce.converted"] += 1


#: Pass class → its old ``run``.
OLD_PASS_RUNS = {
    TreeVrpPass: old_tree_vrp_run,
    TreePrePass: old_tree_pre_run,
    PeepholePass: old_peephole_run,
    SiblingCallPass: old_sibling_call_run,
    StrengthReducePass: old_strength_reduce_run,
}

#: Every module that calls ``delete_instructions`` through its own binding.
DELETE_CALLERS = (base, cse, gcse, inline, loopopt, misc, reorder, unroll)


# ------------------------------------------------------- the build grid
class _Recorder:
    """Per kernel, how many inputs it saw and the first that disagreed."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.mismatch: dict[str, str] = {}

    def check(self, kernel: str, same: bool, detail) -> None:
        self.calls[kernel] = self.calls.get(kernel, 0) + 1
        if not same and kernel not in self.mismatch:
            self.mismatch[kernel] = repr(detail)[:2000]


@pytest.fixture(scope="module")
def build_grid():
    """Compile the ``build`` grid with every kernel wrapped: each call runs
    the old kernel on a copy of its input and compares the results."""
    record = _Recorder()
    new_list_schedule = schedule.list_schedule
    new_spill_count = RegisterAllocationPass._spill_count
    new_delete = base.delete_instructions
    new_eliminate = cse._eliminate_in_function

    def list_schedule(block, allow_speculation):
        expected = block.clone()
        expected_moved = old_list_schedule(expected, allow_speculation)
        moved = new_list_schedule(block, allow_speculation)
        record.check(
            "list_schedule",
            moved == expected_moved and block == expected,
            (block.label, allow_speculation),
        )
        return moved

    def spill_count(block, regmove, caller_saves):
        spilled = new_spill_count(block, regmove, caller_saves)
        expected = old_spill_count(block, regmove, caller_saves)
        record.check("_spill_count", spilled == expected, (block.label, spilled, expected))
        pressure, expected_pressure = block_pressure(block), old_block_pressure(block)
        record.check("block_pressure", pressure == expected_pressure, block.label)
        return spilled

    def delete(block, indices):
        indices = list(indices)
        expected = block.clone()
        expected_removed = old_delete_instructions(expected, indices)
        removed = new_delete(block, indices)
        record.check(
            "delete_instructions",
            removed == expected_removed and block == expected,
            (block.label, indices),
        )
        return removed

    def eliminate(function, follow_jumps, skip_blocks):
        expected = function.clone()
        expected_removed = old_eliminate_in_function(expected, follow_jumps, skip_blocks)
        removed = new_eliminate(function, follow_jumps, skip_blocks)
        record.check(
            "_eliminate_in_function",
            removed == expected_removed
            and function.layout == expected.layout
            and all(
                function.blocks[label] == expected.blocks[label]
                for label in function.layout
            ),
            (function.name, follow_jumps, skip_blocks),
        )
        return removed

    def pass_run(cls):
        new_run = cls.run

        def run(self, program, flags, stats):
            expected, expected_stats = program.clone(), PassStats(stats)
            OLD_PASS_RUNS[cls](expected, flags, expected_stats)
            new_run(self, program, flags, stats)
            record.check(
                cls.__name__,
                program == expected
                and list(stats.items()) == list(expected_stats.items()),
                (program.name, list(stats.items()), list(expected_stats.items())),
            )

        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schedule, "list_schedule", list_schedule)
        patch.setattr(RegisterAllocationPass, "_spill_count", staticmethod(spill_count))
        for module in DELETE_CALLERS:
            patch.setattr(module, "delete_instructions", delete)
        patch.setattr(cse, "_eliminate_in_function", eliminate)
        for cls in OLD_PASS_RUNS:
            patch.setattr(cls, "run", pass_run(cls))
        settings_ = DEFAULT_SPACE.sample_many(6, 7)
        for name in MIBENCH_ORDER:
            Compiler(cache=False).compile_many(mibench_program(name), settings_)
    return record


KERNELS = (
    "list_schedule",
    "_spill_count",
    "block_pressure",
    "delete_instructions",
    "_eliminate_in_function",
    *(cls.__name__ for cls in OLD_PASS_RUNS),
)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_matches_oracle_on_build_grid(build_grid, kernel):
    assert build_grid.calls.get(kernel, 0) > 0, f"{kernel} never ran"
    assert kernel not in build_grid.mismatch, build_grid.mismatch.get(kernel)


# ------------------------------------------------------------ hypothesis
_BODY_OPCODES = [op for op in Opcode if not op.is_branch] + [Opcode.CALL]
_TAGS = sorted(ALL_TAGS)


@st.composite
def _instructions(draw, length, exprs=None):
    """``length`` instructions with random opcodes, regions, exprs, tags and
    deps (some reaching before the block)."""
    instructions = []
    for index in range(length):
        opcode = draw(st.sampled_from(_BODY_OPCODES))
        deps = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=index + 2),
                    st.sampled_from(DEP_KINDS),
                ),
                max_size=3,
            )
        )
        expr = draw(st.sampled_from(exprs)) if exprs else f"i{index}"
        instructions.append(
            Instruction(
                opcode=opcode,
                expr=expr,
                region=draw(st.sampled_from(("a", "b"))) if opcode.is_memory else None,
                deps=tuple(deps),
                latency=draw(st.integers(min_value=0, max_value=4)),
                tags=frozenset(draw(st.lists(st.sampled_from(_TAGS), max_size=2))),
                callee="f" if opcode is Opcode.CALL else None,
            )
        )
    return instructions


@st.composite
def _blocks(draw, min_size=3, max_size=32):
    length = draw(st.integers(min_value=min_size, max_value=max_size))
    instructions = draw(_instructions(length))
    if draw(st.booleans()):
        instructions.append(
            Instruction(opcode=draw(st.sampled_from((Opcode.BR, Opcode.JMP, Opcode.RET))))
        )
    return BasicBlock("b", instructions, exec_count=1.0)


@st.composite
def _functions(draw):
    """A few blocks in layout order, with forward successors (and the odd
    back edge), sharing a small pool of exprs so CSE finds redundancy."""
    count = draw(st.integers(min_value=1, max_value=5))
    labels = [f"b{index}" for index in range(count)]
    exprs = [f"e{index}" for index in range(4)] + [None]
    blocks = {}
    for position, label in enumerate(labels):
        length = draw(st.integers(min_value=0, max_value=8))
        successors = draw(st.lists(st.sampled_from(labels), max_size=2, unique=True))
        blocks[label] = BasicBlock(
            label, draw(_instructions(length, exprs)), successors=successors
        )
    return Function(name="f", blocks=blocks, layout=labels)


class TestKernelsMatchOraclesOnGeneratedInput:
    @settings(max_examples=100, deadline=None)
    @given(block=_blocks(), allow_speculation=st.booleans())
    def test_list_schedule(self, block, allow_speculation):
        expected = block.clone()
        assert schedule.list_schedule(block, allow_speculation) == old_list_schedule(
            expected, allow_speculation
        )
        assert block == expected

    @settings(max_examples=100, deadline=None)
    @given(block=_blocks(max_size=MAX_REGION_INSNS), allow_speculation=st.booleans())
    def test_list_schedule_sort_oracle(self, block, allow_speculation):
        assert block_pressure(block) == event_block_pressure(block)
        expected = block.clone()
        expected_moved = old_list_schedule(
            expected, allow_speculation, sorted_schedule_segment
        )
        assert schedule.list_schedule(block, allow_speculation) == expected_moved
        assert block == expected
        assert block_pressure(block) == event_block_pressure(block)

    @settings(max_examples=100, deadline=None)
    @given(
        block=_blocks(min_size=0),
        regmove=st.booleans(),
        caller_saves=st.booleans(),
    )
    def test_spill_count_and_pressure(self, block, regmove, caller_saves):
        assert block_pressure(block) == old_block_pressure(block)
        assert RegisterAllocationPass._spill_count(
            block, regmove, caller_saves
        ) == old_spill_count(block, regmove, caller_saves)

    @settings(max_examples=150, deadline=None)
    @given(block=_blocks(min_size=0, max_size=24), data=st.data())
    def test_delete_instructions(self, block, data):
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=max(len(block.instructions) - 1, 0)))
            if block.instructions
            else st.just([])
        )
        expected = block.clone()
        assert delete_instructions(block, indices) == old_delete_instructions(
            expected, indices
        )
        assert block == expected

    @settings(max_examples=150, deadline=None)
    @given(function=_functions(), follow=st.booleans(), skip=st.booleans())
    def test_eliminate_in_function(self, function, follow, skip):
        expected = function.clone()
        assert cse._eliminate_in_function(
            function, follow, skip
        ) == old_eliminate_in_function(expected, follow, skip)
        for label in function.layout:
            assert function.blocks[label] == expected.blocks[label]

    @settings(max_examples=100, deadline=None)
    @given(function=_functions(), data=st.data())
    def test_tag_scan_passes(self, function, data):
        cls = data.draw(st.sampled_from(sorted(OLD_PASS_RUNS, key=lambda c: c.__name__)))
        program = Program(
            name="p",
            functions={"f": function},
            entry="f",
            regions={"a": DataRegion("a", 64), "b": DataRegion("b", 64)},
        )
        expected, stats, expected_stats = program.clone(), PassStats(), PassStats()
        OLD_PASS_RUNS[cls](expected, None, expected_stats)
        cls().run(program, None, stats)
        assert program == expected
        assert list(stats.items()) == list(expected_stats.items())


# ------------------------------------------------------- validate once
def _one_block_program(instructions) -> Program:
    block = BasicBlock("b", instructions, exec_count=1.0)
    function = Function(name="main", blocks={"b": block}, layout=["b"])
    return Program(
        name="p",
        functions={"main": function},
        entry="main",
        regions={"data": DataRegion("data", 64)},
    )


class TestValidateChecksEachInstructionOnce:
    def test_constructed_instructions_are_marked(self):
        insn = Instruction(opcode=Opcode.ADD, expr="a")
        assert insn._checked

    def test_replace_copies_are_unmarked_until_validated(self):
        insn = Instruction(opcode=Opcode.ADD, expr="a")
        copy = insn.replace(expr="b")
        assert not copy._checked
        _one_block_program([insn, copy]).validate()
        assert copy._checked

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"deps": ((0, "alu"),)}, "dep distance"),
            ({"tags": frozenset({"no_such_tag"})}, "unknown instruction tags"),
        ],
    )
    def test_bad_copy_of_a_marked_instruction_is_rejected_every_time(
        self, change, message
    ):
        good = Instruction(opcode=Opcode.ADD, expr="a")
        _one_block_program([good]).validate()
        program = _one_block_program([good, good.replace(**change)])
        for _ in range(2):  # a failed check leaves no mark
            with pytest.raises(ValueError, match=message):
                program.validate()

    def test_program_level_checks_still_run_on_marked_instructions(self):
        load = Instruction(opcode=Opcode.LOAD, expr="x", region="data")
        call = Instruction(opcode=Opcode.CALL, callee="main")
        program = _one_block_program([load, call])
        program.validate()
        assert load._checked and call._checked
        del program.regions["data"]
        with pytest.raises(ValueError, match="unknown region"):
            program.validate()
        program.regions["data"] = DataRegion("data", 64)
        program.functions["main"].blocks["b"].instructions[1] = call.replace(
            callee="gone"
        )
        with pytest.raises(ValueError, match="unknown callee"):
            program.validate()

    def test_marked_instruction_cannot_be_mutated(self):
        insn = Instruction(opcode=Opcode.ADD, expr="a")
        assert insn._checked
        with pytest.raises(FrozenInstanceError):
            insn._checked = False
        with pytest.raises(FrozenInstanceError):
            insn.deps = ((0, "alu"),)
        with pytest.raises(FrozenInstanceError):
            del insn._checked
        assert insn._checked and insn.deps == ()

    def test_unpickled_instructions_are_checked_again(self):
        import pickle

        bad = pickle.loads(
            pickle.dumps(Instruction(opcode=Opcode.ADD).replace(deps=((0, "alu"),)))
        )
        with pytest.raises(ValueError, match="dep distance"):
            _one_block_program([bad]).validate()
