"""Instruction scheduling (``-fschedule-insns`` and its two sub-flags).

The scheduler is a classic critical-path list scheduler over each block's
dependence DAG.  Reordering stretches producer→consumer distances, which is
exactly what removes load-use and multiply-use stalls on the in-order
XScale pipeline — and it lengthens live ranges, which is exactly what
raises register pressure and triggers spill code.  Both effects are
measured, not asserted: stalls are recomputed from the final instruction
order at simulation time, and pressure from the final live intervals at
register-allocation time.

Sub-flags:

* interblock scheduling (default on; ``-fno-sched-interblock`` disables it)
  first merges pure fall-through, same-frequency block chains inside a loop
  into a single scheduling region, widening the window — this is also what
  lets the scheduler interleave the copies an unroller just created;
* speculative scheduling (default on; ``-fno-sched-spec`` disables it)
  permits loads to move above stores to *other* regions; without it every
  store is a barrier for every later load.
"""

from __future__ import annotations

import heapq

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    Opcode,
    Program,
    BasicBlock,
    Function,
)
from repro.compiler.passes.base import Pass, PassStats


#: Values live across a block (loop-carried variables, globals) that occupy
#: registers regardless of the block's internal schedule.
BASELINE_LIVE = 4

#: Scheduling-region size cap; gcc bounds its regions similarly.
MAX_REGION_INSNS = 96


def merge_fallthrough_chains(
    function: Function, stats: PassStats, region_cap: int = MAX_REGION_INSNS
) -> None:
    """Merge pure fall-through same-frequency chains into single blocks.

    A block is absorbed into its layout predecessor when the predecessor has
    no terminator, exactly one successor (the block), identical execution
    count, the block has no other predecessors, is not a loop header, and
    both live in the same innermost loop.
    """
    predecessor_count: dict[str, int] = {label: 0 for label in function.blocks}
    for block in function.blocks.values():
        for successor in block.successors:
            if successor in predecessor_count:
                predecessor_count[successor] += 1

    merged = True
    while merged:
        merged = False
        for position in range(len(function.layout) - 1):
            first_label = function.layout[position]
            second_label = function.layout[position + 1]
            first = function.blocks[first_label]
            second = function.blocks[second_label]
            if first.terminator is not None:
                continue
            if first.successors != [second_label]:
                continue
            if predecessor_count.get(second_label, 0) != 1:
                continue
            if second.is_loop_header:
                continue
            if abs(first.exec_count - second.exec_count) > 1e-6 * max(
                first.exec_count, 1.0
            ):
                continue
            first_loop = function.loop_of_block(first_label)
            second_loop = function.loop_of_block(second_label)
            if (first_loop.header if first_loop else None) != (
                second_loop.header if second_loop else None
            ):
                continue
            if len(first.instructions) + len(second.instructions) > region_cap:
                continue
            # Merge: concatenation preserves all dependence distances,
            # including the cross-block ones that become intra-block.
            first.instructions.extend(second.instructions)
            first.successors = list(second.successors)
            first.taken_prob = second.taken_prob
            first.predictability = second.predictability
            first.invariant_branch = second.invariant_branch
            first.changed()
            del function.blocks[second_label]
            function.layout.remove(second_label)
            for loop in function.loops:
                if second_label in loop.blocks:
                    loop.blocks.remove(second_label)
            function.changed()
            predecessor_count[second_label] = 0
            stats["schedule.blocks_merged"] += 1
            merged = True
            break


def list_schedule(block: BasicBlock, allow_speculation: bool) -> bool:
    """Reorder the block body to maximise producer→consumer spacing.

    The terminator (if any) stays last; CALL instructions are barriers that
    partition the block into independently scheduled segments.  Returns
    whether any instruction moved.

    One sweep finds the segments and builds each one's dependence DAG as
    consumer lists and producer counts: value dependences, plus stores
    ordered with the stores and loads of their region (without
    speculation, with *all* later loads).
    """
    instructions = block.instructions
    has_terminator = bool(instructions) and instructions[-1].opcode.is_branch
    body_len = len(instructions) - has_terminator
    if body_len < 3:
        return False

    latency = [0] * body_len
    successors: list[list[int]] = [[] for _ in range(body_len)]
    remaining = [0] * body_len
    segments: list[tuple[int, int]] = []
    start = 0
    last_store: dict[str | None, int] = {}
    last_store_any = -1  # reset at each CALL, with ``last_store``
    for index in range(body_len):
        insn = instructions[index]
        opcode = insn.opcode
        if opcode is Opcode.CALL:
            if index > start:
                segments.append((start, index))
            start = index + 1
            last_store, last_store_any = {}, -1
            continue
        latency[index] = opcode.latency
        producers = 0
        for distance, _ in insn.deps:
            producer = index - distance
            if producer >= start:
                successors[producer].append(index)
                producers += 1
        if opcode is Opcode.STORE:
            previous = last_store.get(insn.region, -1)
            last_store[insn.region] = last_store_any = index
        elif opcode is Opcode.LOAD:
            previous = (
                last_store.get(insn.region, -1) if allow_speculation else last_store_any
            )
        else:
            previous = -1
        if previous >= 0:
            successors[previous].append(index)
            producers += 1
        remaining[index] = producers
    if body_len > start:
        segments.append((start, body_len))

    new_order = list(range(body_len))
    moved = False
    for seg_start, seg_end in segments:
        order = _schedule_segment(latency, successors, remaining, seg_start, seg_end)
        if order != new_order[seg_start:seg_end]:
            new_order[seg_start:seg_end] = order
            moved = True
    if not moved:
        return False
    _apply_order(block, new_order, has_terminator)
    return True


def _schedule_segment(
    latency: list[int],
    successors: list[list[int]],
    remaining: list[int],
    seg_start: int,
    seg_end: int,
) -> list[int]:
    """Stall-aware critical-path list scheduling of one segment.

    At each slot, prefer an instruction whose operands are already available
    (no stall at the current position), breaking ties by critical-path
    height then original position; if every ready instruction would stall,
    take the one available soonest.  This interleaves independent chains,
    stretching producer→consumer distances — the whole point of scheduling
    on an in-order pipeline.

    The choice at each slot is the minimum of the ready pool under the key
    ``(max(ready_time, slot), -height, index)``.  Two heaps find it without
    re-sorting the pool: ``waiting`` holds ready instructions keyed
    ``(ready_time, -height, index)``, and each slot first moves those with
    ``ready_time <= slot`` into ``available``, keyed ``(-height, index)``.
    Every available instruction has effective time ``slot``, lower than any
    waiting one, so the available minimum — or, if none is available, the
    waiting minimum — is exactly the key's minimum.  A consumer joins the
    pool only when its last producer is scheduled, so its ``ready_time``
    is final by then and a heap entry never goes stale.  ``successors``
    and ``remaining`` (in-segment consumers and producer counts, indexed
    by body position) are the segment's DAG; ``remaining`` is consumed.
    Returns the segment's indices in their new order.
    """
    # Critical path (height) of each node, in cycles: walking backwards,
    # every consumer's height is final before its producers need it.
    height = [0] * seg_end
    for index in range(seg_end - 1, seg_start - 1, -1):
        tallest = 0
        for consumer in successors[index]:
            if height[consumer] > tallest:
                tallest = height[consumer]
        height[index] = tallest + latency[index]

    heappush, heappop = heapq.heappush, heapq.heappop
    ready_time = [0] * seg_end
    available = [
        (-height[index], index)
        for index in range(seg_start, seg_end)
        if not remaining[index]
    ]
    heapq.heapify(available)
    waiting: list[tuple[int, int, int]] = []
    order: list[int] = []
    for slot in range(seg_end - seg_start):
        while waiting and waiting[0][0] <= slot:
            _, neg_height, index = heappop(waiting)
            heappush(available, (neg_height, index))
        if available:
            chosen = heappop(available)[1]
        else:
            chosen = heappop(waiting)[2]
        order.append(chosen)
        finish = slot + latency[chosen]
        for consumer in successors[chosen]:
            if finish > ready_time[consumer]:
                ready_time[consumer] = finish
            remaining[consumer] -= 1
            if not remaining[consumer]:
                heappush(waiting, (ready_time[consumer], -height[consumer], consumer))
    return order


def _apply_order(block: BasicBlock, new_order: list[int], has_terminator: bool) -> None:
    """Materialise the permutation, rewriting dependence distances."""
    old_instructions = block.instructions
    if has_terminator:
        new_order = new_order + [len(old_instructions) - 1]
    position_of = [0] * len(new_order)
    for new_index, old_index in enumerate(new_order):
        position_of[old_index] = new_index

    reordered = [old_instructions[old_index] for old_index in new_order]
    for new_index, insn in enumerate(reordered):
        if not insn.deps:
            continue
        old_index = new_order[new_index]
        new_deps = []
        for distance, kind in insn.deps:
            producer = old_index - distance
            if producer < 0:
                # Virtual (cross-block) producer keeps its reach before the
                # block start.
                new_deps.append((new_index - producer, kind))
            else:
                new_position = position_of[producer]
                if new_position >= new_index:
                    # Should not happen (precedence respected); drop safely.
                    continue
                new_deps.append((new_index - new_position, kind))
        deps = tuple(new_deps)
        if deps != insn.deps:
            reordered[new_index] = insn.replace(deps=deps)
    block.instructions = reordered
    block.changed()


def block_pressure(block: BasicBlock) -> int:
    """Maximum simultaneous live values implied by the dependence edges.

    Each in-block producer is live from its own position to its last
    consumer.  ``BASELINE_LIVE`` covers loop-carried values and globals that
    no in-block edge describes.
    """
    return peak_live_and_calls(block.instructions)[0] + BASELINE_LIVE


def peak_live_and_calls(instructions: list) -> tuple[int, int]:
    """``(peak live in-block values, CALL count)``, in one loop.

    ``delta`` is the net change in live values at each position: a
    producer's first consumer adds +1 there and -1 at itself, each later
    one moves the -1 to itself.  The running sum's peak is the live peak
    (a position's deaths before its births: deaths only lower it)."""
    delta = [0] * len(instructions)
    last_use = [-1] * len(instructions)
    calls = 0
    call = Opcode.CALL
    for index, insn in enumerate(instructions):
        if insn.opcode is call:
            calls += 1
        for distance, _ in insn.deps:
            producer = index - distance
            if producer >= 0:
                last = last_use[producer]
                delta[producer if last < 0 else last] += 1
                delta[index] -= 1
                last_use[producer] = index
    live = peak = 0
    for change in delta:
        live += change
        if live > peak:
            peak = live
    return peak, calls


class ScheduleInsnsPass(Pass):
    """``-fschedule-insns`` with interblock and speculative sub-flags."""

    name = "schedule"
    reads = frozenset(
        {
            "fschedule_insns",
            "fno_sched_interblock",
            "fno_sched_spec",
            "fexpensive_optimizations",
        }
    )

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["fschedule_insns"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        interblock = not flags["fno_sched_interblock"]
        allow_speculation = not flags["fno_sched_spec"]
        region_cap = (
            MAX_REGION_INSNS if flags["fexpensive_optimizations"] else MAX_REGION_INSNS // 2
        )
        for function in program.functions.values():
            if interblock:
                merge_fallthrough_chains(function, stats, region_cap)
            for block in function.blocks.values():
                if len(block.instructions) < 3 or block.exec_count <= 0:
                    continue
                if list_schedule(block, allow_speculation):
                    stats["schedule.blocks_scheduled"] += 1
