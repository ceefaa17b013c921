"""Tests for instruction scheduling and the register-pressure model."""

from repro.compiler.flags import o3_setting
from repro.compiler.ir import (
    BasicBlock,
    Instruction,
    Opcode,
)
from repro.compiler.passes.base import PassStats
from repro.compiler.passes.schedule import (
    BASELINE_LIVE,
    ScheduleInsnsPass,
    block_pressure,
    list_schedule,
    merge_fallthrough_chains,
)
from tests.conftest import simple_loop_program


def _stall_cycles(block: BasicBlock, load_latency: int = 3) -> float:
    """In-order single-issue stalls implied by the block's final order."""
    latency = {"alu": 1, "shift": 1, "mac": 3, "load": load_latency, "carried": 4}
    total = 0.0
    for index, insn in enumerate(block.instructions):
        for distance, kind in insn.deps:
            total += max(0.0, latency[kind] - distance)
    return total


def _two_chain_block() -> BasicBlock:
    """Two independent load→use chains, naively ordered (maximal stalls)."""
    return BasicBlock(
        "b",
        [
            Instruction(opcode=Opcode.LOAD, expr="l0", region="data", stride=4),
            Instruction(opcode=Opcode.ADD, expr="a0", deps=((1, "load"),)),
            Instruction(opcode=Opcode.LOAD, expr="l1", region="data", stride=4),
            Instruction(opcode=Opcode.ADD, expr="a1", deps=((1, "load"),)),
            Instruction(opcode=Opcode.XOR, expr="x0"),
            Instruction(opcode=Opcode.XOR, expr="x1"),
        ],
        exec_count=10.0,
    )


class TestListSchedule:
    def test_reduces_stalls(self):
        block = _two_chain_block()
        before = _stall_cycles(block)
        moved = list_schedule(block, allow_speculation=True)
        assert moved
        assert _stall_cycles(block) < before

    def test_preserves_instruction_multiset(self):
        block = _two_chain_block()
        before = sorted(insn.expr for insn in block.instructions)
        list_schedule(block, allow_speculation=True)
        assert sorted(insn.expr for insn in block.instructions) == before

    def test_terminator_stays_last(self):
        block = _two_chain_block()
        block.instructions.append(Instruction(opcode=Opcode.BR))
        block.successors = ["b"]
        list_schedule(block, allow_speculation=True)
        assert block.instructions[-1].opcode is Opcode.BR

    def test_deterministic(self):
        one = _two_chain_block()
        two = _two_chain_block()
        list_schedule(one, allow_speculation=True)
        list_schedule(two, allow_speculation=True)
        assert [insn.expr for insn in one.instructions] == [
            insn.expr for insn in two.instructions
        ]

    def test_dependences_respected(self):
        block = _two_chain_block()
        list_schedule(block, allow_speculation=True)
        position = {insn.expr: index for index, insn in enumerate(block.instructions)}
        # Consumers stay after their producers.
        assert position["a0"] > position["l0"]
        assert position["a1"] > position["l1"]

    def test_speculation_gates_load_store_reordering(self):
        def make_block():
            return BasicBlock(
                "b",
                [
                    Instruction(opcode=Opcode.STORE, expr="s", region="out", stride=4),
                    Instruction(opcode=Opcode.LOAD, expr="l", region="in", stride=4),
                    Instruction(opcode=Opcode.ADD, expr="a", deps=((1, "load"),)),
                    Instruction(opcode=Opcode.XOR, expr="x"),
                ],
                exec_count=1.0,
            )

        speculative = make_block()
        list_schedule(speculative, allow_speculation=True)
        spec_order = [insn.expr for insn in speculative.instructions]

        conservative = make_block()
        list_schedule(conservative, allow_speculation=False)
        cons_order = [insn.expr for insn in conservative.instructions]

        # Without speculation the load may not cross the store.
        assert cons_order.index("l") > cons_order.index("s")
        # With speculation it may (different regions).
        assert spec_order.index("l") < spec_order.index("s") or spec_order != cons_order

    def test_same_region_store_load_never_reordered(self):
        block = BasicBlock(
            "b",
            [
                Instruction(opcode=Opcode.STORE, expr="s", region="m", stride=4),
                Instruction(opcode=Opcode.LOAD, expr="l", region="m", stride=4),
                Instruction(opcode=Opcode.ADD, expr="a"),
            ],
        )
        list_schedule(block, allow_speculation=True)
        order = [insn.expr for insn in block.instructions]
        assert order.index("l") > order.index("s")

    def test_tiny_blocks_untouched(self):
        block = BasicBlock(
            "b",
            [Instruction(opcode=Opcode.ADD, expr="a"), Instruction(opcode=Opcode.ADD, expr="b")],
        )
        assert not list_schedule(block, allow_speculation=True)


class TestMergeFallthrough:
    def test_merges_pure_chain(self):
        program = simple_loop_program(body_insns=6)
        function = program.functions["main"]
        stats = PassStats()
        merge_fallthrough_chains(function, stats)
        # hdr -> body merge (same count, single pred, no terminator).
        assert stats["schedule.blocks_merged"] >= 1
        assert "body" not in function.blocks

    def test_loop_membership_updated(self):
        program = simple_loop_program(body_insns=6)
        function = program.functions["main"]
        merge_fallthrough_chains(function, PassStats())
        loop = function.loops[0]
        assert "body" not in loop.blocks
        assert set(loop.blocks) <= set(function.blocks)

    def test_merged_block_keeps_terminator_and_successors(self):
        # The latch (which ends in BR) may be absorbed into its fall-through
        # predecessor; the merged block must then end with that BR and
        # inherit the latch's successors and taken probability.
        program = simple_loop_program()
        function = program.functions["main"]
        merge_fallthrough_chains(function, PassStats())
        merged = function.blocks["hdr"]
        assert merged.terminator is not None
        assert merged.terminator.opcode.value == "br"
        assert "hdr" in merged.successors  # the back edge survives
        assert merged.taken_prob > 0.9

    def test_terminated_blocks_do_not_absorb_followers(self):
        program = simple_loop_program()
        function = program.functions["main"]
        merge_fallthrough_chains(function, PassStats())
        # 'exit' follows the latch BR; it must not be merged upwards.
        assert "exit" in function.blocks

    def test_different_frequency_not_merged(self):
        program = simple_loop_program()
        function = program.functions["main"]
        function.blocks["body"].exec_count *= 2  # now differs from hdr
        merge_fallthrough_chains(function, PassStats())
        assert "body" in function.blocks

    def test_region_cap_respected(self):
        program = simple_loop_program(body_insns=6)
        function = program.functions["main"]
        merge_fallthrough_chains(function, PassStats(), region_cap=4)
        assert "body" in function.blocks  # merge would exceed the cap


class TestBlockPressure:
    def test_baseline_for_independent_code(self):
        block = BasicBlock(
            "b", [Instruction(opcode=Opcode.ADD, expr=f"i{i}") for i in range(5)]
        )
        assert block_pressure(block) == BASELINE_LIVE

    def test_overlapping_ranges_raise_pressure(self):
        # Five values produced up front, all consumed at the end.
        instructions = [
            Instruction(opcode=Opcode.ADD, expr=f"v{i}") for i in range(5)
        ]
        instructions.append(
            Instruction(
                opcode=Opcode.ADD,
                expr="sum",
                deps=tuple((distance, "alu") for distance in range(1, 6)),
            )
        )
        block = BasicBlock("b", instructions)
        assert block_pressure(block) == BASELINE_LIVE + 5

    def test_scheduling_can_raise_pressure(self):
        block = _two_chain_block()
        before = block_pressure(block)
        list_schedule(block, allow_speculation=True)
        assert block_pressure(block) >= before


class TestScheduleInsnsPass:
    def test_gated_by_flag(self):
        program = simple_loop_program()
        body = program.functions["main"].blocks["body"]
        body.instructions[3] = body.instructions[3].replace(deps=((1, "load"),))
        before = [insn.expr for insn in body.instructions]
        ScheduleInsnsPass().apply(
            program, o3_setting().with_values(fschedule_insns=False), PassStats()
        )
        assert [insn.expr for insn in body.instructions] == before

    def test_runs_at_o3(self):
        program = simple_loop_program(body_insns=10)
        # Inject a stall-heavy pattern so scheduling has something to do.
        body = program.functions["main"].blocks["body"]
        body.instructions.insert(
            0, Instruction(opcode=Opcode.LOAD, expr="ld0", region="data", stride=4)
        )
        body.instructions.insert(
            1, Instruction(opcode=Opcode.ADD, expr="use0", deps=((1, "load"),))
        )
        stats = PassStats()
        ScheduleInsnsPass().apply(program, o3_setting(), stats)
        assert stats["schedule.ran"] == 1
        assert stats["schedule.blocks_scheduled"] >= 1

    def test_interblock_disabled_keeps_blocks(self):
        program = simple_loop_program(body_insns=6)
        setting = o3_setting().with_values(fno_sched_interblock=True)
        ScheduleInsnsPass().apply(program, setting, PassStats())
        assert "body" in program.functions["main"].blocks

    def test_interblock_enabled_merges(self):
        program = simple_loop_program(body_insns=6)
        ScheduleInsnsPass().apply(program, o3_setting(), PassStats())
        assert "body" not in program.functions["main"].blocks
