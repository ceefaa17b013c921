"""Tests for register allocation and the spill model."""

import pytest

from repro.compiler.flags import o3_setting
from repro.compiler.ir import (
    BasicBlock,
    DataRegion,
    Function,
    Instruction,
    Opcode,
    Program,
    TAG_SPILL,
)
from repro.compiler.passes.base import PassStats
from repro.compiler.regalloc import (
    ALLOCATABLE_REGISTERS,
    MAX_SPILLS_PER_BLOCK,
    RegisterAllocationPass,
)
from repro.compiler.passes.schedule import BASELINE_LIVE


def _high_pressure_block(values: int) -> BasicBlock:
    """``values`` simultaneously-live producers consumed at the end."""
    instructions = [
        Instruction(opcode=Opcode.ADD, expr=f"v{i}") for i in range(values)
    ]
    instructions.append(
        Instruction(
            opcode=Opcode.ADD,
            expr="sum",
            deps=tuple((distance, "alu") for distance in range(1, values + 1)),
        )
    )
    return BasicBlock("hot", instructions, exec_count=100.0)


def _program_with(block: BasicBlock) -> Program:
    function = Function(
        name="main", blocks={block.label: block}, layout=[block.label], entry_count=1.0
    )
    return Program(
        name="t",
        functions={"main": function},
        entry="main",
        regions={},
    )


def _spill_count(block: BasicBlock) -> int:
    return sum(1 for insn in block.instructions if TAG_SPILL in insn.tags)


class TestSpilling:
    def test_low_pressure_no_spills(self):
        block = _high_pressure_block(3)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert _spill_count(block) == 0

    def test_high_pressure_spills(self):
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 3
        block = _high_pressure_block(values)
        program = _program_with(block)
        stats = PassStats()
        RegisterAllocationPass().apply(program, o3_setting(), stats)
        assert stats["regalloc.spilled_values"] > 0
        assert _spill_count(block) == 2 * stats["regalloc.spilled_values"]

    def test_spills_are_store_reload_pairs(self):
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 2
        block = _high_pressure_block(values)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        stores = [
            insn
            for insn in block.instructions
            if TAG_SPILL in insn.tags and insn.opcode is Opcode.STORE
        ]
        reloads = [
            insn
            for insn in block.instructions
            if TAG_SPILL in insn.tags and insn.opcode is Opcode.LOAD
        ]
        assert len(stores) == len(reloads)
        assert {insn.expr for insn in stores} == {insn.expr for insn in reloads}

    def test_spill_cap(self):
        block = _high_pressure_block(40)
        program = _program_with(block)
        stats = PassStats()
        RegisterAllocationPass().apply(program, o3_setting(), stats)
        assert stats["regalloc.spilled_values"] <= MAX_SPILLS_PER_BLOCK

    def test_stack_region_created(self):
        block = _high_pressure_block(3)
        program = _program_with(block)
        assert "stack" not in program.regions
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert program.regions["stack"].kind == "stack"

    def test_spills_reference_stack(self):
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 2
        block = _high_pressure_block(values)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        for insn in block.instructions:
            if TAG_SPILL in insn.tags:
                assert insn.region == "stack"
        program.validate()


class TestAllocationFlags:
    def _marginal_block(self) -> BasicBlock:
        # Pressure exactly one above the register count: fregmove saves it.
        values = ALLOCATABLE_REGISTERS - BASELINE_LIVE + 1
        return _high_pressure_block(values)

    def test_regmove_relieves_one_unit(self):
        block = self._marginal_block()
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert _spill_count(block) == 0  # regmove on at O3

        block = self._marginal_block()
        program = _program_with(block)
        RegisterAllocationPass().apply(
            program, o3_setting().with_values(fregmove=False), PassStats()
        )
        assert _spill_count(block) > 0

    def test_caller_saves_policy_around_calls(self):
        def block_with_call():
            block = self._marginal_block()
            block.instructions.insert(
                0, Instruction(opcode=Opcode.CALL, callee="main")
            )
            return block

        # Without caller-saves: blunt save/restore per call.
        block = block_with_call()
        program = _program_with(block)
        RegisterAllocationPass().apply(
            program,
            o3_setting().with_values(fcaller_saves=False, fregmove=False),
            PassStats(),
        )
        without = _spill_count(block)

        block = block_with_call()
        program = _program_with(block)
        RegisterAllocationPass().apply(
            program,
            o3_setting().with_values(fcaller_saves=True, fregmove=False),
            PassStats(),
        )
        with_flag = _spill_count(block)
        assert with_flag <= without

    def test_empty_blocks_skipped(self):
        block = BasicBlock("empty", [], exec_count=10.0)
        program = _program_with(block)
        RegisterAllocationPass().apply(program, o3_setting(), PassStats())
        assert block.instructions == []
