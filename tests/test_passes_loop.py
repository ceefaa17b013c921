"""Tests for loop optimisations: invariant motion, unswitching, strength
reduction."""

import pytest

from repro.compiler.flags import o3_setting
from repro.compiler.ir import (
    BasicBlock,
    DataRegion,
    Function,
    Instruction,
    Loop,
    Opcode,
    Program,
    TAG_INDUCTION,
    TAG_INVARIANT,
)
from repro.compiler.passes.base import PassStats
from repro.compiler.passes.loopopt import (
    LoopInvariantMotionPass,
    RerunLoopOptPass,
    StrengthReducePass,
    UnswitchLoopsPass,
)
from tests.conftest import simple_loop_program


def _guarded_loop_program() -> Program:
    """Loop whose body tests an invariant condition (unswitch candidate)."""
    pre = BasicBlock(
        "pre",
        [Instruction(opcode=Opcode.MOV, expr="p")],
        successors=["hdr"],
        exec_count=2.0,
    )
    hdr = BasicBlock(
        "hdr",
        [
            Instruction(opcode=Opcode.ADD, expr="h"),
            Instruction(opcode=Opcode.CMP, expr="g"),
            Instruction(opcode=Opcode.BR),
        ],
        successors=["guarded", "latch"],
        exec_count=100.0,
        taken_prob=0.1,
        invariant_branch=True,
        is_loop_header=True,
    )
    guarded = BasicBlock(
        "guarded",
        [Instruction(opcode=Opcode.ADD, expr="gb")],
        successors=["latch"],
        exec_count=90.0,
    )
    latch = BasicBlock(
        "latch",
        [Instruction(opcode=Opcode.CMP, expr="l"), Instruction(opcode=Opcode.BR)],
        successors=["exit", "hdr"],
        exec_count=100.0,
        taken_prob=0.98,
    )
    exit_block = BasicBlock(
        "exit", [Instruction(opcode=Opcode.RET)], exec_count=2.0
    )
    function = Function(
        name="main",
        blocks={
            "pre": pre,
            "hdr": hdr,
            "guarded": guarded,
            "latch": latch,
            "exit": exit_block,
        },
        layout=["pre", "hdr", "guarded", "latch", "exit"],
        loops=[
            Loop(
                header="hdr",
                blocks=["hdr", "guarded", "latch"],
                trip_count=50.0,
                entries=2.0,
            )
        ],
        entry_count=1.0,
    )
    program = Program(
        name="guarded",
        functions={"main": function},
        entry="main",
        regions={"stack": DataRegion("stack", 4096, "stack")},
    )
    program.validate()
    return program


class TestInvariantMotion:
    def _invariant_program(self, chain: int) -> Program:
        program = simple_loop_program()
        body = program.functions["main"].blocks["body"]
        body.instructions.insert(
            0,
            Instruction(
                opcode=Opcode.ADD,
                expr="inv",
                tags=frozenset({TAG_INVARIANT}),
                chain=chain,
            ),
        )
        return program

    def test_first_sweep_hoists_chain_one(self):
        program = self._invariant_program(chain=1)
        stats = PassStats()
        LoopInvariantMotionPass().apply(program, o3_setting(), stats)
        assert stats["loop.invariants_hoisted"] == 1
        pre = program.functions["main"].blocks["pre"]
        assert any(insn.expr == "inv" for insn in pre.instructions)

    def test_first_sweep_leaves_chain_two(self):
        program = self._invariant_program(chain=2)
        stats = PassStats()
        LoopInvariantMotionPass().apply(program, o3_setting(), stats)
        assert stats["loop.invariants_hoisted"] == 0

    def test_rerun_hoists_chain_two(self):
        program = self._invariant_program(chain=2)
        stats = PassStats()
        RerunLoopOptPass().apply(program, o3_setting(), stats)
        assert stats["loop.invariants_hoisted"] == 1

    def test_rerun_gated_by_flag(self):
        program = self._invariant_program(chain=2)
        stats = PassStats()
        RerunLoopOptPass().apply(
            program, o3_setting().with_values(frerun_loop_opt=False), stats
        )
        assert stats["loop.invariants_hoisted"] == 0

    def test_hoisted_instruction_loses_invariant_tag(self):
        program = self._invariant_program(chain=1)
        LoopInvariantMotionPass().apply(program, o3_setting(), PassStats())
        pre = program.functions["main"].blocks["pre"]
        hoisted = [insn for insn in pre.instructions if insn.expr == "inv"]
        assert hoisted and TAG_INVARIANT not in hoisted[0].tags


class TestUnswitch:
    def test_unswitch_doubles_loop_code(self):
        program = _guarded_loop_program()
        before = program.size_insns
        loop_insns_before = sum(
            len(program.functions["main"].blocks[label].instructions)
            for label in program.functions["main"].loops[0].blocks
        )
        stats = PassStats()
        UnswitchLoopsPass().apply(program, o3_setting(), stats)
        assert stats["unswitch.loops"] == 1
        growth = program.size_insns - before
        # The whole body was cloned (minus the removed branch, plus the
        # switch test and branch in the preheader).
        assert growth >= loop_insns_before - 2

    def test_unswitch_removes_hot_branch(self):
        program = _guarded_loop_program()
        stats = PassStats()
        UnswitchLoopsPass().apply(program, o3_setting(), stats)
        assert stats["unswitch.branches_removed"] == 1
        hdr = program.functions["main"].blocks["hdr"]
        assert hdr.terminator is None or hdr.terminator.opcode is not Opcode.BR
        assert hdr.taken_prob == 0.0
        assert not hdr.invariant_branch

    def test_clone_blocks_never_execute(self):
        program = _guarded_loop_program()
        UnswitchLoopsPass().apply(program, o3_setting(), PassStats())
        clones = [
            block
            for label, block in program.functions["main"].blocks.items()
            if label.endswith(".us")
        ]
        assert clones
        assert all(block.exec_count == 0.0 for block in clones)

    def test_clones_join_loop_footprint(self):
        program = _guarded_loop_program()
        UnswitchLoopsPass().apply(program, o3_setting(), PassStats())
        loop = program.functions["main"].loops[0]
        assert any(label.endswith(".us") for label in loop.blocks)

    def test_preheader_gains_switch_branch(self):
        program = _guarded_loop_program()
        UnswitchLoopsPass().apply(program, o3_setting(), PassStats())
        pre = program.functions["main"].blocks["pre"]
        assert pre.terminator is not None
        assert pre.terminator.opcode is Opcode.BR
        assert len(pre.successors) == 2

    def test_disabled_flag_is_noop(self):
        program = _guarded_loop_program()
        before = program.size_insns
        UnswitchLoopsPass().apply(
            program, o3_setting().with_values(funswitch_loops=False), PassStats()
        )
        assert program.size_insns == before

    def test_size_guard(self):
        program = _guarded_loop_program()
        guarded = program.functions["main"].blocks["guarded"]
        guarded.instructions = [
            Instruction(opcode=Opcode.ADD, expr=f"big{i}")
            for i in range(UnswitchLoopsPass.MAX_BODY_INSNS + 1)
        ]
        before = program.size_insns
        UnswitchLoopsPass().apply(program, o3_setting(), PassStats())
        assert program.size_insns == before

    def test_validates_after_unswitch(self):
        program = _guarded_loop_program()
        UnswitchLoopsPass().apply(program, o3_setting(), PassStats())
        program.validate()


class TestStrengthReduce:
    def _mul_program(self):
        program = simple_loop_program()
        body = program.functions["main"].blocks["body"]
        body.instructions.insert(
            0,
            Instruction(
                opcode=Opcode.MUL, expr="ind", tags=frozenset({TAG_INDUCTION})
            ),
        )
        body.instructions.insert(
            1,
            Instruction(opcode=Opcode.ADD, expr="use", deps=((1, "mac"),)),
        )
        return program, body

    def test_converts_induction_mul_to_add(self):
        program, body = self._mul_program()
        stats = PassStats()
        StrengthReducePass().apply(program, o3_setting(), stats)
        assert stats["strength_reduce.converted"] == 1
        assert body.instructions[0].opcode is Opcode.ADD
        assert body.instructions[0].latency == 1

    def test_consumer_dep_kind_retagged(self):
        program, body = self._mul_program()
        StrengthReducePass().apply(program, o3_setting(), PassStats())
        assert body.instructions[1].deps == ((1, "alu"),)

    def test_non_induction_mul_untouched(self):
        program = simple_loop_program()
        body = program.functions["main"].blocks["body"]
        body.instructions.insert(0, Instruction(opcode=Opcode.MUL, expr="m"))
        StrengthReducePass().apply(program, o3_setting(), PassStats())
        assert body.instructions[0].opcode is Opcode.MUL

    def test_disabled_flag(self):
        program, body = self._mul_program()
        StrengthReducePass().apply(
            program, o3_setting().with_values(fstrength_reduce=False), PassStats()
        )
        assert body.instructions[0].opcode is Opcode.MUL
