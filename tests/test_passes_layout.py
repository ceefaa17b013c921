"""Tests for the layout passes: jump threading, cross-jumping, sibling
calls, peephole, block reordering and alignment."""

import pytest

from repro.compiler.flags import o3_setting
from repro.compiler.ir import (
    BasicBlock,
    DataRegion,
    Function,
    Instruction,
    Opcode,
    Program,
    TAG_JUMP_CHAIN,
    TAG_MERGEABLE_TAIL,
    TAG_PEEPHOLE,
    TAG_SIBLING,
)
from repro.compiler.passes.align import AlignPass
from repro.compiler.passes.base import PassStats
from repro.compiler.passes.jumps import CrossJumpPass, ThreadJumpsPass
from repro.compiler.passes.misc import PeepholePass, SiblingCallPass
from repro.compiler.passes.reorder import ReorderBlocksPass
from tests.conftest import simple_loop_program


def _program(blocks, layout, functions_extra=None) -> Program:
    function = Function(
        name="main", blocks=blocks, layout=layout, loops=[], entry_count=1.0
    )
    functions = {"main": function}
    if functions_extra:
        functions.update(functions_extra)
    return Program(
        name="t",
        functions=functions,
        entry="main",
        regions={"stack": DataRegion("stack", 4096, "stack")},
    )


class TestThreadJumps:
    def _trampoline_program(self):
        blocks = {
            "a": BasicBlock(
                "a",
                [Instruction(opcode=Opcode.ADD, expr="x")],
                successors=["t"],
                exec_count=100.0,
            ),
            "t": BasicBlock(
                "t",
                [Instruction(opcode=Opcode.JMP, tags=frozenset({TAG_JUMP_CHAIN}))],
                successors=["b"],
                exec_count=100.0,
                taken_prob=1.0,
            ),
            "b": BasicBlock(
                "b", [Instruction(opcode=Opcode.RET)], exec_count=100.0
            ),
        }
        return _program(blocks, ["a", "t", "b"])

    def test_trampoline_removed_and_retargeted(self):
        program = self._trampoline_program()
        stats = PassStats()
        ThreadJumpsPass().apply(program, o3_setting(), stats)
        assert stats["thread_jumps.removed"] == 1
        function = program.functions["main"]
        assert "t" not in function.blocks
        assert function.blocks["a"].successors == ["b"]

    def test_untagged_jumps_kept(self):
        program = self._trampoline_program()
        trampoline = program.functions["main"].blocks["t"]
        trampoline.instructions[0] = trampoline.instructions[0].replace(
            tags=frozenset()
        )
        ThreadJumpsPass().apply(program, o3_setting(), PassStats())
        assert "t" in program.functions["main"].blocks

    def test_gated_by_flag(self):
        program = self._trampoline_program()
        ThreadJumpsPass().apply(
            program, o3_setting().with_values(fthread_jumps=False), PassStats()
        )
        assert "t" in program.functions["main"].blocks


class TestCrossJump:
    def _tail_program(self):
        def tail(label, count):
            return BasicBlock(
                label,
                [
                    Instruction(
                        opcode=Opcode.ADD,
                        expr="tail:g0",
                        tags=frozenset({TAG_MERGEABLE_TAIL}),
                    )
                    for _ in range(4)
                ],
                successors=["join"],
                exec_count=count,
            )

        blocks = {
            "top": BasicBlock(
                "top",
                [Instruction(opcode=Opcode.CMP), Instruction(opcode=Opcode.BR)],
                successors=["ta", "tb"],
                exec_count=100.0,
                taken_prob=0.7,
            ),
            "ta": tail("ta", 30.0),
            "tb": tail("tb", 70.0),
            "join": BasicBlock(
                "join", [Instruction(opcode=Opcode.RET)], exec_count=100.0
            ),
        }
        return _program(blocks, ["top", "ta", "tb", "join"])

    def test_merges_duplicate_tails(self):
        program = self._tail_program()
        stats = PassStats()
        CrossJumpPass().apply(program, o3_setting(), stats)
        assert stats["crossjump.blocks_merged"] == 1
        function = program.functions["main"]
        # The hotter copy survives.
        assert "tb" in function.blocks
        assert "ta" not in function.blocks

    def test_execution_count_transferred(self):
        program = self._tail_program()
        CrossJumpPass().apply(program, o3_setting(), PassStats())
        assert program.functions["main"].blocks["tb"].exec_count == pytest.approx(
            100.0
        )

    def test_predecessors_retargeted(self):
        program = self._tail_program()
        CrossJumpPass().apply(program, o3_setting(), PassStats())
        top = program.functions["main"].blocks["top"]
        assert top.successors == ["tb", "tb"]

    def test_static_code_shrinks(self):
        program = self._tail_program()
        before = program.size_insns
        CrossJumpPass().apply(program, o3_setting(), PassStats())
        assert program.size_insns == before - 4

    def test_group_size_gate_without_expensive_opts(self):
        program = self._tail_program()
        setting = o3_setting().with_values(fexpensive_optimizations=False)
        CrossJumpPass().apply(program, setting, PassStats())
        # Two copies < min group of 3 without expensive optimizations.
        assert "ta" in program.functions["main"].blocks

    def test_gated_by_flag(self):
        program = self._tail_program()
        CrossJumpPass().apply(
            program, o3_setting().with_values(fcrossjumping=False), PassStats()
        )
        assert "ta" in program.functions["main"].blocks


class TestSiblingCalls:
    def _callee(self):
        block = BasicBlock(
            "leaf.body",
            [Instruction(opcode=Opcode.ADD, expr="x"), Instruction(opcode=Opcode.RET)],
        )
        return Function(
            name="leaf",
            blocks={"leaf.body": block},
            layout=["leaf.body"],
            inline_candidate=True,
        )

    def _caller_program(self):
        blocks = {
            "entry": BasicBlock(
                "entry",
                [
                    Instruction(opcode=Opcode.ADD, expr="a"),
                    Instruction(
                        opcode=Opcode.CALL,
                        callee="leaf",
                        tags=frozenset({TAG_SIBLING}),
                    ),
                    Instruction(opcode=Opcode.RET),
                ],
                exec_count=50.0,
            )
        }
        return _program(blocks, ["entry"], {"leaf": self._callee()})

    def test_tail_call_converted(self):
        program = self._caller_program()
        stats = PassStats()
        SiblingCallPass().apply(program, o3_setting(), stats)
        assert stats["sibcall.converted"] == 1
        entry = program.functions["main"].blocks["entry"]
        assert entry.instructions[-1].opcode is Opcode.JMP
        assert all(insn.opcode is not Opcode.RET for insn in entry.instructions)

    def test_untagged_call_untouched(self):
        program = self._caller_program()
        entry = program.functions["main"].blocks["entry"]
        entry.instructions[1] = entry.instructions[1].replace(tags=frozenset())
        SiblingCallPass().apply(program, o3_setting(), PassStats())
        assert entry.instructions[1].opcode is Opcode.CALL

    def test_gated_by_flag(self):
        program = self._caller_program()
        SiblingCallPass().apply(
            program,
            o3_setting().with_values(foptimize_sibling_calls=False),
            PassStats(),
        )
        entry = program.functions["main"].blocks["entry"]
        assert entry.instructions[1].opcode is Opcode.CALL


class TestPeephole:
    def test_removes_tagged_movs(self):
        blocks = {
            "a": BasicBlock(
                "a",
                [
                    Instruction(
                        opcode=Opcode.MOV, expr="m", tags=frozenset({TAG_PEEPHOLE})
                    ),
                    Instruction(opcode=Opcode.ADD, expr="x"),
                ],
            )
        }
        program = _program(blocks, ["a"])
        stats = PassStats()
        PeepholePass().apply(program, o3_setting(), stats)
        assert stats["peephole.removed"] == 1

    def test_gated_by_flag(self):
        blocks = {
            "a": BasicBlock(
                "a",
                [Instruction(opcode=Opcode.MOV, tags=frozenset({TAG_PEEPHOLE}))],
            )
        }
        program = _program(blocks, ["a"])
        PeepholePass().apply(
            program, o3_setting().with_values(fpeephole2=False), PassStats()
        )
        assert len(program.functions["main"].blocks["a"].instructions) == 1


class TestReorderBlocks:
    def _branchy_program(self):
        """top's taken edge (90%) goes to 'hot'; layout puts 'cold' first."""
        blocks = {
            "top": BasicBlock(
                "top",
                [Instruction(opcode=Opcode.CMP), Instruction(opcode=Opcode.BR)],
                successors=["cold", "hot"],
                exec_count=100.0,
                taken_prob=0.9,
            ),
            "cold": BasicBlock(
                "cold",
                [Instruction(opcode=Opcode.ADD, expr="c"), Instruction(opcode=Opcode.JMP)],
                successors=["join"],
                exec_count=10.0,
                taken_prob=1.0,
            ),
            "hot": BasicBlock(
                "hot",
                [Instruction(opcode=Opcode.ADD, expr="h")],
                successors=["join"],
                exec_count=90.0,
            ),
            "join": BasicBlock(
                "join", [Instruction(opcode=Opcode.RET)], exec_count=100.0
            ),
        }
        return _program(blocks, ["top", "cold", "hot", "join"])

    def test_hot_successor_becomes_fallthrough(self):
        program = self._branchy_program()
        stats = PassStats()
        ReorderBlocksPass().apply(program, o3_setting(), stats)
        layout = program.functions["main"].layout
        assert layout.index("hot") == layout.index("top") + 1
        top = program.functions["main"].blocks["top"]
        # Polarity flipped: the hot edge is now the fall-through.
        assert top.taken_prob == pytest.approx(0.1)

    def test_dynamic_taken_weight_reduced(self):
        program = self._branchy_program()

        def taken_weight(prog):
            total = 0.0
            for block in prog.functions["main"].blocks.values():
                if block.terminator is not None:
                    total += block.exec_count * block.taken_prob
            return total

        before = taken_weight(program)
        ReorderBlocksPass().apply(program, o3_setting(), PassStats())
        assert taken_weight(program) < before

    def test_gated_by_flag(self):
        program = self._branchy_program()
        before = list(program.functions["main"].layout)
        ReorderBlocksPass().apply(
            program, o3_setting().with_values(freorder_blocks=False), PassStats()
        )
        assert program.functions["main"].layout == before

    def test_all_blocks_preserved(self):
        program = self._branchy_program()
        before = set(program.functions["main"].blocks)
        ReorderBlocksPass().apply(program, o3_setting(), PassStats())
        assert set(program.functions["main"].blocks) == before

    def test_reorder_keeps_program_valid(self):
        program = self._branchy_program()
        ReorderBlocksPass().apply(program, o3_setting(), PassStats())
        program.validate()

    def test_cold_code_pushed_out_of_loop_span(self):
        program = simple_loop_program()
        function = program.functions["main"]
        # Insert a never-executed block inside the loop span.
        cold = BasicBlock(
            "colds",
            [Instruction(opcode=Opcode.ADD, expr="cold"), Instruction(opcode=Opcode.JMP)],
            successors=["exit"],
            exec_count=0.0,
            taken_prob=1.0,
        )
        function.blocks["colds"] = cold
        function.layout.insert(function.layout.index("body"), "colds")
        ReorderBlocksPass().apply(program, o3_setting(), PassStats())
        layout = function.layout
        loop_positions = [layout.index(label) for label in ("hdr", "body", "latch")]
        assert layout.index("colds") > max(loop_positions)


class TestAlign:
    def test_loop_headers_aligned(self):
        program = simple_loop_program()
        stats = PassStats()
        AlignPass().apply(program, o3_setting(), stats)
        assert program.functions["main"].blocks["hdr"].aligned

    def test_function_entry_aligned(self):
        program = simple_loop_program()
        AlignPass().apply(program, o3_setting(), PassStats())
        assert program.functions["main"].blocks["entry"].aligned

    def test_labels_align_everything(self):
        program = simple_loop_program()
        AlignPass().apply(program, o3_setting(), PassStats())
        assert all(
            block.aligned for block in program.functions["main"].blocks.values()
        )

    def test_padding_costs_code_bytes(self):
        program = simple_loop_program()
        before = program.size_bytes
        stats = PassStats()
        AlignPass().apply(program, o3_setting(), stats)
        assert program.size_bytes == before + stats["align.pad_bytes"]

    def test_all_flags_off_is_noop(self):
        program = simple_loop_program()
        setting = o3_setting().with_values(
            falign_functions=False,
            falign_jumps=False,
            falign_loops=False,
            falign_labels=False,
        )
        before = program.size_bytes
        AlignPass().apply(program, setting, PassStats())
        assert program.size_bytes == before
        assert not any(
            block.aligned for block in program.functions["main"].blocks.values()
        )

    def test_jump_targets_aligned_when_only_jumps_set(self):
        program = simple_loop_program()
        setting = o3_setting().with_values(
            falign_functions=False,
            falign_jumps=True,
            falign_loops=False,
            falign_labels=False,
        )
        AlignPass().apply(program, setting, PassStats())
        blocks = program.functions["main"].blocks
        # 'hdr' is the taken target of the latch branch.
        assert blocks["hdr"].aligned
        assert not blocks["body"].aligned
