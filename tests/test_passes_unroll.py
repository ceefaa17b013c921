"""Tests for loop unrolling."""

import pytest

from repro.compiler.flags import o3_setting
from repro.compiler.ir import Opcode, TAG_LOCAL_REDUNDANT
from repro.compiler.passes.base import PassStats
from repro.compiler.passes.unroll import UnrollLoopsPass, unroll_factor
from tests.conftest import simple_loop_program


def _unroll(program, times=8, max_insns=200):
    setting = o3_setting().with_values(
        funroll_loops=True,
        param_max_unroll_times=times,
        param_max_unrolled_insns=max_insns,
    )
    stats = PassStats()
    UnrollLoopsPass().apply(program, setting, stats)
    return stats


class TestUnrollFactor:
    def test_limited_by_times(self):
        assert unroll_factor(body_insns=10, trip_count=1000, max_times=4, max_insns=400) == 4

    def test_limited_by_size(self):
        assert unroll_factor(body_insns=100, trip_count=1000, max_times=16, max_insns=400) == 4

    def test_limited_by_trip_count(self):
        assert unroll_factor(body_insns=4, trip_count=3, max_times=16, max_insns=400) == 3

    def test_hand_unrolled_body_collapses_to_one(self):
        # The rijndael case: a body bigger than max-unrolled-insns.
        assert unroll_factor(body_insns=600, trip_count=64, max_times=8, max_insns=400) == 1

    def test_degenerate_body(self):
        assert unroll_factor(body_insns=0, trip_count=10, max_times=8, max_insns=400) == 1


class TestUnrollTransformation:
    def test_unroll_happens_with_flag(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        stats = _unroll(program, times=4)
        assert stats["unroll.loops"] == 1
        assert stats["unroll.factor_total"] == 4

    def test_disabled_without_flag(self):
        program = simple_loop_program()
        stats = PassStats()
        UnrollLoopsPass().apply(program, o3_setting(), stats)
        assert stats["unroll.loops"] == 0

    def test_static_code_grows_by_factor(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        loop = program.functions["main"].loops[0]
        body_before = sum(
            len(program.functions["main"].blocks[label].instructions)
            for label in loop.blocks
        )
        total_before = program.size_insns
        _unroll(program, times=4)
        grown = program.size_insns - total_before
        # factor 4: three extra copies, minus the three deleted exit tests.
        assert grown == 3 * body_before - 3

    def test_dynamic_work_is_preserved(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        dyn_before = program.dynamic_insns
        _unroll(program, times=4)
        # Branch removal reduces dynamic count slightly; everything else is
        # redistributed, not duplicated.
        assert program.dynamic_insns <= dyn_before
        assert program.dynamic_insns >= 0.9 * dyn_before

    def test_single_backedge_survives(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        _unroll(program, times=4)
        function = program.functions["main"]
        loop = function.loops[0]
        backedges = [
            label
            for label in loop.blocks
            if loop.header in function.blocks[label].successors
        ]
        assert len(backedges) == 1

    def test_intermediate_latches_fall_through(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        stats = _unroll(program, times=4)
        assert stats["unroll.branches_removed"] == 3
        function = program.functions["main"]
        # The original latch now falls straight into copy 1.
        latch = function.blocks["latch"]
        assert latch.terminator is None
        assert latch.successors == ["hdr.u1"]

    def test_trip_count_divided(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        _unroll(program, times=4)
        assert program.functions["main"].loops[0].trip_count == pytest.approx(25.0)

    def test_exec_counts_divided(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0, entries=10.0)
        _unroll(program, times=4)
        header = program.functions["main"].blocks["hdr"]
        assert header.exec_count == pytest.approx(250.0)

    def test_copies_join_loop_blocks(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        _unroll(program, times=4)
        loop = program.functions["main"].loops[0]
        assert len(loop.blocks) == 3 * 4

    def test_control_clones_marked_redundant(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        _unroll(program, times=2)
        function = program.functions["main"]
        clone_header = function.blocks["hdr.u1"]
        assert any(
            TAG_LOCAL_REDUNDANT in insn.tags for insn in clone_header.instructions
        )

    def test_carried_dependence_serialises_copies(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        program.functions["main"].loops[0].carried_dep_latency = 3
        _unroll(program, times=2)
        clone_header = program.functions["main"].blocks["hdr.u1"]
        first = clone_header.instructions[0]
        assert (1, "load") in first.deps

    def test_validates_after_unroll(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        _unroll(program, times=8)
        program.validate()

    def test_layout_keeps_copies_contiguous(self):
        program = simple_loop_program(body_insns=6, trip_count=100.0)
        _unroll(program, times=2)
        layout = program.functions["main"].layout
        start = layout.index("hdr")
        expected = [
            "hdr", "body", "latch",
            "hdr.u1", "body.u1", "latch.u1",
        ]
        assert layout[start : start + 6] == expected

    def test_trip_smaller_than_two_not_unrolled(self):
        program = simple_loop_program(body_insns=6, trip_count=1.0)
        stats = _unroll(program, times=8)
        assert stats["unroll.loops"] == 0
