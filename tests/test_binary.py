"""Tests for binary finalisation (repro.compiler.binary)."""

import pytest

from repro.compiler.binary import finalize
from repro.compiler.flags import o3_setting
from repro.compiler.ir import Instruction, Opcode
from tests.conftest import simple_loop_program


class TestFinalize:
    def test_code_bytes_match_program(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert binary.code_bytes == loop_program.size_bytes

    def test_dynamic_insns_match_profile(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert binary.dyn_insns == pytest.approx(loop_program.dynamic_insns)

    def test_mix_sums_to_dynamic_insns(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert sum(binary.mix.values()) == pytest.approx(binary.dyn_insns)

    def test_branches_counted(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        loop = loop_program.functions["main"].loops[0]
        # latch BR per iteration + final RET.
        assert binary.dyn_branches == pytest.approx(loop.iterations + 10.0, rel=0.01)

    def test_taken_fraction_weighted_by_probability(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        loop = loop_program.functions["main"].loops[0]
        latch = loop_program.functions["main"].blocks["latch"]
        expected_taken = loop.iterations * latch.taken_prob + 10.0  # RET taken
        assert binary.dyn_taken == pytest.approx(expected_taken, rel=0.01)

    def test_branch_sites_static_count(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert binary.branch_sites == 2  # latch BR + exit RET

    def test_loop_summary_structure(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert len(binary.loops) == 1
        summary = binary.loops[0]
        loop = loop_program.functions["main"].loops[0]
        assert summary.iterations == pytest.approx(loop.iterations)
        assert summary.entries == pytest.approx(loop.entries)
        assert summary.header == "hdr"

    def test_loop_span_covers_member_blocks(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        function = loop_program.functions["main"]
        member_bytes = sum(
            function.blocks[label].size_bytes
            for label in function.loops[0].blocks
        )
        assert binary.loops[0].code_bytes == member_bytes

    def test_loop_span_includes_interleaved_cold_code(self):
        program = simple_loop_program()
        function = program.functions["main"]
        from repro.compiler.ir import BasicBlock

        cold = BasicBlock(
            "cold",
            [Instruction(opcode=Opcode.ADD, expr="c") for _ in range(8)],
            successors=["latch"],
            exec_count=0.0,
        )
        function.blocks["cold"] = cold
        function.layout.insert(function.layout.index("latch"), "cold")
        binary = finalize(program, o3_setting())
        member_bytes = sum(
            function.blocks[label].size_bytes
            for label in function.loops[0].blocks
        )
        assert binary.loops[0].code_bytes == member_bytes + cold.size_bytes

    def test_loop_accesses_aggregated(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        accesses = binary.loops[0].accesses
        assert len(accesses) == 1
        access = accesses[0]
        assert access.region == "data"
        assert access.stride == 4
        assert not access.is_store
        loop = loop_program.functions["main"].loops[0]
        assert access.count == pytest.approx(loop.iterations)

    def test_flat_accesses_exclude_loop_blocks(self, loop_program):
        entry = loop_program.functions["main"].blocks["entry"]
        entry.instructions.append(
            Instruction(opcode=Opcode.LOAD, expr="cold", region="data", stride=0)
        )
        binary = finalize(loop_program, o3_setting())
        assert len(binary.flat_accesses) == 1
        assert binary.flat_accesses[0].count == pytest.approx(1.0)

    def test_stall_profile_counts_weighted(self, loop_program):
        body = loop_program.functions["main"].blocks["body"]
        body.instructions[3] = body.instructions[3].replace(deps=((2, "load"),))
        binary = finalize(loop_program, o3_setting())
        loop = loop_program.functions["main"].loops[0]
        assert binary.stall_profile[("load", 2)] == pytest.approx(loop.iterations)

    def test_long_distances_dropped_from_profile(self, loop_program):
        body = loop_program.functions["main"].blocks["body"]
        body.instructions[3] = body.instructions[3].replace(deps=((40, "load"),))
        binary = finalize(loop_program, o3_setting())
        assert ("load", 40) not in binary.stall_profile

    def test_hot_code_bytes_below_total(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert 0 < binary.hot_code_bytes <= binary.code_bytes

    def test_reg_reads_positive(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert binary.reg_reads > binary.dyn_insns  # most ops read >= 1

    def test_describe_mentions_name(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert loop_program.name in binary.describe()

    def test_memory_properties(self, loop_program):
        binary = finalize(loop_program, o3_setting())
        assert binary.dyn_memory == pytest.approx(
            binary.dyn_loads + binary.dyn_stores
        )
        assert binary.dyn_loads > 0
