"""Tests for the compiler pipeline (pass manager + memoisation)."""

import pytest

from repro.compiler.flags import o0_setting, o3_setting
from repro.compiler.pipeline import Compiler, default_pass_order
from repro.programs import mibench_names, mibench_program
from tests.conftest import simple_loop_program


class TestPassOrder:
    def test_schedule_before_regalloc(self):
        names = [type(p).__name__ for p in default_pass_order()]
        assert names.index("ScheduleInsnsPass") < names.index(
            "RegisterAllocationPass"
        )

    def test_after_reload_after_regalloc(self):
        names = [type(p).__name__ for p in default_pass_order()]
        assert names.index("RegisterAllocationPass") < names.index(
            "GcseAfterReloadPass"
        )

    def test_inline_before_loop_passes(self):
        names = [type(p).__name__ for p in default_pass_order()]
        assert names.index("InlineFunctionsPass") < names.index("UnrollLoopsPass")

    def test_rerun_cse_after_unroll(self):
        names = [type(p).__name__ for p in default_pass_order()]
        assert names.index("UnrollLoopsPass") < names.index("RerunCsePass")

    def test_layout_passes_last(self):
        names = [type(p).__name__ for p in default_pass_order()]
        assert names[-2:] == ["ReorderBlocksPass", "AlignPass"]


class TestCompiler:
    def test_source_program_not_mutated(self, compiler, o3):
        program = simple_loop_program()
        before = program.size_insns
        compiler.compile(program, o3)
        assert program.size_insns == before

    def test_deterministic(self, o3):
        program = simple_loop_program()
        one = Compiler(cache=False).compile(program, o3)
        two = Compiler(cache=False).compile(program, o3)
        assert one.code_bytes == two.code_bytes
        assert one.dyn_insns == pytest.approx(two.dyn_insns)
        assert one.stall_profile == two.stall_profile

    def test_cache_hit_returns_same_object(self, compiler, o3):
        program = simple_loop_program()
        assert compiler.compile(program, o3) is compiler.compile(program, o3)

    def test_cache_respects_canonicalisation(self, compiler):
        program = simple_loop_program()
        one = o3_setting().with_values(fgcse=False, fgcse_sm=True)
        two = o3_setting().with_values(fgcse=False, fgcse_sm=False)
        assert compiler.compile(program, one) is compiler.compile(program, two)

    def test_different_settings_different_binaries(self, compiler):
        program = simple_loop_program()
        aggressive = compiler.compile(program, o3_setting())
        minimal = compiler.compile(program, o0_setting())
        assert aggressive.setting != minimal.setting

    def test_elimination_passes_shrink_dynamic_count(self, compiler):
        # With everything else held fixed, disabling the elimination passes
        # must leave more dynamic instructions on a redundancy-rich program.
        program = mibench_program("bf_e")
        full = compiler.compile(program, o3_setting())
        no_elim = compiler.compile(
            program,
            o3_setting().with_values(
                fgcse=False, ftree_pre=False, ftree_vrp=False, fpeephole2=False
            ),
        )
        assert no_elim.dyn_insns > full.dyn_insns

    def test_clear_cache(self, compiler, o3):
        program = simple_loop_program()
        first = compiler.compile(program, o3)
        assert compiler.compile(program, o3) is first
        compiler.clear_cache()
        again = compiler.compile(program, o3)
        assert again is not first
        assert again.code_bytes == first.code_bytes


class TestMiBenchCompilation:
    @pytest.mark.parametrize("name", mibench_names())
    def test_compiles_and_validates_at_o3(self, compiler, name):
        binary = compiler.compile(mibench_program(name), o3_setting())
        assert binary.dyn_insns > 0
        assert binary.code_bytes > 0
        assert binary.loops

    @pytest.mark.parametrize(
        "name", ["rijndael_e", "search", "crc", "qsort", "madplay"]
    )
    def test_compiles_under_varied_settings(self, compiler, name):
        program = mibench_program(name)
        settings = [
            o0_setting(),
            o3_setting().with_values(funroll_loops=True),
            o3_setting().with_values(finline_functions=False),
            o3_setting().with_values(fschedule_insns=False),
            o3_setting().with_values(fgcse_sm=True, fgcse_las=True),
        ]
        for setting in settings:
            binary = compiler.compile(program, setting)
            assert binary.dyn_insns > 0
