"""Integration tests: the paper's qualitative stories must hold end-to-end.

Each test reproduces one claim from the paper's narrative using the public
API only — these are the invariants EXPERIMENTS.md reports at full scale.
"""

import pytest

from repro.api import Session
from repro.compiler import Compiler, o3_setting
from repro.machine import MicroArchSpace, xscale, xscale_small_icache
from repro.programs import mibench_program
from repro.search.evaluator import Pricer
from repro.sim import simulate_analytic


@pytest.fixture(scope="module")
def shared_compiler():
    return Compiler()


def _speedup(compiler, name, machine, **overrides):
    program = mibench_program(name)
    baseline = simulate_analytic(
        compiler.compile(program, o3_setting()), machine
    ).seconds
    tuned = simulate_analytic(
        compiler.compile(program, o3_setting().with_values(**overrides)), machine
    ).seconds
    return baseline / tuned


class TestRijndaelStory:
    """§5.2: rijndael_e peaks on a small-instruction-cache machine once the
    code-bloating -O3 passes are disabled; unrolling plays no role because
    the source is already unrolled."""

    MINIMAL = dict(
        finline_functions=False,
        fschedule_insns=False,
        funswitch_loops=False,
        falign_functions=False,
        falign_jumps=False,
        falign_loops=False,
        falign_labels=False,
    )

    def test_big_win_on_small_icache(self, shared_compiler):
        speedup = _speedup(
            shared_compiler, "rijndael_e", xscale_small_icache(), **self.MINIMAL
        )
        assert speedup > 2.0

    def test_no_win_on_big_icache(self, shared_compiler):
        speedup = _speedup(shared_compiler, "rijndael_e", xscale(), **self.MINIMAL)
        assert 0.9 < speedup < 1.2

    def test_unrolling_is_futile(self, shared_compiler):
        # "No loop unrolling is performed because there is already
        # extensive, optimised software loop unrolling programmed into the
        # source code."
        program = mibench_program("rijndael_e")
        unrolled = shared_compiler.compile(
            program,
            o3_setting().with_values(
                funroll_loops=True, param_max_unrolled_insns=400
            ),
        )
        assert unrolled.stats["unroll.loops"] == 0

    def test_o3_footprint_exceeds_small_cache(self, shared_compiler):
        program = mibench_program("rijndael_e")
        binary = shared_compiler.compile(program, o3_setting())
        hot_loop_span = max(loop.code_bytes for loop in binary.loops)
        assert hot_loop_span > 4096  # overflows the 4K I-cache


class TestCrcStory:
    """§5.3: crc's helper keeps a pointer in memory; only inlining with a
    larger-than-default budget turns that traffic into register moves."""

    def test_default_budget_does_not_inline(self, shared_compiler):
        binary = shared_compiler.compile(mibench_program("crc"), o3_setting())
        assert binary.stats["inline.sites"] == 0

    def test_large_budget_inlines_and_wins(self, shared_compiler):
        speedup = _speedup(
            shared_compiler,
            "crc",
            xscale(),
            param_max_inline_insns_auto=360,
        )
        assert speedup > 1.1

    def test_inlining_removes_memory_traffic(self, shared_compiler):
        program = mibench_program("crc")
        default = shared_compiler.compile(program, o3_setting())
        inlined = shared_compiler.compile(
            program, o3_setting().with_values(param_max_inline_insns_auto=360)
        )
        assert inlined.dyn_memory < default.dyn_memory
        assert inlined.dyn_calls < default.dyn_calls


class TestSearchStory:
    """Figure 8: for search, the unrolling family is the dominant lever."""

    def test_unroll_gives_big_win(self, shared_compiler):
        speedup = _speedup(
            shared_compiler, "search", xscale(), funroll_loops=True,
            param_max_unroll_times=16,
        )
        assert speedup > 1.3

    def test_unroll_needs_budget(self, shared_compiler):
        generous = _speedup(
            shared_compiler,
            "search",
            xscale(),
            funroll_loops=True,
            param_max_unroll_times=16,
            param_max_unrolled_insns=400,
        )
        stingy = _speedup(
            shared_compiler,
            "search",
            xscale(),
            funroll_loops=True,
            param_max_unroll_times=2,
            param_max_unrolled_insns=50,
        )
        assert generous > stingy


class TestSchedulingSpillStory:
    """§5.4: scheduling's register pressure emits spill code; on small
    instruction caches the extra code size can make it a net loss."""

    def test_scheduling_adds_spill_traffic(self, shared_compiler):
        program = mibench_program("madplay")
        scheduled = shared_compiler.compile(program, o3_setting())
        unscheduled = shared_compiler.compile(
            program, o3_setting().with_values(fschedule_insns=False)
        )
        assert scheduled.spill_dyn >= unscheduled.spill_dyn

    def test_scheduling_helps_on_reference_machine(self, shared_compiler):
        # On the roomy 32K XScale, scheduling is a clear win.
        speedup = _speedup(
            shared_compiler, "madplay", xscale(), fschedule_insns=False
        )
        assert speedup < 1.0  # disabling it loses performance


class TestSerialProgramsStory:
    """Figure 4's flat left end: library-bound and serial kernels have
    little headroom no matter what the compiler does."""

    @pytest.mark.parametrize("name", ["qsort", "rawcaudio", "basicmath"])
    def test_flat_programs_insensitive(self, shared_compiler, name):
        program = mibench_program(name)
        baseline = simulate_analytic(
            shared_compiler.compile(program, o3_setting()), xscale()
        ).seconds
        variants = [
            o3_setting().with_values(funroll_loops=True),
            o3_setting().with_values(fschedule_insns=False),
            o3_setting().with_values(finline_functions=False),
        ]
        for setting in variants:
            tuned = simulate_analytic(
                shared_compiler.compile(program, setting), xscale()
            ).seconds
            assert 0.7 < baseline / tuned < 1.3


class TestSimulateConvenience:
    """One compile-and-run, through the session or a pricer directly."""

    def test_simulate_accepts_program(self):
        session = Session("tiny", use_disk_cache=False)
        result = session.eval.evaluate(mibench_program("sha"), xscale())
        assert result.cycles > 0
        assert result.setting == o3_setting().canonical()

    def test_simulate_accepts_binary(self, shared_compiler):
        program = mibench_program("sha")
        (result,) = Pricer(program, shared_compiler).price([o3_setting()], [xscale()])
        binary = shared_compiler.compile(program, o3_setting())
        assert result.cycles > 0
        assert result.cycles == simulate_analytic(binary, xscale()).cycles

    def test_simulate_with_custom_setting(self):
        session = Session("tiny", use_disk_cache=False)
        default = session.eval.evaluate("search", xscale())
        unrolled = session.eval.evaluate(
            "search",
            xscale(),
            setting=o3_setting().with_values(funroll_loops=True),
        )
        assert unrolled.runtime != default.runtime


class TestDesignSpaceBreadth:
    """The sampled space must exercise the model's feature axes."""

    def test_icache_axis_changes_ranking(self, shared_compiler):
        # The best of two settings flips between machines: the crux of the
        # paper's portability argument.  Compare O3 against O3 minus its
        # code-growing passes (scheduling left on in both, since its
        # stall-vs-spill trade-off is machine-independent for this program).
        program = mibench_program("rijndael_e")
        aggressive = shared_compiler.compile(program, o3_setting())
        minimal = shared_compiler.compile(
            program,
            o3_setting().with_values(
                finline_functions=False,
                funswitch_loops=False,
                falign_functions=False,
                falign_jumps=False,
                falign_loops=False,
                falign_labels=False,
            ),
        )
        big = xscale()
        small = xscale_small_icache()
        on_big = (
            simulate_analytic(aggressive, big).seconds
            < simulate_analytic(minimal, big).seconds
        )
        on_small = (
            simulate_analytic(aggressive, small).seconds
            < simulate_analytic(minimal, small).seconds
        )
        assert on_big != on_small

    def test_counters_vary_across_machines(self, shared_compiler):
        program = mibench_program("madplay")
        binary = shared_compiler.compile(program, o3_setting())
        machines = MicroArchSpace().sample(8, seed=11)
        ipcs = {
            round(simulate_analytic(binary, machine).counters.ipc, 6)
            for machine in machines
        }
        assert len(ipcs) > 4
