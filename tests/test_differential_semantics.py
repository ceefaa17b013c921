"""Differential semantics-preservation fuzzing.

For randomly *generated* programs (arbitrary :class:`ProgramSpec` points,
not just the MiBench stand-ins) and random points of the 39-dimensional
flag space, the optimised binary's executed observable outputs — which
data regions it reads and writes, how often, and the region declarations
themselves — must match the unoptimised program's, as extracted by
:func:`repro.sim.executor.observable_outputs`.

A second class guards fold evaluation against silently swapping in a
different binary: the :class:`~repro.evalrun.oracle.RuntimeOracle`
verifies the program name and canonical flag setting of every compiled
binary before trusting its simulation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import DEFAULT_SPACE, o3_setting
from repro.compiler.pipeline import Compiler
from repro.evalrun.oracle import OracleError, RuntimeOracle
from repro.programs.generator import build_program
from repro.programs.spec import (
    AccessSpec,
    CalleeSpec,
    LoopSpec,
    ProgramSpec,
    RegionSpec,
)
from repro.sim.executor import observable_outputs

REGION_KINDS = ("stream", "table", "chase")
REGION_SIZES = (256, 4096, 65536, 1 << 20)


def random_spec(seed: int) -> ProgramSpec:
    """An arbitrary but valid program spec, deterministic in ``seed``.

    Covers the structure space the generator understands — loop nests,
    callees, diamonds, every redundancy/pattern rate, all region kinds,
    zero and non-zero strides — so the fuzz walks pass interactions the
    hand-written MiBench specs never exercise.
    """
    rng = random.Random(seed)
    regions = tuple(
        RegionSpec(
            name=f"r{index}",
            size_bytes=rng.choice(REGION_SIZES),
            kind=rng.choice(REGION_KINDS),
        )
        for index in range(rng.randint(1, 3))
    )
    callees = []
    if rng.random() < 0.6:
        callees.append(
            CalleeSpec(name="leaf", body_insns=rng.randint(6, 24))
        )
    if len(callees) == 1 and rng.random() < 0.3:
        callees.append(
            CalleeSpec(
                name="tail", body_insns=rng.randint(4, 12),
                sibling_target="leaf",
            )
        )

    def accesses() -> tuple[AccessSpec, ...]:
        picked = rng.sample(list(regions), rng.randint(1, len(regions)))
        return tuple(
            AccessSpec(
                region=region.name,
                loads_per_iter=rng.randint(0, 2),
                stores_per_iter=rng.randint(0, 1),
                stride=rng.choice([0, 4, 8, 16]),
            )
            for region in picked
        )

    def loop(name: str, allow_inner: bool) -> LoopSpec:
        inner = (
            loop(f"{name}i", False)
            if allow_inner and rng.random() < 0.5
            else None
        )
        return LoopSpec(
            name=name,
            trip_count=rng.choice([4.0, 16.0, 64.0, 256.0]),
            dyn_insns=rng.choice([2e4, 1e5, 4e5]),
            body_blocks=rng.randint(1, 3),
            block_insns=rng.randint(6, 16),
            accesses=accesses(),
            calls=tuple(
                callee.name for callee in callees if rng.random() < 0.5
            ),
            inner=inner,
            carried_dep_latency=rng.choice([0, 0, 0, 3]),
            ilp=rng.uniform(1.0, 4.0),
            diamonds=rng.randint(0, 2),
            invariant_branch=rng.random() < 0.3,
            redundancy_local=rng.uniform(0.0, 0.2),
            redundancy_global=rng.uniform(0.0, 0.15),
            partial_redundancy=rng.uniform(0.0, 0.1),
            range_check_rate=rng.uniform(0.0, 0.1),
            invariant_alu_rate=rng.uniform(0.0, 0.15),
            invariant_load_rate=rng.uniform(0.0, 0.1),
            invariant_store_rate=rng.uniform(0.0, 0.1),
            after_store_rate=rng.uniform(0.0, 0.2),
            induction_rate=rng.uniform(0.0, 0.1),
            peephole_rate=rng.uniform(0.0, 0.1),
        )

    return ProgramSpec(
        name=f"fuzz{seed}",
        seed=seed,
        loops=tuple(
            loop(f"L{index}", True) for index in range(rng.randint(1, 2))
        ),
        regions=regions,
        callees=tuple(callees),
        mergeable_tails=((2, 8),) if rng.random() < 0.4 else (),
        jump_chains=rng.randint(0, 2),
    )


def _setting_from_seed(seed: int):
    return DEFAULT_SPACE.sample_many(1, seed=seed)[0]


class TestDifferentialSemantics:
    """Optimised execution == unoptimised execution, observably."""

    @given(
        program_seed=st.integers(min_value=0, max_value=2_000),
        setting_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_observables_preserved(self, program_seed, setting_seed):
        program = build_program(random_spec(program_seed))
        baseline = observable_outputs(program)
        setting = _setting_from_seed(setting_seed)
        binary = Compiler(cache=False).compile(program, setting)
        optimised = observable_outputs(binary)

        # The sets of regions read and written are exact program
        # semantics: no pass may add or remove a region's traffic.
        assert optimised["reads"] == baseline["reads"]
        assert optimised["writes"] == baseline["writes"]
        # Data is never reshaped, only code.
        assert optimised["regions"] == baseline["regions"]
        # Elimination and motion may only reduce dynamic traffic
        # (spill code added by register allocation targets the stack
        # region, which observable_outputs excludes as machine state).
        for region, count in optimised["read_counts"].items():
            assert count <= baseline["read_counts"][region] * (1 + 1e-9)
            assert count > 0.0
        for region, count in optimised["write_counts"].items():
            assert count <= baseline["write_counts"][region] * (1 + 1e-9)
            assert count > 0.0

    @given(program_seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=25, deadline=None)
    def test_o3_observables_preserved(self, program_seed):
        """The profiling configuration (-O3) preserves semantics too."""
        program = build_program(random_spec(program_seed))
        baseline = observable_outputs(program)
        binary = Compiler(cache=False).compile(program, o3_setting())
        optimised = observable_outputs(binary)
        assert optimised["reads"] == baseline["reads"]
        assert optimised["writes"] == baseline["writes"]
        assert optimised["regions"] == baseline["regions"]

    @given(program_seed=st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=15, deadline=None)
    def test_generated_programs_are_deterministic(self, program_seed):
        """Same spec, same program: the fuzz base line is reproducible."""
        one = build_program(random_spec(program_seed))
        two = build_program(random_spec(program_seed))
        assert observable_outputs(one) == observable_outputs(two)
        assert one.size_bytes == two.size_bytes
        assert one.dynamic_insns == pytest.approx(two.dynamic_insns)


class _SwappingCompiler(Compiler):
    """A sabotaged compiler that returns a binary for the wrong request."""

    def __init__(self, wrong_program=None, wrong_setting=None):
        super().__init__(cache=False)
        self.wrong_program = wrong_program
        self.wrong_setting = wrong_setting

    def compile_many(self, program, settings):
        if self.wrong_program is not None:
            return super().compile_many(self.wrong_program, settings)
        return super().compile_many(program, [self.wrong_setting] * len(settings))


class TestNoSilentBinarySwap:
    """Fold evaluation must reject a binary it did not ask for."""

    def test_oracle_accepts_the_right_binary(self, tiny_data):
        oracle = RuntimeOracle(
            tiny_data.training, tiny_data.programs, compiler=Compiler()
        )
        machine = tiny_data.training.machines[0]
        program = tiny_data.training.program_names[0]
        setting = o3_setting().with_values(funroll_loops=True)
        assert oracle.runtime(program, setting, machine) > 0.0

    def test_oracle_rejects_wrong_program_binary(self, tiny_data):
        wrong = tiny_data.programs[1]
        oracle = RuntimeOracle(
            tiny_data.training,
            tiny_data.programs,
            compiler=_SwappingCompiler(wrong_program=wrong),
        )
        machine = tiny_data.training.machines[0]
        program = tiny_data.training.program_names[0]
        setting = o3_setting().with_values(funroll_loops=True)
        with pytest.raises(OracleError, match="binary swap"):
            oracle.runtime(program, setting, machine)

    def test_oracle_rejects_wrong_setting_binary(self, tiny_data):
        oracle = RuntimeOracle(
            tiny_data.training,
            tiny_data.programs,
            compiler=_SwappingCompiler(wrong_setting=o3_setting()),
        )
        machine = tiny_data.training.machines[0]
        program = tiny_data.training.program_names[0]
        setting = o3_setting().with_values(funroll_loops=True)
        with pytest.raises(OracleError, match="binary swap"):
            oracle.runtime(program, setting, machine)

    def test_in_grid_lookups_never_compile_at_all(self, tiny_data):
        """Grid settings come straight from the store; a sabotaged
        compiler is never consulted, so checkpointed results cannot be
        poisoned by a bad compile path."""
        oracle = RuntimeOracle(
            tiny_data.training,
            tiny_data.programs,
            compiler=_SwappingCompiler(wrong_program=tiny_data.programs[1]),
        )
        machine = tiny_data.training.machines[2]
        program = tiny_data.training.program_names[0]
        grid_setting = tiny_data.training.settings[5]
        expected = float(tiny_data.training.runtimes[0, 5, 2])
        assert oracle.runtime(program, grid_setting, machine) == expected
        assert oracle.simulation_calls == 0
        assert oracle.store_hits == 1
