"""The vector kernel's contract: exact equality with the scalar model.

:func:`repro.sim.vector.simulate_many` must reproduce the seconds and
every Table 1 counter of :func:`repro.sim.analytic.simulate_analytic`
float for float — the two outputs shard builds store — because the
golden fingerprints and the byte-identical protocol guarantees all hash
them.  The hypothesis suite here asserts that pairwise over random
generated programs × random flag settings × random Table 2 machines;
the deterministic tests cover the kernel's call site, the per-pair
pricing paths every other caller takes, and the structural edge cases
(no loops, no accesses, padding across dissimilar binaries).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simple_loop_program
from repro.compiler.flags import DEFAULT_SPACE, o3_setting
from repro.compiler.pipeline import Compiler
from repro.machine.params import BASE_GRID, EXTENDED_GRID, MicroArch, MicroArchSpace
from repro.programs import mibench_program
from repro.sim.analytic import simulate_analytic
from repro.sim.counters import COUNTER_NAMES
from repro.sim.vector import BinarySignature, MachineMatrix, simulate_many

FUZZ_PROGRAMS = ("search", "crc", "qsort", "rawcaudio")

machines_strategy = st.builds(
    MicroArch,
    il1_size=st.sampled_from(BASE_GRID["il1_size"]),
    il1_assoc=st.sampled_from(BASE_GRID["il1_assoc"]),
    il1_block=st.sampled_from(BASE_GRID["il1_block"]),
    dl1_size=st.sampled_from(BASE_GRID["dl1_size"]),
    dl1_assoc=st.sampled_from(BASE_GRID["dl1_assoc"]),
    dl1_block=st.sampled_from(BASE_GRID["dl1_block"]),
    btb_entries=st.sampled_from(BASE_GRID["btb_entries"]),
    btb_assoc=st.sampled_from(BASE_GRID["btb_assoc"]),
    frequency_mhz=st.sampled_from(EXTENDED_GRID["frequency_mhz"]),
    issue_width=st.sampled_from(EXTENDED_GRID["issue_width"]),
)


@st.composite
def binaries_strategy(draw):
    """A compiled binary: synthetic loop program or MiBench, random flags."""
    setting = DEFAULT_SPACE.sample_many(
        1, seed=draw(st.integers(min_value=0, max_value=50_000))
    )[0]
    if draw(st.booleans()):
        program = mibench_program(draw(st.sampled_from(FUZZ_PROGRAMS)))
    else:
        program = simple_loop_program(
            name="fuzz",
            body_insns=draw(st.integers(min_value=1, max_value=64)),
            trip_count=float(draw(st.integers(min_value=1, max_value=2000))),
            entries=float(draw(st.integers(min_value=1, max_value=64))),
            region_size=draw(st.integers(min_value=64, max_value=2**21)),
        )
    return Compiler(cache=False).compile(program, setting)


def kernel_grid(binaries, machines):
    """Signatures plus one kernel pass, as ``compute_shard`` runs it."""
    return simulate_many(
        [BinarySignature.from_binary(binary) for binary in binaries],
        MachineMatrix.from_machines(machines),
    )


def assert_pair_exact(reference, results, s: int, m: int) -> None:
    """One (binary, machine) pair: seconds and counters, bit for bit."""
    assert float(results.seconds[s, m]) == reference.seconds
    assert tuple(results.counters[s, m, :]) == reference.counters.vector()


class TestHypothesisEquivalence:
    @given(
        binary=binaries_strategy(),
        machine=machines_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_single_pair_exact(self, binary, machine):
        results = kernel_grid([binary], [machine])
        assert_pair_exact(simulate_analytic(binary, machine), results, 0, 0)

    @given(
        binaries=st.lists(binaries_strategy(), min_size=2, max_size=4),
        machines=st.lists(
            machines_strategy, min_size=2, max_size=4, unique=True
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_grid_exact(self, binaries, machines):
        """Dissimilar binaries share one padded batch without cross-talk."""
        results = kernel_grid(binaries, machines)
        assert results.shape == (len(binaries), len(machines))
        for s, binary in enumerate(binaries):
            for m, machine in enumerate(machines):
                assert_pair_exact(
                    simulate_analytic(binary, machine), results, s, m
                )

    @given(
        binary=binaries_strategy(),
        machines=st.lists(
            machines_strategy, min_size=1, max_size=6, unique=True
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_batching_is_order_free(self, binary, machines):
        """A pair's value never depends on its batch neighbours."""
        alone = kernel_grid([binary], [machines[0]])
        together = kernel_grid([binary], machines)
        assert float(alone.seconds[0, 0]) == float(together.seconds[0, 0])
        assert np.array_equal(alone.counters[0, 0, :], together.counters[0, 0, :])


class TestStructuralEdges:
    def test_paper_grid_settings_and_machines(self):
        """A realistic shard: several settings × sampled machines, exact."""
        compiler = Compiler()
        program = mibench_program("search")
        settings_list = [o3_setting()] + DEFAULT_SPACE.sample_many(5, seed=9)
        binaries = [compiler.compile(program, s) for s in settings_list]
        machines = MicroArchSpace(extended=True).sample(16, seed=5)
        results = kernel_grid(binaries, machines)
        for s, binary in enumerate(binaries):
            for m, machine in enumerate(machines):
                assert_pair_exact(
                    simulate_analytic(binary, machine), results, s, m
                )

    def test_loopless_binary(self):
        """No loops and no loop accesses: only flat streams and padding."""
        program = simple_loop_program(name="tiny", trip_count=1.0, entries=1.0)
        binary = Compiler(cache=False).compile(program, o3_setting())
        # Pair it with a loopy binary so the padded axes are non-trivial.
        other = Compiler(cache=False).compile(
            mibench_program("madplay"), o3_setting()
        )
        machines = MicroArchSpace().sample(3, seed=1)
        results = kernel_grid([binary, other], machines)
        for s, b in enumerate((binary, other)):
            for m, machine in enumerate(machines):
                assert_pair_exact(simulate_analytic(b, machine), results, s, m)

    def test_machine_matrix_reuse(self):
        """One MachineMatrix serves many simulate_many calls."""
        machines = MicroArchSpace().sample(4, seed=2)
        matrix = MachineMatrix.from_machines(machines)
        binary = Compiler().compile(mibench_program("crc"), o3_setting())
        signature = BinarySignature.from_binary(binary)
        first = simulate_many([signature], matrix)
        second = simulate_many([signature, signature], matrix)
        assert np.array_equal(first.seconds[0], second.seconds[1])

    def test_signature_rejects_unknown_kind(self):
        import dataclasses

        binary = Compiler().compile(mibench_program("crc"), o3_setting())
        bad = dataclasses.replace(
            binary.flat_accesses[0], kind="mystery"
        ) if binary.flat_accesses else None
        if bad is None:
            pytest.skip("no flat accesses on this binary")
        binary.flat_accesses.append(bad)
        with pytest.raises(ValueError, match="unknown region kind"):
            BinarySignature.from_binary(binary)

    def test_counter_tensor_layout(self):
        binary = Compiler().compile(mibench_program("crc"), o3_setting())
        machine = MicroArchSpace().sample(1, seed=3)[0]
        results = kernel_grid([binary], [machine])
        reference = simulate_analytic(binary, machine)
        for k, name in enumerate(COUNTER_NAMES):
            assert float(results.counters[0, 0, k]) == getattr(
                reference.counters, name
            )


class TestRewiredCallSites:
    def test_compute_shard_vector_matches_scalar(self):
        from repro.store.compute import compute_shard

        program = mibench_program("search")
        machines = MicroArchSpace().sample(6, seed=4)
        settings_list = DEFAULT_SPACE.sample_many(4, seed=11)
        vector = compute_shard(program, machines, settings_list, vectorize=True)
        scalar = compute_shard(program, machines, settings_list, vectorize=False)
        for got, want in zip(vector, scalar):
            assert np.array_equal(got, want)

    def test_evaluator_batch_matches_sequential(self):
        from repro.search.evaluator import Evaluator

        machine = MicroArchSpace().sample(1, seed=8)[0]
        settings_list = DEFAULT_SPACE.sample_many(6, seed=21)
        batched = Evaluator(
            program=mibench_program("crc"), machine=machine
        )
        sequential = Evaluator(
            program=mibench_program("crc"), machine=machine
        )
        many = batched.evaluate_many(settings_list)
        each = [sequential.evaluate(s) for s in settings_list]
        assert many == each
        assert batched.evaluations == sequential.evaluations
        # Memoised: a second batch does no new work.
        again = batched.evaluate_many(settings_list)
        assert again == many
        assert batched.evaluations == len(settings_list)

    def test_session_hot_paths_match_simulate_analytic(self):
        """Every pricing path a session drives — a batch, a search and a
        dataset build — answers exactly what the scalar reference
        computes directly.  The protocol oracle's equivalent lives in
        ``tests/test_evalrun.py``."""
        from repro.api import Session
        from repro.store.compute import compute_shard

        session = Session("tiny", use_disk_cache=False)
        machine = session.machines(1, seed=13)[0]
        batch = session.eval.batch([("crc", machine), ("sha", machine)])
        for result in batch:
            binary = session.compile(result.program)
            assert result.simulation == simulate_analytic(binary, machine)

        outcome = session.eval.search(
            program="crc", machine=machine, algorithm="random",
            budget=4, seed=2,
        )
        best = session.compile("crc", outcome.best_setting)
        assert outcome.best_runtime == simulate_analytic(best, machine).seconds

        data = session.data.dataset()
        training = data.training
        runtimes, o3_runtimes, counters, _ = compute_shard(
            data.programs[0],
            training.machines,
            training.settings,
            vectorize=False,
        )
        assert np.array_equal(training.runtimes[0], runtimes)
        assert np.array_equal(training.o3_runtimes[0], o3_runtimes)
        assert np.array_equal(training.counters[0], counters)
