"""Leakage guard for leave-one-out cross-validation.

§5.1.1's claim is that the model never consults training data from the
held-out program *or* the held-out machine.  Exclusion happens at query
time through the predictor's single candidate gate
(:meth:`OptimisationPredictor._candidate_indices`) — every prediction
path selects through it, exactly once per query — so instrumenting that
gate observes every training row any prediction can possibly touch.
These tests record every consulted row across every fold of a
leave-one-out run and assert the held-out rows never appear.
"""

from __future__ import annotations

from repro.core.predictor import OptimisationPredictor
from repro.evalrun.foldstore import FoldKey
from repro.evalrun.oracle import RuntimeOracle
from repro.evalrun.pipeline import compute_fold
from repro.evalrun.variants import BASE_VARIANT


class RecordingPredictor(OptimisationPredictor):
    """Records every training row each prediction was allowed to consult."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: one entry per prediction: (exclusions, consulted rows)
        self.queries: list[tuple[str | None, object, list[tuple[str, object]]]] = []

    def _candidate_indices(self, exclude_program, exclude_machine):
        indices = super()._candidate_indices(exclude_program, exclude_machine)
        self.queries.append(
            (
                exclude_program,
                exclude_machine,
                [
                    (self._pairs[int(i)].program, self._pairs[int(i)].machine)
                    for i in indices
                ],
            )
        )
        return indices


def _assert_no_leakage(queries):
    assert queries, "the predictor was never consulted"
    for exclude_program, exclude_machine, consulted in queries:
        assert exclude_program is not None, "fold forgot to hold out a program"
        assert exclude_machine is not None, "fold forgot to hold out a machine"
        assert consulted, "exclusions left no training data at all"
        for program, machine in consulted:
            assert program != exclude_program, (
                f"leakage: training row of held-out program {program!r} "
                "was consulted"
            )
            assert machine != exclude_machine, (
                "leakage: training row of the held-out machine was consulted"
            )


def _run_every_fold(data, predictor) -> None:
    """Compute one protocol fold per program with ``predictor``."""
    training = data.training
    oracle = RuntimeOracle(training, data.programs, compiler=data.compiler)
    predictor.fit(training)
    for program in training.program_names:
        compute_fold(training, BASE_VARIANT, program, oracle, predictor)


class TestLeaveOneOutLeakage:
    def test_no_heldout_row_ever_consulted(self, tiny_data):
        predictor = RecordingPredictor(extended=tiny_data.scale.extended)
        _run_every_fold(tiny_data, predictor)
        P = len(tiny_data.training.program_names)
        M = len(tiny_data.training.machines)
        assert len(predictor.queries) == P * M
        _assert_no_leakage(predictor.queries)

    def test_every_pair_is_its_own_fold(self, tiny_data):
        """Each (program, machine) pair is predicted with exactly itself
        held out — the exclusions sweep the full grid."""
        predictor = RecordingPredictor(extended=tiny_data.scale.extended)
        _run_every_fold(tiny_data, predictor)
        seen = {
            (exclude_program, exclude_machine)
            for exclude_program, exclude_machine, _ in predictor.queries
        }
        expected = {
            (name, machine)
            for name in tiny_data.training.program_names
            for machine in tiny_data.training.machines
        }
        assert seen == expected

    def test_pipeline_folds_hold_out_program_and_machine(self, tiny_data):
        """A single pipeline fold holds out its own program on every
        machine and is keyed by its variant."""
        training = tiny_data.training
        oracle = RuntimeOracle(training, tiny_data.programs)
        predictor = RecordingPredictor(extended=training.extended).fit(training)
        program = training.program_names[0]
        record = compute_fold(training, BASE_VARIANT, program, oracle, predictor)
        assert record.key == FoldKey("base", program)
        assert len(predictor.queries) == len(training.machines)
        assert all(
            exclude_program == program
            for exclude_program, _, _ in predictor.queries
        )
        _assert_no_leakage(predictor.queries)
