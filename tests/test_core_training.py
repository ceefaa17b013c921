"""Tests for training-set generation, cross-validation and MI analyses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import o3_setting
from repro.core.crossval import CrossValResult
from repro.core.mutual_information import (
    entropy,
    feature_best_flag_mi,
    flag_speedup_mi,
    hinton_feature_columns,
    hinton_rows,
    mutual_information,
    normalised_mutual_information,
    quartile_bins,
)
from repro.sim.counters import COUNTER_NAMES


class TestTrainingSet:
    def test_shapes(self, tiny_data):
        training = tiny_data.training
        P = len(training.program_names)
        S = len(training.settings)
        M = len(training.machines)
        assert training.runtimes.shape == (P, S, M)
        assert training.o3_runtimes.shape == (P, M)
        assert training.counters.shape == (P, M, len(COUNTER_NAMES))

    def test_runtimes_positive(self, tiny_data):
        assert np.all(tiny_data.training.runtimes > 0)
        assert np.all(tiny_data.training.o3_runtimes > 0)

    def test_speedups_shape_and_sanity(self, tiny_data):
        speedups = tiny_data.training.speedups()
        assert speedups.shape == tiny_data.training.runtimes.shape
        assert 0.2 < speedups.mean() < 2.0

    def test_best_runtime_is_minimum(self, tiny_data):
        training = tiny_data.training
        assert training.best_runtime(0, 0) == pytest.approx(
            training.runtimes[0, :, 0].min()
        )

    def test_best_setting_achieves_best_runtime(self, tiny_data):
        training = tiny_data.training
        setting = training.best_setting(2, 1)
        index = training.settings.index(setting)
        assert training.runtimes[2, index, 1] == pytest.approx(
            training.best_runtime(2, 1)
        )

    def test_good_settings_size(self, tiny_data):
        training = tiny_data.training
        good = training.good_settings(0, 0, quantile=0.25)
        assert len(good) == round(len(training.settings) * 0.25)

    def test_pair_distribution_mode_is_good(self, tiny_data):
        training = tiny_data.training
        distribution = training.pair_distribution(1, 1, quantile=0.25)
        for theta in distribution.theta:
            assert theta.sum() == pytest.approx(1.0)

    def test_counters_match_fresh_simulation(self, tiny_data):
        from repro.sim.analytic import simulate_analytic

        training = tiny_data.training
        program = tiny_data.programs[0]
        binary = tiny_data.compiler.compile(program, o3_setting())
        result = simulate_analytic(binary, training.machines[0])
        assert np.allclose(
            training.counters[0, 0, :], np.array(result.counters.vector())
        )


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def cv_result(self, tiny_protocol):
        return tiny_protocol.report.protocol.base

    def test_one_outcome_per_pair(self, tiny_data, cv_result):
        expected = len(tiny_data.training.program_names) * len(
            tiny_data.training.machines
        )
        assert len(cv_result.outcomes) == expected

    def test_speedup_definitions(self, cv_result):
        outcome = cv_result.outcomes[0]
        assert outcome.speedup == pytest.approx(
            outcome.o3_runtime / outcome.predicted_runtime
        )
        assert outcome.best_speedup == pytest.approx(
            outcome.o3_runtime / outcome.best_runtime
        )

    def test_fraction_of_best_bounds(self, cv_result):
        for outcome in cv_result.outcomes:
            assert outcome.fraction_of_best >= 0.0

    def test_aggregates_finite(self, cv_result):
        assert np.isfinite(cv_result.mean_speedup())
        assert np.isfinite(cv_result.mean_best_speedup())
        assert -1.0 <= cv_result.correlation_with_best() <= 1.0

    def test_by_program_partition(self, tiny_data, cv_result):
        grouped = cv_result.by_program()
        assert set(grouped) == set(tiny_data.training.program_names)
        assert sum(len(group) for group in grouped.values()) == len(
            cv_result.outcomes
        )

    def test_by_machine_partition(self, tiny_data, cv_result):
        grouped = cv_result.by_machine()
        assert set(grouped) == set(tiny_data.training.machines)

    def test_model_beats_random_floor(self, tiny_data, cv_result):
        # The model must do clearly better than the average random setting.
        random_mean = tiny_data.training.speedups().mean()
        assert cv_result.mean_speedup() > random_mean

    def test_empty_result_helpers(self):
        result = CrossValResult()
        assert result.outcomes == []


class TestMutualInformation:
    def test_entropy_uniform(self):
        assert entropy([0, 1, 2, 3]) == pytest.approx(np.log(4))

    def test_entropy_constant(self):
        assert entropy([7] * 10) == 0.0

    def test_mi_of_identical_is_entropy(self):
        xs = [0, 1, 0, 1, 2, 2]
        assert mutual_information(xs, xs) == pytest.approx(entropy(xs))

    def test_mi_of_independent_near_zero(self):
        xs = [0, 1] * 50
        ys = [0] * 50 + [1] * 50
        assert mutual_information(xs, ys) == pytest.approx(0.0, abs=1e-9)

    def test_mi_requires_paired(self):
        with pytest.raises(ValueError):
            mutual_information([1, 2], [1])

    def test_nmi_bounds(self):
        xs = [0, 1, 0, 1, 1, 0, 1, 0]
        ys = [0, 1, 0, 1, 0, 1, 0, 1]
        value = normalised_mutual_information(xs, ys)
        assert 0.0 <= value <= 1.0

    def test_nmi_constant_is_zero(self):
        assert normalised_mutual_information([1] * 5, [0, 1, 0, 1, 0]) == 0.0

    @given(
        xs=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=60)
    )
    @settings(max_examples=40, deadline=None)
    def test_mi_nonnegative_and_bounded(self, xs):
        ys = list(reversed(xs))
        value = mutual_information(xs, ys)
        assert value >= 0.0
        assert value <= min(entropy(xs), entropy(ys)) + 1e-9

    def test_quartile_bins_four_levels(self):
        values = np.arange(100.0)
        bins = quartile_bins(values)
        assert set(bins) == {0, 1, 2, 3}

    def test_flag_speedup_matrix_shape(self, tiny_data):
        matrix = flag_speedup_mi(tiny_data.training)
        assert matrix.shape == (39, len(tiny_data.training.program_names))
        assert np.all(matrix >= 0.0)

    def test_feature_flag_matrix_shape(self, tiny_data):
        matrix = feature_best_flag_mi(tiny_data.training)
        assert matrix.shape == (39, 19)
        assert np.all(matrix >= 0.0)

    def test_hinton_labels(self, tiny_data):
        assert len(hinton_rows(tiny_data.training)) == 39
        assert len(hinton_feature_columns(tiny_data.training)) == 19
