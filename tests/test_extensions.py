"""Tests for the §9 future-work extensions: clustering + code features."""

import numpy as np
import pytest

from repro.compiler.flags import o3_setting
from repro.core.clustering import (
    k_medoids,
    pair_feature_matrix,
    reduce_training_set,
    training_cost,
)
from repro.core.code_features import CODE_FEATURE_NAMES, static_code_features
from repro.core.crossval import CrossValResult
from repro.core.predictor import OptimisationPredictor
from repro.evalrun.oracle import RuntimeOracle
from repro.evalrun.pipeline import compute_fold, fold_outcomes
from repro.evalrun.variants import BASE_VARIANT
from repro.programs import mibench_program


class TestCodeFeatures:
    def test_feature_vector_length(self, tiny_data):
        binary = tiny_data.compiler.compile(tiny_data.programs[0], o3_setting())
        features = static_code_features(binary)
        assert len(features) == len(CODE_FEATURE_NAMES)
        assert all(np.isfinite(features))

    def test_call_bound_programs_distinguishable(self, compiler):
        crc = static_code_features(
            compiler.compile(mibench_program("crc"), o3_setting())
        )
        search = static_code_features(
            compiler.compile(mibench_program("search"), o3_setting())
        )
        call_density = CODE_FEATURE_NAMES.index("call_density")
        assert crc[call_density] > search[call_density]

    def test_big_code_programs_distinguishable(self, compiler):
        rijndael = static_code_features(
            compiler.compile(mibench_program("rijndael_e"), o3_setting())
        )
        search = static_code_features(
            compiler.compile(mibench_program("search"), o3_setting())
        )
        span = CODE_FEATURE_NAMES.index("log_max_loop_span")
        assert rijndael[span] > search[span]

    def test_training_set_carries_code_features(self, tiny_data):
        features = tiny_data.training.code_features
        assert features is not None
        assert features.shape == (
            len(tiny_data.training.program_names),
            len(CODE_FEATURE_NAMES),
        )

    def test_with_code_predictor_roundtrip(self, tiny_data):
        from repro.sim.counters import PerfCounters

        predictor = OptimisationPredictor(feature_mode="with_code").fit(
            tiny_data.training
        )
        counters = PerfCounters(*tiny_data.training.counters[0, 0, :])
        setting = predictor.predict(
            counters,
            tiny_data.machines[0],
            code_features=tiny_data.training.code_features[0, :],
        )
        assert setting is not None

    def test_with_code_requires_features_at_predict(self, tiny_data):
        from repro.sim.counters import PerfCounters

        predictor = OptimisationPredictor(feature_mode="with_code").fit(
            tiny_data.training
        )
        counters = PerfCounters(*tiny_data.training.counters[0, 0, :])
        with pytest.raises(ValueError, match="code"):
            predictor.predict(counters, tiny_data.machines[0])

    def test_with_code_crossval_runs(self, tiny_data, tiny_protocol):
        result = tiny_protocol.report.protocol.result("features-with_code")
        assert len(result.outcomes) == len(tiny_data.training.program_names) * len(
            tiny_data.training.machines
        )


class TestKMedoids:
    def _blobs(self):
        rng = np.random.default_rng(0)
        left = rng.normal(loc=0.0, scale=0.3, size=(20, 3))
        right = rng.normal(loc=5.0, scale=0.3, size=(20, 3))
        return np.vstack([left, right])

    def test_two_clusters_found(self):
        features = self._blobs()
        result = k_medoids(features, k=2)
        assert len(result.medoid_indices) == 2
        sides = {index // 20 for index in result.medoid_indices}
        assert sides == {0, 1}  # one medoid per blob

    def test_assignments_consistent(self):
        features = self._blobs()
        result = k_medoids(features, k=2)
        assert len(result.assignments) == 40
        # Points assign to the medoid from their own blob.
        for point, medoid_position in enumerate(result.assignments):
            medoid = result.medoid_indices[medoid_position]
            assert (point // 20) == (medoid // 20)

    def test_k_equals_n_zero_distance(self):
        features = self._blobs()[:5]
        result = k_medoids(features, k=5)
        assert result.total_distance == pytest.approx(0.0)

    def test_deterministic(self):
        features = self._blobs()
        assert (
            k_medoids(features, 3).medoid_indices
            == k_medoids(features, 3).medoid_indices
        )

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            k_medoids(self._blobs(), k=0)
        with pytest.raises(ValueError):
            k_medoids(self._blobs(), k=41)

    def test_more_medoids_never_worse(self):
        features = self._blobs()
        coarse = k_medoids(features, 2).total_distance
        fine = k_medoids(features, 8).total_distance
        assert fine <= coarse + 1e-9


class TestTrainingReduction:
    def test_pair_feature_matrix_shape(self, tiny_data):
        matrix = pair_feature_matrix(tiny_data.training)
        P = len(tiny_data.training.program_names)
        M = len(tiny_data.training.machines)
        assert matrix.shape[0] == P * M

    def test_reduction_shrinks_cost(self, tiny_data):
        full_cost = training_cost(tiny_data.training)
        reduced = reduce_training_set(tiny_data.training, k=6)
        assert training_cost(reduced) < full_cost
        assert reduced.metadata["reduced_to_medoids"] == 6

    def test_reduced_set_is_consistent_subset(self, tiny_data):
        reduced = reduce_training_set(tiny_data.training, k=6)
        training = tiny_data.training
        for name in reduced.program_names:
            assert name in training.program_names
        for machine in reduced.machines:
            assert machine in training.machines
        # Spot-check one runtime cell against the full set.
        p_full = training.program_index(reduced.program_names[0])
        m_full = training.machine_index(reduced.machines[0])
        assert reduced.runtimes[0, 0, 0] == pytest.approx(
            training.runtimes[p_full, 0, m_full]
        )

    def test_model_on_reduced_set_still_useful(self, tiny_data):
        """The §9 claim: clustering can cut training cost while keeping
        most of the model's benefit."""
        reduced = reduce_training_set(tiny_data.training, k=12)
        predictor = OptimisationPredictor().fit(reduced)
        # Evaluate on the *full* pair grid, one protocol fold per program.
        training = tiny_data.training
        oracle = RuntimeOracle(
            training, tiny_data.programs, compiler=tiny_data.compiler
        )
        result = CrossValResult(
            outcomes=[
                outcome
                for name in training.program_names
                for outcome in fold_outcomes(
                    compute_fold(training, BASE_VARIANT, name, oracle, predictor),
                    training,
                )
            ]
        )
        random_mean = tiny_data.training.speedups().mean()
        assert result.mean_speedup() > random_mean
