"""Tests for the experiment harness: scales, datasets, figures, tables."""

import numpy as np
import pytest

from repro.evalrun import ARTIFACTS
from repro.experiments import (
    FIGURE1_PASSES,
    PRESETS,
    Scale,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    headline,
    iterations_to_match,
    preset,
    table1,
    table2,
)
from repro.experiments.dataset import load_or_build


@pytest.fixture(scope="module")
def base_crossval(tiny_protocol):
    """The paper model's leave-one-out outcomes from the protocol run."""
    return tiny_protocol.report.protocol.base


@pytest.fixture(scope="module")
def ablation(tiny_data, tiny_protocol):
    """An ablation table as the report builds it from protocol folds."""
    return lambda name: ARTIFACTS[name].build(
        tiny_data, tiny_protocol.report.protocol
    )


class TestScales:
    def test_presets_exist(self):
        assert set(PRESETS) == {"paper", "default", "quick", "tiny"}

    def test_paper_scale_matches_protocol(self):
        paper = preset("paper")
        assert len(paper.programs) == 35
        assert paper.n_machines == 200
        assert paper.n_settings == 1000

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("huge")

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError):
            Scale(name="x", programs=("ghost",), n_machines=4, n_settings=4)

    def test_fingerprint_changes_with_scale(self):
        tiny = preset("tiny")
        other = Scale(
            name="tiny2",
            programs=tiny.programs,
            n_machines=tiny.n_machines + 1,
            n_settings=tiny.n_settings,
        )
        assert tiny.fingerprint() != other.fingerprint()

    def test_extended_variant(self):
        extended = preset("tiny").with_extended()
        assert extended.extended
        assert extended.name == "tiny-ext"
        assert extended.fingerprint() != preset("tiny").fingerprint()


class TestDataset:
    def test_memory_cache_returns_same_object(self, tiny_data):
        again = load_or_build(tiny_data.scale, use_disk_cache=False)
        assert again is tiny_data


class TestStaticExperiments:
    def test_table2_exact_paper_numbers(self):
        result = table2()
        assert result.base_size == 288_000
        assert result.extended_size == 2_880_000
        assert result.xscale["il1_size"] == 32768
        assert "288,000" in result.render()

    def test_figure3_space_accounting(self):
        result = figure3()
        assert result.dimensions == 39
        assert result.booleans == 30
        assert result.raw_boolean_size == 2**30
        assert result.distinct_size < result.raw_size
        assert "1.69e17" in result.render()


class TestDataExperiments:
    def test_table1_eleven_counters(self, tiny_data):
        result = table1(tiny_data)
        assert len(result.counters) == 11
        assert all(name in result.render() for name in result.counters)

    def test_figure4_statistics_ordered(self, tiny_data):
        result = figure4(tiny_data)
        assert np.all(result.minimum <= result.median)
        assert np.all(result.median <= result.maximum)
        assert np.all(result.q25 <= result.q75)
        assert result.overall_mean > 1.0

    def test_figure4_rows_render(self, tiny_data):
        result = figure4(tiny_data)
        assert len(result.rows()) == len(tiny_data.training.program_names)
        assert "AVERAGE" in result.render()

    def test_figure5_surfaces(self, tiny_data, base_crossval):
        result = figure5(tiny_data, base_crossval)
        P = len(tiny_data.training.program_names)
        M = len(tiny_data.training.machines)
        assert result.best.shape == (P, M)
        assert result.predicted.shape == (P, M)
        assert np.all(result.best > 0)
        assert -1.0 <= result.correlation <= 1.0
        assert result.peak_best >= result.best.mean()

    def test_figure6_model_below_best_on_average(self, tiny_data, base_crossval):
        result = figure6(tiny_data, base_crossval)
        assert result.mean_model <= result.mean_best + 0.05

    def test_figure7_sorted_by_best(self, tiny_data, base_crossval):
        result = figure7(tiny_data, base_crossval)
        assert np.all(np.diff(result.best) >= -1e-12)
        regions = result.regions()
        assert set(regions) == {"low-headroom", "middle", "high-headroom"}
        assert regions["high-headroom"][1] >= regions["middle"][1]

    def test_figure8_hinton(self, tiny_data):
        result = figure8(tiny_data)
        assert result.matrix.shape == (
            39,
            len(tiny_data.training.program_names),
        )
        assert result.top_cells(5)
        assert "Figure 8" in result.render()

    def test_figure9_hinton(self, tiny_data):
        result = figure9(tiny_data)
        assert result.matrix.shape == (39, 19)
        assert "Figure 9" in result.render()

    def test_figure1_segments(self, tiny_data):
        result = figure1(tiny_data)
        # rijndael_e is in the tiny scale; three machines per program.
        rijndael_rows = [
            key for key in result.segments if key[0] == "rijndael_e"
        ]
        assert len(rijndael_rows) == 3
        for passes in result.segments.values():
            assert set(passes) == set(FIGURE1_PASSES)
        assert "rijndael_e" in result.render()

    def test_headline_consistency(self, tiny_data, base_crossval):
        result = headline(tiny_data, base_crossval)
        assert result.mean_best_speedup >= result.mean_model_speedup - 0.05
        assert result.best_case_available >= result.best_case_model - 1e-9
        assert result.worst_setting_min <= result.worst_setting_mean
        assert "1.16" in result.render()  # paper reference value shown

    def test_iterations_to_match(self, tiny_data, base_crossval):
        result = iterations_to_match(tiny_data, base_crossval)
        assert len(result.programs) == len(tiny_data.training.program_names)
        assert np.all(result.mean_evaluations >= 1)
        assert np.all(result.mean_evaluations <= result.budget)
        assert 0 <= result.overall_mean <= result.budget
        assert "AVERAGE" in result.render()


class TestAblations:
    def test_knn_sweep_rows(self, ablation):
        result = ablation("ablate-k")
        assert [row.label.startswith("K = ") for row in result.rows] == [True] * 6
        assert any("(paper)" in row.label for row in result.rows)
        assert "Ablation" in result.render()

    def test_beta_sweep_rows(self, ablation):
        result = ablation("ablate-beta")
        assert len(result.rows) == 4
        assert any("(paper)" in row.label for row in result.rows)

    def test_feature_mode_sweep_includes_code_features(self, ablation):
        result = ablation("ablate-features")
        labels = [row.label for row in result.rows]
        assert any(label.startswith("with_code") for label in labels)
        assert any(label.startswith("both") for label in labels)

    def test_joint_vote_predictor_direct(self, tiny_data):
        from repro.experiments import JointVotePredictor
        from repro.sim.counters import PerfCounters

        predictor = JointVotePredictor().fit(tiny_data.training)
        counters = PerfCounters(*tiny_data.training.counters[0, 0, :])
        setting = predictor.predict(counters, tiny_data.machines[0])
        # The vote returns an observed good setting of some neighbour.
        all_good = set()
        for p in range(len(tiny_data.training.program_names)):
            for m in range(len(tiny_data.training.machines)):
                all_good.update(tiny_data.training.good_settings(p, m))
        assert setting in all_good

    def test_iid_vs_joint_shapes(self, ablation):
        result = ablation("ablate-iid")
        assert {row.label.split()[0] for row in result.rows} == {"IID", "joint"}
