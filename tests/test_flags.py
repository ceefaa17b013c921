"""Tests for the optimisation space (repro.compiler.flags)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import (
    DEFAULT_SPACE,
    FLAG_NAMES,
    FLAG_SPECS,
    FlagSetting,
    FlagSpace,
    FlagSpec,
    o0_setting,
    o3_setting,
)


class TestFlagSpecs:
    def test_thirty_nine_dimensions(self):
        assert len(FLAG_SPECS) == 39

    def test_thirty_booleans(self):
        booleans = [spec for spec in FLAG_SPECS if spec.is_boolean]
        assert len(booleans) == 30

    def test_nine_parameters(self):
        params = [spec for spec in FLAG_SPECS if not spec.is_boolean]
        assert len(params) == 9
        assert all(spec.name.startswith("param_") for spec in params)

    def test_names_unique(self):
        assert len(set(FLAG_NAMES)) == len(FLAG_NAMES)

    def test_o3_value_valid_everywhere(self):
        for spec in FLAG_SPECS:
            assert spec.o3 in spec.values

    def test_gcse_family_gated(self):
        for name in (
            "fno_gcse_lm",
            "fgcse_sm",
            "fgcse_las",
            "fgcse_after_reload",
            "param_max_gcse_passes",
        ):
            assert DEFAULT_SPACE.spec(name).parent == "fgcse"

    def test_scheduling_subflags_gated(self):
        assert DEFAULT_SPACE.spec("fno_sched_interblock").parent == "fschedule_insns"
        assert DEFAULT_SPACE.spec("fno_sched_spec").parent == "fschedule_insns"

    def test_inline_params_gated(self):
        for name in FLAG_NAMES:
            if "inline" in name and name != "finline_functions":
                assert DEFAULT_SPACE.spec(name).parent == "finline_functions"

    def test_unroll_params_gated(self):
        assert DEFAULT_SPACE.spec("param_max_unroll_times").parent == "funroll_loops"
        assert (
            DEFAULT_SPACE.spec("param_max_unrolled_insns").parent == "funroll_loops"
        )

    def test_invalid_o3_value_rejected(self):
        with pytest.raises(ValueError):
            FlagSpec("bogus", values=(1, 2), o3=3)


class TestO3Setting:
    def test_unroll_off_at_o3(self):
        assert o3_setting()["funroll_loops"] is False

    def test_inline_on_at_o3(self):
        assert o3_setting()["finline_functions"] is True

    def test_gcse_on_with_default_subflags(self):
        setting = o3_setting()
        assert setting["fgcse"] is True
        assert setting["fno_gcse_lm"] is False  # load motion enabled
        assert setting["fgcse_sm"] is False
        assert setting["fgcse_las"] is False

    def test_default_inline_budget_is_90(self):
        assert o3_setting()["param_max_inline_insns_auto"] == 90

    def test_o0_all_booleans_off(self):
        setting = o0_setting()
        for spec in FLAG_SPECS:
            if spec.is_boolean:
                assert setting[spec.name] is False


class TestFlagSetting:
    def test_mapping_interface(self):
        setting = o3_setting()
        assert len(setting) == 39
        assert set(iter(setting)) == set(FLAG_NAMES)
        assert setting["fgcse"] is True

    def test_missing_flag_rejected(self):
        values = {spec.name: spec.o3 for spec in FLAG_SPECS}
        del values["fgcse"]
        with pytest.raises(ValueError, match="missing"):
            FlagSetting(values)

    def test_unknown_flag_rejected(self):
        values = {spec.name: spec.o3 for spec in FLAG_SPECS}
        values["not_a_flag"] = True
        with pytest.raises(ValueError, match="unknown"):
            FlagSetting(values)

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="invalid value"):
            o3_setting().with_values(param_max_unroll_times=3)

    def test_with_values_rejects_invalid_overrides(self):
        base = o3_setting()
        with pytest.raises(ValueError, match="unknown flags: \\['not_a_flag'\\]"):
            base.with_values(not_a_flag=True)
        with pytest.raises(ValueError, match="fgcse: invalid value 'yes'"):
            base.with_values(fgcse="yes")
        with pytest.raises(ValueError, match="param_inline_call_cost: invalid value 5"):
            base.with_values(fgcse=False, param_inline_call_cost=5)

    def test_with_values_equals_a_full_construction(self):
        base = DEFAULT_SPACE.sample(random.Random(5))
        overrides = {"fgcse": not base["fgcse"], "param_max_unroll_times": 16}
        built = base.with_values(**overrides)
        assert built == FlagSetting({**dict(base), **overrides})
        assert hash(built) == hash(FlagSetting({**dict(base), **overrides}))
        assert built.as_indices() == FlagSetting({**dict(base), **overrides}).as_indices()
        for neighbour in DEFAULT_SPACE.neighbours(base):
            assert neighbour == FlagSetting(dict(neighbour))

    def test_hashable_and_equal(self):
        assert o3_setting() == o3_setting()
        assert hash(o3_setting()) == hash(o3_setting())
        assert o3_setting() != o0_setting()

    def test_with_values_does_not_mutate(self):
        base = o3_setting()
        other = base.with_values(fgcse=False)
        assert base["fgcse"] is True
        assert other["fgcse"] is False

    def test_enabled_respects_gating(self):
        setting = o3_setting().with_values(fgcse=False, fgcse_sm=True)
        assert not setting.enabled("fgcse_sm")
        setting = setting.with_values(fgcse=True)
        assert setting.enabled("fgcse_sm")

    def test_canonical_collapses_gated_dimensions(self):
        one = o3_setting().with_values(fgcse=False, fgcse_sm=True)
        two = o3_setting().with_values(fgcse=False, fgcse_sm=False)
        assert one != two
        assert one.canonical() == two.canonical()

    def test_canonical_keeps_active_dimensions(self):
        setting = o3_setting().with_values(fgcse_sm=True)
        assert setting.canonical()["fgcse_sm"] is True

    def test_indices_roundtrip(self):
        setting = o3_setting()
        assert FlagSetting.from_indices(setting.as_indices()) == setting

    def test_from_indices_wrong_length(self):
        with pytest.raises(ValueError):
            FlagSetting.from_indices([0] * 5)


class TestFlagSpace:
    def test_raw_boolean_size(self):
        assert DEFAULT_SPACE.raw_boolean_size() == 2**30

    def test_raw_size_exceeds_paper_minimum(self):
        # The paper reports 1.69e17 for its exact parameter grids; ours is
        # the same order of magnitude territory (>= 1e14).
        assert DEFAULT_SPACE.raw_size() >= 1e14

    def test_distinct_smaller_than_raw(self):
        assert DEFAULT_SPACE.distinct_size() < DEFAULT_SPACE.raw_size()
        assert (
            DEFAULT_SPACE.distinct_size(booleans_only=True)
            < DEFAULT_SPACE.raw_boolean_size()
        )

    def test_distinct_boolean_hundreds_of_millions(self):
        size = DEFAULT_SPACE.distinct_size(booleans_only=True)
        assert 1e8 < size < 2e9  # paper: 642 million

    def test_sample_many_deterministic(self):
        first = DEFAULT_SPACE.sample_many(20, seed=3)
        second = DEFAULT_SPACE.sample_many(20, seed=3)
        assert first == second

    def test_sample_many_distinct(self):
        settings = DEFAULT_SPACE.sample_many(50, seed=1)
        assert len(set(settings)) == 50

    def test_sample_many_seed_sensitivity(self):
        assert DEFAULT_SPACE.sample_many(10, seed=1) != DEFAULT_SPACE.sample_many(
            10, seed=2
        )

    def test_neighbours_hamming_one(self):
        setting = o3_setting()
        neighbours = list(DEFAULT_SPACE.neighbours(setting))
        expected = sum(spec.cardinality - 1 for spec in FLAG_SPECS)
        assert len(neighbours) == expected
        for neighbour in neighbours:
            differences = sum(
                1 for name in FLAG_NAMES if neighbour[name] != setting[name]
            )
            assert differences == 1

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_sampled_settings_always_valid(self, seed):
        rng = random.Random(seed)
        setting = DEFAULT_SPACE.sample(rng)
        for spec in FLAG_SPECS:
            assert setting[spec.name] in spec.values

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_canonical_idempotent(self, seed):
        rng = random.Random(seed)
        setting = DEFAULT_SPACE.sample(rng)
        assert setting.canonical().canonical() == setting.canonical()

    def test_spaces_are_customisable(self):
        subspace = FlagSpace(FLAG_SPECS[:5])
        assert len(subspace) == 5
