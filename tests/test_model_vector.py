"""The ranking kernel's contract: exact equality with the scalar model.

:mod:`repro.core.vector` must reproduce the scalar reference
:meth:`~repro.core.predictor.OptimisationPredictor.reference_knn` float
for float — every mixture theta, every ranked probability, every
neighbour distance — because the service serialises rankings with
:func:`canonical_json`, where bit-identity and byte-identity are the same
thing.  The hypothesis suites assert that over random queries × machines
× exclusions × K; the deterministic tests cover the batch API, a
model loaded from its registry entry, the service path, and the
edge cases (ties in the top-K, batches that exhaust the candidates).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ModelRegistry, RankedPrediction, RankedSetting, Session
from repro.api.facets import ranked_prediction_many
from repro.core import vector as model_vector
from repro.core.predictor import OptimisationPredictor
from repro.machine.params import BASE_GRID, EXTENDED_GRID, MicroArch
from repro.service.service import PredictionService, canonical_json
from repro.sim.counters import PerfCounters

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


def clone_with(base: OptimisationPredictor, k: int):
    """A fitted predictor sharing ``base``'s pairs with a different K."""
    clone = OptimisationPredictor(
        k=k,
        beta=base.beta,
        quantile=base.quantile,
        extended=base.extended,
        feature_mode=base.feature_mode,
    )
    clone._pairs = base._pairs
    clone._normaliser = base._normaliser
    clone._mask = base._mask
    clone._refresh_tensors()
    return clone


def assert_distribution_exact(reference, candidate) -> None:
    assert len(reference.theta) == len(candidate.theta)
    for dim, (a, b) in enumerate(zip(reference.theta, candidate.theta)):
        assert np.array_equal(a, b), f"theta drifted in dimension {dim}"


def reference_distribution(model, *query, **exclusions):
    """The scalar reference mixture for one query."""
    return model.reference_knn(*query, **exclusions)[0]


def reference_ranked(model, counters, machine, top, program=None):
    """One :func:`ranked_prediction_many` answer, ranked from the scalar
    reference."""
    settings = tuple(
        RankedSetting(rank=index + 1, setting=setting, probability=probability)
        for index, (setting, probability) in enumerate(
            reference_distribution(model, counters, machine).top_settings(top)
        )
    )
    return RankedPrediction(program=program, machine=machine, settings=settings)


@pytest.fixture(scope="module")
def fitted(tiny_data):
    training = tiny_data.training
    model = OptimisationPredictor(extended=training.extended).fit(training)
    return {"training": training, "model": model}


class TestStableTopK:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=45),
        levels=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_argsort(self, seed, rows, cols, k, levels):
        """Heavy ties (few distinct values) are exactly where argpartition
        alone would diverge from a stable sort — the repair must fix it."""
        rng = np.random.default_rng(seed)
        distances = rng.choice(
            np.linspace(0.0, 1.0, levels), size=(rows, cols)
        )
        k = min(k, cols)
        expected = np.argsort(distances, axis=1, kind="stable")[:, :k]
        assert np.array_equal(
            model_vector.stable_topk(distances, k), expected
        )

    def test_handles_inf_padding(self):
        distances = np.array([[np.inf, 2.0, 2.0, 1.0, np.inf, 2.0]])
        assert model_vector.stable_topk(distances, 3).tolist() == [[3, 1, 2]]


class TestScalarVectorEquivalence:
    @given(
        p=st.integers(min_value=0, max_value=5),
        m=st.integers(min_value=0, max_value=5),
        factor=st.floats(
            min_value=0.25, max_value=4.0, allow_nan=False, width=64
        ),
        machine=machines_strategy,
        use_training_machine=st.booleans(),
        exclusion=st.sampled_from(["none", "program", "machine", "both"]),
        k=st.sampled_from([1, 2, 7, 13, 10_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_predict_distribution_rank_and_neighbours_exact(
        self, fitted, p, m, factor, machine, use_training_machine,
        exclusion, k,
    ):
        training = fitted["training"]
        p %= len(training.program_names)
        m %= len(training.machines)
        name = training.program_names[p]
        query_machine = (
            training.machines[m] if use_training_machine else machine
        )
        # Perturb the profile but keep the [0, 1]-constrained rates valid.
        counters = PerfCounters(
            *np.minimum(training.counters[p, m, :] * factor, 1.0)
        )
        exclude_program = name if exclusion in ("program", "both") else None
        exclude_machine = (
            training.machines[m] if exclusion in ("machine", "both") else None
        )
        model = clone_with(fitted["model"], k)
        query = (counters, query_machine, exclude_program, exclude_machine)

        reference, reference_neighbours = model.reference_knn(*query)
        candidate = model.predict_distribution(*query)
        assert_distribution_exact(reference, candidate)
        assert reference.mode() == candidate.mode()
        assert reference.top_settings(5) == candidate.top_settings(5)
        assert model.neighbours(*query) == reference_neighbours

    def test_unseen_exclusion_keys_match_nothing(self, fitted):
        """Excluding a program/machine the model never trained on must be
        a no-op on the kernel and the reference (the id-mask maps unknowns
        to -1)."""
        training = fitted["training"]
        counters = PerfCounters(*training.counters[0, 0, :])
        unknown_machine = next(
            candidate
            for size in BASE_GRID["il1_size"]
            for assoc in BASE_GRID["il1_assoc"]
            if (
                candidate := dataclasses.replace(
                    training.machines[0], il1_size=size, il1_assoc=assoc
                )
            )
            not in training.machines
        )
        model = fitted["model"]
        reference = functools.partial(reference_distribution, model)
        for predict in (model.predict_distribution, reference):
            baseline = predict(counters, training.machines[0])
            excluded = predict(
                counters,
                training.machines[0],
                exclude_program="no-such-program",
                exclude_machine=unknown_machine,
            )
            assert_distribution_exact(baseline, excluded)


class TestBatchedMany:
    def _grid_queries(self, training):
        queries = []
        for p, name in enumerate(training.program_names):
            for m, machine in enumerate(training.machines):
                queries.append(
                    (
                        PerfCounters(*training.counters[p, m, :]),
                        machine,
                        name,
                        machine,
                    )
                )
        return queries

    def test_batch_equals_scalar_singles(self, fitted):
        training = fitted["training"]
        queries = self._grid_queries(training)
        model = fitted["model"]
        batch = model.predict_distribution_many(
            [q[0] for q in queries],
            [q[1] for q in queries],
            exclude_programs=[q[2] for q in queries],
            exclude_machines=[q[3] for q in queries],
        )
        for query, candidate in zip(queries, batch):
            reference = reference_distribution(model, *query)
            assert_distribution_exact(reference, candidate)

    def test_predict_many_and_batched_ranking_match(self, fitted):
        training = fitted["training"]
        queries = self._grid_queries(training)[:8]
        counters = [q[0] for q in queries]
        machines = [q[1] for q in queries]
        model = fitted["model"]
        modes = model.predict_many(counters, machines)
        ranks = ranked_prediction_many(
            model,
            [
                {"counters": c, "machine": m, "top": 3}
                for c, m in zip(counters, machines)
            ],
        )
        for i, query in enumerate(queries):
            reference = reference_distribution(model, query[0], query[1])
            assert modes[i] == reference.mode()
            assert [
                (entry.setting, entry.probability) for entry in ranks[i].settings
            ] == reference.top_settings(3)

    def test_empty_batch_and_length_mismatch(self, fitted):
        model = fitted["model"]
        assert model.predict_distribution_many([], []) == []
        training = fitted["training"]
        counters = PerfCounters(*training.counters[0, 0, :])
        with pytest.raises(ValueError, match="equal length"):
            model.predict_distribution_many(
                [counters], training.machines[:2]
            )
        with pytest.raises(ValueError, match="exclude_programs"):
            model.predict_distribution_many(
                [counters], [training.machines[0]], exclude_programs=["a", "b"]
            )

    def test_unfitted_many_raises(self):
        model = OptimisationPredictor()
        with pytest.raises(RuntimeError, match="not fitted"):
            model.predict_distribution_many([], [])

    def test_exhausted_candidates_raise_in_batch(self, fitted):
        """Mixed batches surface the reference's RuntimeError when any
        query's exclusions wipe out every training pair."""
        training = fitted["training"]
        only = training.program_names[0]
        base = fitted["model"]
        narrowed = clone_with(base, base.k)
        narrowed._pairs = [pair for pair in base._pairs if pair.program == only]
        narrowed._refresh_tensors()
        counters = PerfCounters(*training.counters[0, 0, :])
        with pytest.raises(RuntimeError, match="no training pairs"):
            narrowed.reference_knn(
                counters, training.machines[0], exclude_program=only
            )
        with pytest.raises(RuntimeError, match="no training pairs"):
            narrowed.predict_distribution_many(
                [counters, counters],
                [training.machines[0]] * 2,
                exclude_programs=[None, only],
            )

    def test_ranked_prediction_many_payloads_are_byte_identical(self, fitted):
        training = fitted["training"]
        queries = [
            {
                "counters": PerfCounters(*training.counters[p, m, :]),
                "machine": training.machines[m],
                "top": 1 + (p + m) % 4,
                "program": training.program_names[p],
            }
            for p in range(3)
            for m in range(3)
        ]
        model = fitted["model"]
        batch = ranked_prediction_many(model, queries)
        for query, prediction in zip(queries, batch):
            (single,) = ranked_prediction_many(model, [query])
            reference = reference_ranked(
                model,
                query["counters"],
                query["machine"],
                query["top"],
                program=query["program"],
            )
            assert canonical_json(prediction.payload()) == canonical_json(
                single.payload()
            )
            assert canonical_json(single.payload()) == canonical_json(
                reference.payload()
            )


class TestRegistrySidecar:
    """Promote writes no ranking sidecar: a loaded model's kernel tensors
    are stacked from its JSON entry alone, bit-equal to the fitted ones."""

    @pytest.fixture()
    def registered(self, tmp_path, fitted):
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.register(
            fitted["model"], fingerprint="f" * 16, promote=True
        )
        return registry, entry

    def test_promote_writes_only_the_entry_and_pointer(self, registered):
        registry, entry = registered
        written = sorted(
            path.relative_to(registry.root).as_posix()
            for path in registry.root.rglob("*")
            if path.is_file()
        )
        assert written == [
            f"models/v{entry.version:04d}.json",
            "promoted.json",
            "promoted.lock",  # the pointer's flock target, always empty
        ]

    def test_loaded_tensors_equal_the_fitted_models(self, registered, fitted):
        """An older registry's leftover sidecar, even a junk one, is
        never read."""
        registry, entry = registered
        models = registry.root / "models"
        (models / f"v{entry.version:04d}.arrays.npz").write_bytes(b"junk")
        loaded, _ = registry.load(entry.version)
        for name in ("features", "theta"):
            stacked = getattr(loaded._tensors, name)
            expected = getattr(fitted["model"]._tensors, name)
            assert stacked.dtype == expected.dtype
            assert np.array_equal(stacked, expected), name

    def test_loaded_model_predicts_bit_identically(self, registered, fitted):
        registry, entry = registered
        training = fitted["training"]
        loaded, _ = registry.load(entry.version)
        counters = PerfCounters(*training.counters[1, 2, :])
        reference = reference_distribution(
            fitted["model"], counters, training.machines[2]
        )
        assert_distribution_exact(
            reference,
            loaded.predict_distribution(counters, training.machines[2]),
        )


class TestServiceBatchEquivalence:
    def test_batched_predict_matches_scalar_service_byte_for_byte(
        self, tmp_path, tiny_data
    ):
        """The acceptance gate: batched /predict answers must serialise to
        the exact bytes the scalar reference ranks."""
        trainer = Session("tiny", cache_dir=tmp_path, use_disk_cache=False)
        trainer.models.fit(tiny_data.training)
        trainer.models.register(promote=True)

        machine = tiny_data.training.machines[0]
        names = tiny_data.training.program_names[:3]
        payload = {
            "items": [
                {"program": name, "machine": dataclasses.asdict(machine), "top": 3}
                for name in names
            ]
        }
        session = Session("tiny", cache_dir=tmp_path, use_disk_cache=False)
        service = PredictionService(session)
        model, _ = service._promoted_model()
        expected = [
            reference_ranked(
                model,
                session.eval.evaluate(name, machine).counters,
                machine,
                3,
                program=name,
            ).payload()
            for name in names
        ]
        assert canonical_json(service.predict(payload)["results"]) == (
            canonical_json(expected)
        )


class TestRewiredCallSites:
    def test_session_ranking_and_folds_match_reference(
        self, tiny_data
    ):
        """Every model-tier call site a session drives — ranking, batched
        modes, neighbours, and a protocol fold — answers exactly what the
        scalar reference answers."""
        training = tiny_data.training
        session = Session("tiny", use_disk_cache=False)
        model = session.models.fit(training)
        machine = training.machines[0]
        counters = PerfCounters(*training.counters[0, 0, :])

        ranked = session.models.rank_counters(counters, machine, 3)
        assert canonical_json(ranked.payload()) == canonical_json(
            reference_ranked(model, counters, machine, 3).payload()
        )
        reference, neighbours = model.reference_knn(counters, machine)
        assert model.predict_many([counters], [machine]) == [reference.mode()]
        assert model.neighbours(counters, machine) == neighbours

        from repro.evalrun.oracle import RuntimeOracle
        from repro.evalrun.pipeline import compute_fold
        from repro.evalrun.variants import BASE_VARIANT

        program = training.program_names[0]
        record = compute_fold(
            training,
            BASE_VARIANT,
            program,
            RuntimeOracle(training, tiny_data.programs),
            model,
        )
        assert len(record.rows) == len(training.machines)
        for m, row in enumerate(record.rows):
            mode = reference_distribution(
                model,
                PerfCounters(*training.counters[0, m, :]),
                training.machines[m],
                program,
                training.machines[m],
            ).mode()
            assert row.setting == mode.as_indices()
