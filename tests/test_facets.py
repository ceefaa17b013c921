"""Session API v2: facets, the unified search dispatch, and the examples."""

from __future__ import annotations

import gc
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.api import (
    SEARCH_ALGORITHMS,
    DataFacet,
    EvalFacet,
    EvaluationRequest,
    ModelsFacet,
    ProtocolFacet,
    Session,
)
from repro.autotune import GUIDED_STRATEGIES, run_traced
from repro.programs import mibench_program
from repro.search import Evaluator

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def session():
    return Session("tiny", use_disk_cache=False)


@pytest.fixture(scope="module")
def fitted(session):
    session.models.fit()
    return session


class TestFacetConstruction:
    def test_used_session_is_freed_without_gc(self, machine):
        # Facets are views built per access; a session must not hold
        # them, or the cycle would keep it, its compiler (with the pass
        # memo) and its dataset alive until a cyclic GC pass.
        gc.collect()
        gc.disable()
        try:
            fresh = Session("tiny", use_disk_cache=False)
            assert isinstance(fresh.data, DataFacet)
            assert isinstance(fresh.models, ModelsFacet)
            assert isinstance(fresh.eval, EvalFacet)
            assert isinstance(fresh.protocol, ProtocolFacet)
            assert fresh.data._session is fresh
            fresh.eval.search(
                program="crc", machine=machine, algorithm="random", budget=12, seed=3
            )
            refs = [weakref.ref(fresh), weakref.ref(fresh.compiler)]
            del fresh
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_facets_share_session_state(self, fitted):
        # The models facet fitted the model; every surface sees it.
        assert fitted.models.model is fitted.model
        assert fitted.models.fingerprint == fitted.model_fingerprint
        assert fitted.model_fingerprint is not None

    def test_session_has_no_flat_forwarders(self):
        """Every action lives on a facet; the pre-v2 flat spellings are
        gone from the Session class."""
        for flat in _REMOVED_FLAT_METHODS:
            assert not hasattr(Session, flat), flat

    def test_eval_batch_round_trip(self, session, machine):
        results = session.eval.batch(
            [EvaluationRequest("sha", machine), ("crc", machine)]
        )
        assert [result.program for result in results] == ["sha", "crc"]

    def test_eval_batch_equals_evaluate(self, session):
        """A serial batch is the per-request evaluate path, item by item:
        every simulation field, program, machine and setting agree."""
        machines = session.machines(2, seed=31)
        requests = [
            (name, each) for name in ("crc", "search") for each in machines
        ]
        batch = session.eval.batch(requests)
        single = [session.eval.evaluate(*request) for request in requests]
        assert batch == single

    def test_models_predict_and_rank_agree(self, fitted, machine):
        prediction = fitted.models.predict("sha", machine, evaluate=False)
        ranked = fitted.models.rank("sha", machine, top=3)
        assert ranked.best == prediction.setting
        assert [entry.rank for entry in ranked.settings] == [1, 2, 3]
        probabilities = [entry.probability for entry in ranked.settings]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_rank_payload_is_json_ready(self, fitted, machine):
        import json

        ranked = fitted.models.rank("sha", machine, top=2)
        payload = ranked.payload()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["settings"][0]["rank"] == 1
        assert round_tripped["machine"]["il1_size"] == machine.il1_size

    def test_protocol_facet_runs_capped(self):
        capped = Session("tiny", use_disk_cache=False)
        seen = []
        outcome = capped.protocol.run(
            only="headline",
            max_folds=2,
            on_fold=lambda key, done, total: seen.append((key.stem(), done, total)),
        )
        assert not outcome.complete
        assert len(seen) == 2
        assert seen[0][1] == 1 and seen[1][1] == 2
        assert seen[0][2] == seen[1][2]  # stable total


#: The pre-v2 flat Session methods, removed in favour of the facets.
_REMOVED_FLAT_METHODS = (
    "evaluate",
    "evaluate_batch",
    "speedup_over_o3",
    "evaluator",
    "search",
    "dataset",
    "experiment_store",
    "dataset_status",
    "build_dataset",
    "protocol_store",
    "run_protocol",
    "fit",
    "predict",
    "save_model",
    "load_model",
)

#: Flat spellings that must not appear in the examples.
_DEPRECATED_SPELLINGS = tuple(
    f".{name}("
    for name in (
        "evaluate_batch",
        "run_protocol",
        "save_model",
        "load_model",
        "build_dataset",
        "dataset_status",
        "experiment_store",
        "protocol_store",
        "speedup_over_o3",
    )
) + ("session.evaluate(", "session.fit(", "session.predict(", "session.search(",
     "deployment.predict(", "deployment.evaluate_batch(")


class TestExamplesOnFacets:
    def test_examples_exist(self):
        assert len(list(EXAMPLES_DIR.glob("*.py"))) == 4

    @pytest.mark.parametrize(
        "example", sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
    )
    def test_example_uses_no_deprecated_spelling(self, example):
        text = (EXAMPLES_DIR / example).read_text()
        hits = [spelling for spelling in _DEPRECATED_SPELLINGS if spelling in text]
        assert not hits, f"{example} still uses removed flat calls: {hits}"

    @pytest.mark.parametrize(
        "example", sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
    )
    def test_example_runs_warning_clean(self, example):
        """Every example runs end to end with DeprecationWarning as error."""
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        result = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning",
             str(EXAMPLES_DIR / example)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, (
            f"{example} failed under -W error::DeprecationWarning:\n"
            f"{result.stdout}\n{result.stderr}"
        )


#: Every name session.eval.search dispatches: six strategies plus an alias.
SEARCH_NAMES = (
    "random",
    "hillclimb",
    "genetic",
    "combined-elimination",
    "model-genetic",
    "beam",
    "ce",
)


class TestSearchDispatch:
    def test_table_is_every_strategy_plus_ce(self):
        assert set(SEARCH_ALGORITHMS) == set(SEARCH_NAMES)
        assert SEARCH_ALGORITHMS["ce"] is SEARCH_ALGORITHMS["combined-elimination"]

    @pytest.mark.parametrize("name", SEARCH_NAMES)
    def test_facet_equals_direct_run_strategy(self, fitted, machine, name):
        """The facet is one table lookup plus one run_traced call; only
        guided strategies get the profile-run distribution."""
        outcome = fitted.eval.search(
            program="sha", machine=machine, algorithm=name, budget=12, seed=5
        )
        evaluator = Evaluator(program=mibench_program("sha"), machine=machine)
        o3_runtime = evaluator.o3_runtime()
        distribution = None
        if name in GUIDED_STRATEGIES:
            profile = fitted.eval.evaluate("sha", machine)
            distribution = fitted.model.predict_distribution(
                profile.counters, machine
            )
        direct = run_traced(
            SEARCH_ALGORITHMS[name](),
            evaluator,
            12,
            seed=5,
            distribution=distribution,
            o3_runtime=o3_runtime,
        )
        assert outcome.algorithm == name
        assert outcome.o3_runtime == o3_runtime
        assert (outcome.best_setting, outcome.best_runtime) == direct.answer
        assert outcome.evaluations == direct.evaluations
        assert list(outcome.trajectory) == direct.trajectory

    def test_unknown_name_lists_all_seven(self, session, machine):
        with pytest.raises(ValueError) as excinfo:
            session.eval.search(
                program="sha", machine=machine, algorithm="nope", budget=5
            )
        for name in SEARCH_NAMES:
            assert repr(name) in str(excinfo.value)

    @pytest.mark.parametrize("name", ["random", "ce"])
    def test_zero_budget_rejected(self, session, machine, name):
        with pytest.raises(ValueError, match="budget"):
            session.eval.search(
                program="sha", machine=machine, algorithm=name, budget=0
            )


class TestEvalTournament:
    def test_guided_search_through_facet(self, fitted, machine):
        outcome = fitted.eval.search(
            program="sha", machine=machine, algorithm="model-genetic",
            budget=15, seed=0,
        )
        assert outcome.algorithm == "model-genetic"
        assert outcome.evaluations <= 15
        assert outcome.best_runtime <= outcome.o3_runtime * 1.5

    def test_unknown_algorithm_lists_guided_names(self, session, machine):
        with pytest.raises(ValueError, match="model-genetic"):
            session.eval.search(
                program="sha", machine=machine, algorithm="nope", budget=5
            )

    def test_tournament_on_tiny_pair(self, fitted):
        result = fitted.eval.tournament(
            programs=["sha"], machines=1, budget=10, seeds=(0,),
        )
        names = {standing.strategy for standing in result.standings}
        assert {"random", "model-genetic", "beam"} <= names
        assert result.budget == 10
        # Every pair got a best-known floor and every run respects budget.
        assert set(result.best_known) == {("sha", "m0")}
        assert all(run.evaluations <= 10 for run in result.runs)

    def test_tournament_fits_model_when_absent(self):
        fresh = Session("tiny", use_disk_cache=False)
        assert fresh.model is None
        result = fresh.eval.tournament(
            programs=["sha"], machines=1, budget=8, seeds=(0,),
            strategies=["random", "model-genetic"],
        )
        assert fresh.model is not None
        assert {s.strategy for s in result.standings} == {
            "random", "model-genetic",
        }
