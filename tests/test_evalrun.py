"""The resumable paper-protocol pipeline: store, oracle, pipeline, report.

The load-bearing guarantees, each tested directly:

* the fold store is append-only, digest-verified, and resumable;
* the oracle answers grid settings from the store-assembled matrix with
  zero simulation and memoises out-of-grid pricing; its batched
  form (one ``runtime_many`` call per fold) equals the same sequence of
  ``runtime`` calls and still rejects a swapped binary;
* `protocol.run` output is bit-identical across serial/process
  executors and across a kill-and-resume cycle, with zero re-simulation
  of folds already checkpointed (the simulation-call counter);
* the report renderer subsets artifacts and refuses missing variants.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.api import Session
from repro.evalrun import (
    EvaluationPipeline,
    FoldKey,
    FoldRecord,
    FoldRow,
    FoldStore,
    FoldStoreError,
    RuntimeOracle,
    fold_fingerprint,
    protocol_fingerprint,
    protocol_variants,
    render_report,
    resolve_artifacts,
    variants_for_artifacts,
)
from repro.compiler.flags import DEFAULT_SPACE, o3_setting
from repro.compiler.pipeline import Compiler
from repro.core.predictor import OptimisationPredictor
from repro.evalrun.oracle import OracleError
from repro.evalrun.pipeline import assemble_protocol, compute_fold
from repro.evalrun.variants import make_predictor
from repro.sim.analytic import simulate_analytic
from repro.sim.counters import PerfCounters


def _variants(tiny_data):
    return protocol_variants(
        with_code=tiny_data.training.code_features is not None
    )


def _store(tiny_data, root=None):
    variants = _variants(tiny_data)
    return FoldStore(
        protocol_fingerprint(tiny_data.training, variants),
        variants,
        list(tiny_data.training.program_names),
        root=root,
    )


def _pipeline(tiny_data, store, **kwargs):
    return EvaluationPipeline(
        tiny_data.training, tiny_data.programs, store, **kwargs
    )


def _record(variant="base", program="qsort", runtime=1.5):
    return FoldRecord(
        key=FoldKey(variant, program),
        rows=(
            FoldRow(
                machine=0,
                setting=tuple([0] * 39),
                predicted_runtime=runtime,
                o3_runtime=2.0,
                best_runtime=1.0,
            ),
        ),
    )


class TestFoldStore:
    def test_roundtrip_on_disk(self, tiny_data, tmp_path):
        store = _store(tiny_data, root=tmp_path / "proto")
        record = _record()
        store.write_fold(record)
        assert store.has(record.key)
        loaded = store.read_fold(record.key)
        assert loaded == record
        assert fold_fingerprint(loaded) == fold_fingerprint(record)

    def test_corrupt_shard_is_treated_as_pending(self, tiny_data, tmp_path):
        store = _store(tiny_data, root=tmp_path / "proto")
        record = _record()
        store.write_fold(record)
        path = store._fold_path(record.key)
        shard = json.loads(path.read_text())
        shard["record"]["rows"][0]["predicted_runtime"] = 123.0
        path.write_text(json.dumps(shard))
        fresh = _store(tiny_data, root=tmp_path / "proto")
        assert not fresh.has(record.key)
        assert record.key in fresh.pending_keys()
        with pytest.raises(FoldStoreError, match="not in store|corrupt"):
            fresh.read_fold(record.key)

    def test_schema_malformed_shard_is_treated_as_pending(
        self, tiny_data, tmp_path
    ):
        """A shard that parses as JSON but has the wrong shape (foreign
        file, partial hand edit) must read as pending, not crash resume."""
        store = _store(tiny_data, root=tmp_path / "proto")
        record = _record()
        store.write_fold(record)
        path = store._fold_path(record.key)
        for malformed in (
            '{"not": "a shard"}',
            '{"protocol_fingerprint": "%s", "record": {"variant": "base"}}'
            % store.identity,
            "[]",
        ):
            path.write_text(malformed)
            fresh = _store(tiny_data, root=tmp_path / "proto")
            assert not fresh.has(record.key)
            assert record.key in fresh.pending_keys()

    def test_malformed_record_reads_as_fold_store_error(self, tiny_data, tmp_path):
        """``read_fold`` diagnoses a shard without a record, or with
        malformed rows, instead of leaking a ``KeyError``."""
        store = _store(tiny_data, root=tmp_path / "proto")
        record = _record()
        store.write_fold(record)
        path = store._fold_path(record.key)
        shard = json.loads(path.read_text())
        no_record = {key: value for key, value in shard.items() if key != "record"}
        bad_rows = dict(shard, record=dict(shard["record"], rows=[{"machine": 0}]))
        for malformed in (no_record, bad_rows):
            path.write_text(json.dumps(malformed))
            fresh = _store(tiny_data, root=tmp_path / "proto")
            with pytest.raises(FoldStoreError, match="corrupt"):
                fresh.read_fold(record.key)

    def test_reopen_rejects_different_protocol(self, tiny_data, tmp_path):
        _store(tiny_data, root=tmp_path / "proto")
        variants = _variants(tiny_data)
        with pytest.raises(FoldStoreError, match="different protocol"):
            FoldStore(
                "0" * 16,
                variants,
                list(tiny_data.training.program_names),
                root=tmp_path / "proto",
            )

    def test_foreign_record_rejected(self, tiny_data):
        store = _store(tiny_data)
        with pytest.raises(FoldStoreError, match="not in this protocol grid"):
            store.write_fold(_record(variant="no-such-variant"))

    def test_fold_keys_subset_and_status(self, tiny_data):
        store = _store(tiny_data)
        base_keys = list(store.unit_keys(["base"]))
        assert [key.variant for key in base_keys] == ["base"] * len(
            store.programs
        )
        status = store.status()
        assert status.total_units == store.total_units()
        assert status.completed_units == 0
        assert not status.complete
        assert "pending" in status.render()


class _SwappingCompiler(Compiler):
    """Hands back another program's binary, or one compiled under other
    flags, from the batch entry every compile goes through."""

    def __init__(self, wrong_program=None, wrong_setting=None):
        super().__init__(cache=False)
        self.wrong_program = wrong_program
        self.wrong_setting = wrong_setting

    def compile_many(self, program, settings):
        if self.wrong_program is not None:
            return super().compile_many(self.wrong_program, settings)
        return super().compile_many(program, [self.wrong_setting] * len(settings))


class _FixedPredictor:
    """A duck-typed predictor that proposes one setting everywhere."""

    def __init__(self, setting):
        self.setting = setting

    def predict(self, counters, machine, **_):
        return self.setting


class TestRuntimeOracle:
    def test_grid_setting_is_a_store_hit(self, tiny_data):
        oracle = RuntimeOracle(tiny_data.training, tiny_data.programs)
        program = tiny_data.training.program_names[1]
        machine = tiny_data.training.machines[3]
        setting = tiny_data.training.settings[7]
        expected = float(tiny_data.training.runtimes[1, 7, 3])
        assert oracle.runtime(program, setting, machine) == expected
        assert oracle.store_hits == 1
        assert oracle.simulation_calls == 0

    def test_out_of_grid_setting_simulates_once(self, tiny_data):
        from repro.compiler.flags import o3_setting

        oracle = RuntimeOracle(tiny_data.training, tiny_data.programs)
        program = tiny_data.training.program_names[0]
        machine = tiny_data.training.machines[0]
        synthetic = o3_setting().with_values(
            funroll_loops=True, param_max_unroll_times=16
        )
        first = oracle.runtime(program, synthetic, machine)
        second = oracle.runtime(program, synthetic, machine)
        assert first == second
        assert oracle.simulation_calls == 1  # memoised, not re-simulated

    def test_runtime_many_equals_runtime_sequence(self, tiny_data):
        """In-grid, out-of-grid and repeated (setting, machine) pairs:
        one batched call answers, counts and memoises exactly like the
        same sequence of single calls."""
        training = tiny_data.training
        program = training.program_names[2]
        machines = list(training.machines)
        off_grid = DEFAULT_SPACE.sample_many(2, seed=991)
        unrolled = o3_setting().with_values(funroll_loops=True)
        settings = (
            [training.settings[3], off_grid[0], unrolled, off_grid[1]]
            * len(machines)
        )[: 2 * len(machines)]
        pairs = list(zip(settings, machines * 2))
        pairs += [pairs[1], pairs[1], (training.settings[3], machines[0])]

        batched = RuntimeOracle(training, tiny_data.programs)
        sequential = RuntimeOracle(training, tiny_data.programs)
        many = batched.runtime_many(
            program, [s for s, _ in pairs], [m for _, m in pairs]
        )
        each = [sequential.runtime(program, s, m) for s, m in pairs]
        assert many == each
        assert batched.store_hits == sequential.store_hits > 0
        simulated = batched.simulation_calls
        assert simulated == sequential.simulation_calls > 0
        # Both memoised the same pairs: a second batch on either is
        # answered from the store and the memo alone.
        for oracle in (batched, sequential):
            again = oracle.runtime_many(
                program, [s for s, _ in pairs], [m for _, m in pairs]
            )
            assert again == many
            assert oracle.simulation_calls == simulated

    def test_runtime_many_prices_with_simulate_analytic(self, tiny_data):
        training = tiny_data.training
        oracle = RuntimeOracle(training, tiny_data.programs)
        off_grid = DEFAULT_SPACE.sample_many(1, seed=991)[0]
        program = training.program_names[0]
        seconds = oracle.runtime_many(
            program, [off_grid] * len(training.machines), training.machines
        )
        assert oracle.simulation_calls == len(training.machines)
        binary = Compiler().compile(tiny_data.programs[0], off_grid)
        assert seconds == [
            simulate_analytic(binary, each).seconds
            for each in training.machines
        ]

    @pytest.mark.parametrize("swap", ["program", "setting"])
    def test_batched_fold_path_rejects_swapped_binary(self, tiny_data, swap):
        training = tiny_data.training
        program = training.program_names[0]
        wrong = tiny_data.programs[1] if swap == "program" else None
        compiler = _SwappingCompiler(
            wrong_program=wrong,
            wrong_setting=o3_setting() if swap == "setting" else None,
        )
        oracle = RuntimeOracle(training, tiny_data.programs, compiler=compiler)
        predictor = _FixedPredictor(
            o3_setting().with_values(funroll_loops=True)
        )
        variant = _variants(tiny_data)[0]
        with pytest.raises(OracleError, match="binary swap"):
            compute_fold(training, variant, program, oracle, predictor)

        honest = RuntimeOracle(training, tiny_data.programs)
        record = compute_fold(training, variant, program, honest, predictor)
        binary = Compiler().compile(tiny_data.programs[0], predictor.setting)
        assert [row.predicted_runtime for row in record.rows] == [
            simulate_analytic(binary, machine).seconds
            for machine in training.machines
        ]

    def test_unknown_program_and_machine_rejected(self, tiny_data):
        from repro.machine.xscale import xscale

        oracle = RuntimeOracle(tiny_data.training, tiny_data.programs)
        with pytest.raises(OracleError, match="unknown program"):
            oracle.o3_runtime("nonesuch", tiny_data.training.machines[0])
        with pytest.raises(OracleError, match="not in the training grid"):
            oracle.o3_runtime(tiny_data.training.program_names[0], xscale())


#: A small artifact subset: base + the K sweep — 6 variants × 6 programs.
SUBSET = "headline,ablate-k"


class TestPipelineDeterminism:
    def _report_bytes(self, tiny_data, executor, jobs):
        store = _store(tiny_data)
        pipeline = _pipeline(tiny_data, store, jobs=jobs, executor=executor)
        keys = variants_for_artifacts(resolve_artifacts(SUBSET))
        pipeline.run(variants=keys)
        protocol = pipeline.assemble(variants=keys)
        report = render_report(tiny_data, protocol, only=SUBSET)
        return protocol.fold_fingerprint, report.markdown, report.json_text()

    def test_bit_identical_across_executors(self, tiny_data):
        serial = self._report_bytes(tiny_data, "serial", 1)
        process = self._report_bytes(tiny_data, "process", 2)
        assert serial == process

    def test_kill_and_resume_is_bit_identical_with_zero_resim(self, tiny_data):
        keys = variants_for_artifacts(resolve_artifacts(SUBSET))
        single_shot = self._report_bytes(tiny_data, "serial", 1)

        # "Kill" after 4 checkpointed folds, then resume with a fresh
        # pipeline (fresh oracle, fresh predictors — as after a real kill).
        store = _store(tiny_data)
        first = _pipeline(tiny_data, store).run(variants=keys, max_folds=4)
        assert first.folds_computed == 4
        resumed = _pipeline(tiny_data, store)
        stats = resumed.run(variants=keys)
        assert stats.folds_skipped == 4  # checkpointed folds never rerun
        protocol = resumed.assemble(variants=keys)
        report = render_report(tiny_data, protocol, only=SUBSET)
        assert (
            protocol.fold_fingerprint,
            report.markdown,
            report.json_text(),
        ) == single_shot

        # A second resume finds everything checkpointed: zero folds,
        # zero simulations — the re-simulation counter stays at rest.
        final = _pipeline(tiny_data, store)
        stats = final.run(variants=keys)
        assert stats.folds_computed == 0
        assert stats.simulation_calls == 0
        assert stats.store_hits == 0

    def test_resume_never_resimulates_checkpointed_folds(
        self, tiny_data, monkeypatch
    ):
        """Belt and braces for the counter: patch the simulator itself
        and assert a fully checkpointed store triggers no calls."""
        store = _store(tiny_data)
        keys = variants_for_artifacts(resolve_artifacts(SUBSET))
        _pipeline(tiny_data, store).run(variants=keys)

        import repro.search.evaluator as pricer_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("checkpointed fold was re-simulated")

        # The oracle's pricers run the analytic model they look up in
        # their own module at call time.
        monkeypatch.setattr(pricer_module, "simulate_analytic", boom)
        stats = _pipeline(tiny_data, store).run(variants=keys)
        assert stats.folds_computed == 0
        protocol = assemble_protocol(store, tiny_data.training, variants=keys)
        assert render_report(tiny_data, protocol, only=SUBSET).markdown

    def test_store_hits_feed_joint_variant_from_grid(self, tiny_data):
        """The joint-vote variant predicts observed grid settings, so its
        folds are priced from the store without a single simulation."""
        store = _store(tiny_data)
        pipeline = _pipeline(tiny_data, store)
        stats = pipeline.run(variants=["joint"])
        assert stats.folds_computed == len(store.programs)
        assert stats.store_hits > 0
        assert stats.simulation_calls == 0


class TestOneFitPerKey:
    """The fold worker fits once per (quantile, feature mode) and hands
    the K and β variants views of that fit; the memo must never serve a
    prediction a fresh fit would not."""

    def test_one_fit_per_key_and_folds_equal_fresh_fits(
        self, tiny_data, monkeypatch
    ):
        fits = []
        real_fit = OptimisationPredictor.fit

        def counted(predictor, training):
            fits.append((predictor.quantile, predictor.feature_mode))
            return real_fit(predictor, training)

        monkeypatch.setattr(OptimisationPredictor, "fit", counted)
        store = _store(tiny_data)
        _pipeline(tiny_data, store).run()
        monkeypatch.undo()
        variants = _variants(tiny_data)
        keys = {
            (float(v.param("quantile", 0.05)), v.param("feature_mode", "both"))
            for v in variants
            if v.kind != "joint"
        }
        assert len(fits) == len(set(fits)) == len(keys) == 7

        training = tiny_data.training
        oracle = RuntimeOracle(training, tiny_data.programs)
        for variant in variants:
            fresh = make_predictor(variant, training).fit(training)
            for program in store.programs:
                record = compute_fold(training, variant, program, oracle, fresh)
                stored = store.read_fold(FoldKey(variant.key, program))
                assert json.dumps(stored.payload()) == json.dumps(
                    record.payload()
                ), variant.key

    def test_view_has_its_own_k_and_beta(self, tiny_data):
        training = tiny_data.training
        base = OptimisationPredictor().fit(training)
        queries = (
            [PerfCounters(*training.counters[p, 0, :])
             for p in range(len(training.program_names))],
            [training.machines[0]] * len(training.program_names),
            list(training.program_names),
        )

        def thetas(predictor):
            return [
                [probs.tolist() for probs in distribution.theta]
                for distribution in predictor.predict_distribution_many(
                    *queries
                )
            ]

        before = thetas(base)
        view = base.with_query(1, 4.0)
        assert (view.k, view.beta, base.k, base.beta) == (1, 4.0, 7, 1.0)
        assert view._tensors is base._tensors  # shared, not re-fitted
        assert thetas(view) != before
        fresh = OptimisationPredictor(k=1, beta=4.0).fit(training)
        assert thetas(view) == thetas(fresh)
        assert thetas(base) == before
        with pytest.raises(ValueError, match="k must be >= 1"):
            base.with_query(0, 1.0)


class TestRunProtocolSession:
    def test_session_protocol_end_to_end(self, tiny_protocol):
        report = tiny_protocol.report
        assert tiny_protocol.complete
        assert report.artifacts == list(resolve_artifacts(None))
        assert "# Paper protocol report" in report.markdown
        payload = json.loads(report.json_text())
        assert payload["scale"] == "tiny"
        assert set(payload["artifacts"]) == set(report.artifacts)
        assert payload["headline"]["mean_best_speedup"] >= 1.0

    def test_max_folds_cap_returns_incomplete(self, tiny_data):
        session = Session("tiny", use_disk_cache=False)
        store = session.protocol.store(tiny_data)
        outcome = session.protocol.run(
            only=SUBSET, max_folds=2, store=store
        )
        assert not outcome.complete
        assert outcome.report is None
        assert outcome.stats.folds_computed == 2
        assert outcome.status.completed_units == 2

    def test_only_subset_runs_no_extra_folds(self, tiny_data):
        session = Session("tiny", use_disk_cache=False)
        store = session.protocol.store(tiny_data)
        outcome = session.protocol.run(only="fig4,table2", store=store)
        assert outcome.complete
        # fig4/table2 need no folds at all: nothing computed, nothing
        # simulated, and the report still renders.
        assert outcome.stats.folds_computed == 0
        assert outcome.stats.simulation_calls == 0
        assert outcome.report.artifacts == ["table2", "fig4"]


class TestReportRenderer:
    def test_resolve_artifacts_aliases_and_order(self):
        assert resolve_artifacts("figure5,table2") == ["table2", "fig5"]
        assert resolve_artifacts(["HEADLINE"]) == ["headline"]
        with pytest.raises(ValueError, match="unknown artifact"):
            resolve_artifacts("fig99")

    def test_variants_for_artifacts(self):
        assert variants_for_artifacts(["fig4", "table2"]) == []
        knn = variants_for_artifacts(["ablate-k"])
        assert knn[0] == "base"
        assert set(knn) == {"base", "k-1", "k-3", "k-5", "k-11", "k-15"}

    def test_report_refuses_missing_variants(self, tiny_data):
        store = _store(tiny_data)
        pipeline = _pipeline(tiny_data, store)
        pipeline.run(variants=["base"])
        protocol = pipeline.assemble(variants=["base"])
        with pytest.raises(ValueError, match="needs protocol variants"):
            render_report(tiny_data, protocol, only="ablate-k")
        # While the base-only artifacts render fine.
        report = render_report(tiny_data, protocol, only="fig6,headline")
        assert report.artifacts == ["fig6", "headline"]


class TestReportCli:
    def test_report_cap_then_resume_matches_single_shot(
        self, tiny_data, tmp_path, capsys
    ):
        cache_a, cache_b = str(tmp_path / "a"), str(tmp_path / "b")
        out_a, out_b = tmp_path / "outA", tmp_path / "outB"
        args = ["report", "--scale", "tiny", "--quiet", "--only", SUBSET]
        assert cli.main(args + ["--cache-dir", cache_a, "--out", str(out_a)]) == 0
        # Killed run: capped, then resumed in a separate cache.
        assert (
            cli.main(
                args
                + ["--cache-dir", cache_b, "--out", str(out_b), "--max-folds", "3"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "resume with:" in output
        assert not (out_b / "report-tiny.md").exists()
        assert (
            cli.main(
                args + ["--cache-dir", cache_b, "--out", str(out_b), "--resume"]
            )
            == 0
        )
        assert (out_a / "report-tiny.md").read_bytes() == (
            out_b / "report-tiny.md"
        ).read_bytes()
        assert (out_a / "report-tiny.json").read_bytes() == (
            out_b / "report-tiny.json"
        ).read_bytes()

    def test_completed_only_run_rerenders_without_resume(
        self, tiny_data, tmp_path, capsys
    ):
        """A finished --only selection is complete for what it needs:
        re-invoking the identical command re-renders without --resume,
        and widening the selection computes only the new variants' folds
        (every requested variant is complete or untouched, so nothing
        was interrupted)."""
        cache = str(tmp_path / "cache")
        args = ["report", "--scale", "tiny", "--quiet", "--only", "headline",
                "--cache-dir", cache, "--out", str(tmp_path)]
        assert cli.main(args) == 0
        assert cli.main(args) == 0  # complete for 'headline': no --resume
        capsys.readouterr()
        assert cli.main(
            ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
             "--cache-dir", cache, "--out", str(tmp_path)]
        ) == 0
        widened = len(variants_for_artifacts(["ablate-k"])) - 1  # minus base
        programs = len(tiny_data.training.program_names)
        assert (
            f"protocol: {widened * programs} folds computed"
            in capsys.readouterr().out
        )

    def test_incomplete_hint_echoes_selection_flags(self, tiny_data, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert (
            cli.main(
                ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
                 "--cache-dir", cache, "--out", str(tmp_path / "out"),
                 "--max-folds", "2", "--jobs", "2", "--executor", "process"]
            )
            == 0
        )
        hint = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("resume with:")
        ][0]
        for fragment in (f"--only {SUBSET}", "--jobs 2", "--executor process",
                         f"--cache-dir {cache}", "--out"):
            assert fragment in hint

    def test_report_refuses_partial_store_without_resume(
        self, tiny_data, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert (
            cli.main(
                ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
                 "--cache-dir", cache, "--out", str(tmp_path), "--max-folds", "2"]
            )
            == 0
        )
        with pytest.raises(SystemExit):
            cli.main(
                ["report", "--scale", "tiny", "--quiet", "--only", SUBSET,
                 "--cache-dir", cache, "--out", str(tmp_path)]
            )

    def test_report_flags_rejected_outside_report(self, tmp_path):
        for flags in (["--max-folds", "2"], ["--only", "fig4"], ["--out", "x"]):
            with pytest.raises(SystemExit):
                cli.main(["fig3", "--quiet", *flags])
        with pytest.raises(SystemExit):
            cli.main(["report", "--scale", "tiny", "--max-folds", "0",
                      "--cache-dir", str(tmp_path)])
