"""``repro-experiments fsck``: classification and repair of every
corruption class across the four durable store families.

The contract under test, per store:

* every damaged artifact is *classified* (corrupt / torn-tail /
  digest-mismatch / orphaned / stale-lease), never silently skipped;
* ``--repair`` quarantines (or exactly repairs: truncated journal
  tails, rewritten promotion pointers, deleted tombstones) so that the
  next resume rebuilds exactly the damaged units — intact work is
  never re-simulated;
* the CLI exits 1 while unrepaired problems remain and 0 once the
  cache is clean or fully repaired.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.api.registry import ModelRegistry
from repro.evalrun.foldstore import FoldStore
from repro.evalrun.pipeline import EvaluationPipeline
from repro.evalrun.variants import make_predictor, protocol_fingerprint, variant_by_key
from repro.experiments.config import Scale
from repro.experiments.dataset import grid_for_scale
from repro.faults.fsck import FsckReport, fsck_cache, fsck_path
from repro.ioutil import QUARANTINE_DIR
from repro.programs.mibench import mibench_program
from repro.service.jobs import JobJournal, JobManager, _chain_seed
from repro.store import ExperimentRunner, ExperimentStore

SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)


@pytest.fixture(scope="module")
def smoke_grid():
    return grid_for_scale(SMOKE, chunk_machines=2)


@pytest.fixture(scope="module")
def clean_cache(smoke_grid, tmp_path_factory):
    """A fully populated cache root: experiment store, fold store,
    registry (two promoted versions), and one finished job journal."""
    cache = tmp_path_factory.mktemp("fsck") / "cache"
    cache.mkdir()
    store = ExperimentStore(
        smoke_grid, cache / f"store-smoke-{smoke_grid.fingerprint()}"
    )
    ExperimentRunner(store).run()

    training = store.assemble()
    variants = [variant_by_key("base")]
    fingerprint = protocol_fingerprint(training, variants)
    folds = FoldStore(
        fingerprint,
        variants,
        list(training.program_names),
        root=cache / f"protocol-smoke-{fingerprint}",
    )
    programs = [mibench_program(name) for name in training.program_names]
    EvaluationPipeline(training, programs, folds).run()

    registry = ModelRegistry(cache / "registry")
    predictor = make_predictor(variants[0], training).fit(training)
    registry.register(predictor, fingerprint=fingerprint, metadata={"gen": 1}, promote=True)
    registry.register(predictor, fingerprint=fingerprint, metadata={"gen": 2}, promote=True)

    journal = JobJournal.create(cache / "jobs" / "job-0001", "job-0001", {"kind": "noop"})
    _, chain = journal.load_events("job-0001")
    chain = journal.append({"event": "started", "job": "job-0001"}, chain)
    journal.append({"event": "complete", "job": "job-0001"}, chain)

    return {
        "cache": cache,
        "store_fingerprint": store.fingerprint(),
        "protocol_fingerprint": fingerprint,
        "fold_fingerprint": folds.fingerprint(),
    }


@pytest.fixture
def cache_copy(clean_cache, tmp_path):
    copy = tmp_path / "cache"
    shutil.copytree(clean_cache["cache"], copy)
    return copy


def _status_of(report, fragment):
    matches = [f for f in report.findings if fragment in f.path]
    assert matches, f"no finding mentions {fragment!r}: {[f.path for f in report.findings]}"
    return matches[0]


class TestCleanCache:
    def test_everything_verifies_ok(self, clean_cache):
        report = fsck_cache(clean_cache["cache"])
        assert report.clean
        counts = report.counts()
        assert set(counts) == {"ok"} and counts["ok"] > 5
        assert "every artifact verified clean" in report.render()

    def test_missing_cache_root_is_empty_not_fatal(self, tmp_path):
        report = fsck_cache(tmp_path / "nowhere")
        assert report.clean and not report.findings


class TestExperimentStoreScrub:
    def test_every_corruption_class_is_classified(self, cache_copy, smoke_grid):
        shards = cache_copy / f"store-smoke-{smoke_grid.fingerprint()}" / "shards"
        victims = sorted(shards.glob("*.npz"))
        assert len(victims) >= 4
        zero, torn, mismatch, sidecar_torn = victims[:4]
        zero.write_bytes(b"")
        torn.write_bytes(torn.read_bytes()[:64])
        payload = json.loads(mismatch.with_suffix(".json").read_text())
        payload["fingerprint"] = "0" * len(str(payload["fingerprint"]))
        mismatch.with_suffix(".json").write_text(json.dumps(payload))
        sidecar_torn.with_suffix(".json").write_text('{"torn')
        (shards / "zzzz.json").write_text(json.dumps(payload))  # sidecar, no arrays
        (shards / "yyyy.npz").write_bytes(b"not an npz")  # arrays, no sidecar
        (shards / ".xxxx.npz.123.tmp").write_bytes(b"leftover")

        report = fsck_cache(cache_copy)
        assert _status_of(report, zero.name).status == "torn-tail"
        assert _status_of(report, torn.name).status == "torn-tail"
        assert _status_of(report, mismatch.name).status == "digest-mismatch"
        assert _status_of(report, sidecar_torn.with_suffix(".json").name).status == "corrupt"
        assert _status_of(report, "zzzz.json").status == "orphaned"
        assert _status_of(report, "yyyy.npz").status == "orphaned"
        assert _status_of(report, ".xxxx.npz.123.tmp").status == "orphaned"
        # Read-only by default: nothing was repaired, everything reported.
        assert not any(f.repaired for f in report.findings)
        assert len(report.unrepaired) == 7
        # Every finding is anchored at the cache root, naming its store.
        assert all(f.path.startswith("store-") for f in report.problems)

    def test_foreign_grid_shard_is_orphaned(self, cache_copy, smoke_grid):
        shards = cache_copy / f"store-smoke-{smoke_grid.fingerprint()}" / "shards"
        victim = sorted(shards.glob("*.json"))[0]
        payload = json.loads(victim.read_text())
        payload["grid_fingerprint"] = "feedbeef"
        victim.write_text(json.dumps(payload))
        report = fsck_cache(cache_copy)
        finding = _status_of(report, victim.with_suffix(".npz").name)
        assert finding.status == "orphaned"
        assert "different grid" in finding.detail

    def test_repair_then_resume_rebuilds_only_the_damaged_unit(
        self, cache_copy, smoke_grid, clean_cache
    ):
        root = cache_copy / f"store-smoke-{smoke_grid.fingerprint()}"
        victim = sorted((root / "shards").glob("*.npz"))[0]
        victim.write_bytes(b"")
        total = len(list(ExperimentStore(smoke_grid, root).completed_keys()))

        report = fsck_cache(cache_copy, repair=True)
        assert not report.unrepaired
        # Both halves of the damaged unit moved to quarantine together.
        quarantined = {p.name for p in (root / QUARANTINE_DIR).iterdir()}
        assert quarantined == {victim.name, victim.with_suffix(".json").name}

        store = ExperimentStore(smoke_grid, root)
        assert len(store.pending_keys()) == 1  # exactly the damaged unit
        assert len(list(store.completed_keys())) == total  # intact work kept
        ExperimentRunner(store).run()
        assert store.fingerprint() == clean_cache["store_fingerprint"]


class TestFoldStoreScrub:
    def test_every_corruption_class_is_classified(self, cache_copy, clean_cache):
        root = cache_copy / f"protocol-smoke-{clean_cache['protocol_fingerprint']}"
        folds = sorted((root / "folds").glob("*.json"))
        assert len(folds) >= 2
        torn, mismatch = folds[:2]
        torn.write_text('{"torn')
        payload = json.loads(mismatch.read_text())
        payload["fingerprint"] = "0" * 8
        mismatch.write_text(json.dumps(payload))
        foreign = dict(json.loads(folds[1].read_text()))
        foreign["protocol_fingerprint"] = "feedbeef"
        (root / "folds" / "foreign.json").write_text(json.dumps(foreign))
        (root / "folds" / "empty.json").write_bytes(b"")
        (root / "folds" / ".stray.json.9.tmp").write_bytes(b"leftover")

        report = fsck_cache(cache_copy)
        assert _status_of(report, torn.name).status == "corrupt"
        assert _status_of(report, mismatch.name).status == "digest-mismatch"
        assert _status_of(report, "foreign.json").status == "orphaned"
        assert _status_of(report, "empty.json").status == "torn-tail"
        assert _status_of(report, ".stray.json.9.tmp").status == "orphaned"

    def test_repair_then_resume_restores_the_clean_fingerprint(
        self, cache_copy, clean_cache, smoke_grid
    ):
        root = cache_copy / f"protocol-smoke-{clean_cache['protocol_fingerprint']}"
        victim = sorted((root / "folds").glob("*.json"))[0]
        victim.write_text('{"torn')
        assert not fsck_cache(cache_copy, repair=True).unrepaired

        store = ExperimentStore(
            smoke_grid, cache_copy / f"store-smoke-{smoke_grid.fingerprint()}"
        )
        training = store.assemble()
        variants = [variant_by_key("base")]
        folds = FoldStore(
            clean_cache["protocol_fingerprint"],
            variants,
            list(training.program_names),
            root=root,
        )
        assert len(list(folds.pending_keys())) == 1
        programs = [mibench_program(name) for name in training.program_names]
        EvaluationPipeline(training, programs, folds).run()
        assert folds.fingerprint() == clean_cache["fold_fingerprint"]


class TestRegistryScrub:
    def test_damage_classified_and_pointer_rewritten_from_history(self, cache_copy):
        models = cache_copy / "registry" / "models"
        # v0002 (currently promoted): content no longer matches its digest.
        entry = json.loads((models / "v0002.json").read_text())
        entry["metadata"]["gen"] = 999
        (models / "v0002.json").write_text(json.dumps(entry))
        (models / "v0003.json").write_text('{"torn')  # torn model entry
        # Ranking sidecars an older registry left, with and without an entry.
        (models / "v0001.arrays.npz").write_bytes(b"junk")
        (models / "v0009.arrays.npz").write_bytes(b"junk")

        report = fsck_cache(cache_copy, repair=True)
        assert _status_of(report, "v0002.json").status == "digest-mismatch"
        assert _status_of(report, "v0003.json").status == "corrupt"
        for name in ("v0001.arrays.npz", "v0009.arrays.npz"):
            sidecar = _status_of(report, name)
            assert (sidecar.status, sidecar.repair, sidecar.repaired) == (
                "orphaned", "delete", True
            )
            assert not (models / name).exists()
        pointer = _status_of(report, "promoted.json")
        assert pointer.status == "orphaned" and pointer.repair == "rewrite"
        assert not report.unrepaired

        # The pointer fell back to the surviving version from its own
        # history; the registry loads without error afterwards.
        registry = ModelRegistry(cache_copy / "registry")
        assert registry.promoted_version() == 1
        assert registry.versions() == [1]
        assert fsck_cache(cache_copy).clean

    def test_torn_pointer_quarantines_and_promotions_reset(self, cache_copy):
        pointer = cache_copy / "registry" / "promoted.json"
        pointer.write_text('{"torn')
        report = fsck_cache(cache_copy, repair=True)
        finding = _status_of(report, "promoted.json")
        assert finding.status == "corrupt" and finding.repaired
        assert not pointer.exists()  # quarantined, never silently rewritten
        registry = ModelRegistry(cache_copy / "registry")
        assert registry.promoted_version() is None  # reset, not crashed
        assert registry.versions() == [1, 2]  # models untouched


class TestJobsScrub:
    def _report(self, root, repair):
        report = FsckReport(root=str(root), repair=repair)
        report.findings.extend(JobManager.scrub(root, repair))
        return report

    def test_torn_journal_tail_truncates_to_verified_prefix(self, tmp_path):
        journal = JobJournal.create(tmp_path / "job-0001", "job-0001", {})
        _, chain = journal.load_events("job-0001")
        chain = journal.append({"event": "started"}, chain)
        journal.append({"event": "fold", "fold": "a"}, chain)
        events_path = tmp_path / "job-0001" / JobJournal.EVENTS_NAME
        raw = events_path.read_bytes()
        events_path.write_bytes(raw[:-5])

        report = self._report(tmp_path, repair=True)
        finding = _status_of(report, JobJournal.EVENTS_NAME)
        assert finding.status == "torn-tail" and finding.repaired
        events, _ = journal.load_events("job-0001")
        assert [event["event"] for event in events] == ["started"]
        # The truncated journal now verifies clean end to end.
        assert self._report(tmp_path, repair=False).clean

    def test_corrupt_meta_quarantines_the_whole_job(self, tmp_path):
        JobJournal.create(tmp_path / "job-0001", "job-0001", {})
        (tmp_path / "job-0002").mkdir()
        (tmp_path / "job-0002" / JobJournal.META_NAME).write_text('{"torn')

        report = self._report(tmp_path, repair=True)
        finding = _status_of(report, "job-0002")
        assert finding.status == "corrupt" and finding.repaired
        assert not (tmp_path / "job-0002").exists()
        assert (tmp_path / QUARANTINE_DIR / "job-0002").is_dir()
        assert (tmp_path / "job-0001").is_dir()  # healthy neighbour untouched

    def test_leftover_snapshot_is_orphaned_journal_survives(self, tmp_path):
        """A ``snapshot.json`` that an older release compacted a journal
        into is not history any more: scrub deletes it, the journal stays."""
        journal = JobJournal.create(tmp_path / "job-0001", "job-0001", {})
        _, chain = journal.load_events("job-0001")
        journal.append({"event": "started"}, chain)
        snapshot = tmp_path / "job-0001" / "snapshot.json"
        snapshot.write_text(
            json.dumps(
                {"format": 1, "id": "job-0001", "chain": _chain_seed("job-0001"), "events": []}
            )
        )

        assert not self._report(tmp_path, repair=False).clean
        report = self._report(tmp_path, repair=True)
        finding = _status_of(report, "snapshot.json")
        assert finding.status == "orphaned" and finding.repaired
        assert not snapshot.exists()
        events, _ = journal.load_events("job-0001")
        assert [event["event"] for event in events] == ["started"]
        assert self._report(tmp_path, repair=False).clean


class TestClusterScrub:
    def test_every_corruption_class_is_classified_and_repaired(
        self, cache_copy, smoke_grid
    ):
        from repro.cluster.lease import LeaseTable

        root = cache_copy / f"store-smoke-{smoke_grid.fingerprint()}"
        leases = root / "cluster" / LeaseTable.LEASE_SUBDIR
        leases.mkdir(parents=True)
        (leases / LeaseTable.META_NAME).write_text('{"torn')
        (leases / "a.lease").write_text('{"torn')
        stale = leases / "b.lease"
        stale.write_text(json.dumps({"owner": "w1"}))
        os.utime(stale, (1.0, 1.0))
        fresh = leases / "c.lease"
        fresh.write_text(json.dumps({"owner": "w2"}))
        (leases / "d.reclaim").write_bytes(b"")
        progress = root / "cluster" / "progress"
        progress.mkdir()
        (progress / "w1.json").write_text('{"torn')

        report = fsck_path(root, repair=True, ttl=60.0)
        assert _status_of(report, LeaseTable.META_NAME).status == "corrupt"
        assert _status_of(report, "a.lease").status == "corrupt"
        assert _status_of(report, "b.lease").status == "stale-lease"
        assert _status_of(report, "c.lease").status == "ok"
        assert _status_of(report, "d.reclaim").status == "orphaned"
        assert _status_of(report, "progress/w1.json").status == "corrupt"
        assert not report.unrepaired
        # Repairs: corrupt/stale leases and tombstones deleted, live
        # lease kept, unreadable table quarantined for inspection.
        assert sorted(p.name for p in leases.iterdir()) == ["c.lease"]
        assert not (progress / "w1.json").exists()
        assert (root / QUARANTINE_DIR / LeaseTable.META_NAME).exists()


class TestMalformedInput:
    """JSON that parses but holds the wrong shape is ``corrupt``, never a crash."""

    def test_list_manifests_are_corrupt(self, cache_copy, smoke_grid, clean_cache):
        manifests = (
            f"store-smoke-{smoke_grid.fingerprint()}/manifest.json",
            f"protocol-smoke-{clean_cache['protocol_fingerprint']}/manifest.json",
        )
        for manifest in manifests:
            (cache_copy / manifest).write_text("[]")
        report = fsck_cache(cache_copy)
        for manifest in manifests:
            assert _status_of(report, manifest).status == "corrupt"

    def test_non_integer_pointer_versions_are_corrupt(self, cache_copy):
        pointer = cache_copy / "registry" / "promoted.json"
        for content in (
            '{"format": 1, "current": "two", "history": [1]}',
            '{"format": 1, "current": 2, "history": ["one"]}',
        ):
            pointer.write_text(content)
            assert _status_of(fsck_cache(cache_copy), "promoted.json").status == "corrupt"


class TestFsckCli:
    def test_exit_codes_and_json_over_the_full_cycle(self, cache_copy, smoke_grid, capsys):
        from repro.cli import main

        victim = sorted(
            (cache_copy / f"store-smoke-{smoke_grid.fingerprint()}" / "shards").glob("*.npz")
        )[0]
        victim.write_bytes(b"")

        assert main(["fsck", "--cache-dir", str(cache_copy)]) == 1  # unrepaired damage
        assert "--repair" in capsys.readouterr().out
        assert main(["fsck", "--repair", "--json", "--cache-dir", str(cache_copy)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repair"] is True
        assert payload["counts"]["torn-tail"] == 1
        assert all(problem["repaired"] for problem in payload["problems"])
        assert main(["fsck", "--cache-dir", str(cache_copy)]) == 0  # clean now
