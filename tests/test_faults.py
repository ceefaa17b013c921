"""Deterministic fault injection (repro.faults) and the hardened stores.

The load-bearing guarantees, each tested directly:

* failpoint policies fire exactly as specified (once / nth / prob /
  always) and the process-global registry is ~free while disarmed;
* each ioutil helper leaves exactly the wreckage its injected failure
  implies — torn finals, orphaned temps, zero-byte claims, torn
  journal tails — and bounded retries absorb transient ENOSPC while
  never retrying simulated crashes or meaningful OSErrors;
* the stores tolerate the wreckage: zero-byte shards read as pending,
  torn shards raise a diagnosis (not a traceback), corrupt lease and
  progress files render as ``corrupt`` in status, a torn job journal
  replays to its verified prefix, and ``/healthz`` degrades instead of
  dying;
* a hypothesis-driven sweep of (site × policy × seed) schedules over a
  real build + protocol run always converges to byte-identical output
  after disarm + fsck + resume.
"""

from __future__ import annotations

import errno
import json
import os
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import store_cluster_status
from repro.cluster.lease import ClusterError, LeaseTable, scan_leases
from repro.evalrun.foldstore import FoldStoreError
from repro.experiments.config import Scale
from repro.experiments.dataset import grid_for_scale
from repro.faults import FailpointRegistry, FaultInjected, armed, fire, registry
from repro.faults.core import FaultError, parse_schedule
from repro.ioutil import (
    DEFAULT_RETRY,
    RetryPolicy,
    atomic_write_bytes,
    exclusive_create,
    fsync_append,
    guarded_os_call,
    with_retries,
)
from repro.service.jobs import JobJournal, JobManager
from repro.store import ExperimentRunner, ExperimentStore, StoreError

SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)


@pytest.fixture(scope="module")
def smoke_grid():
    return grid_for_scale(SMOKE, chunk_machines=2)


@pytest.fixture(scope="module")
def built_store(smoke_grid, tmp_path_factory):
    """A complete on-disk smoke store (built once, copied per test)."""
    root = tmp_path_factory.mktemp("faults") / f"store-{smoke_grid.fingerprint()}"
    store = ExperimentStore(smoke_grid, root)
    ExperimentRunner(store).run()
    return store


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no schedule armed."""
    registry().disarm()
    registry().reset_stats()
    yield
    registry().disarm()
    registry().reset_stats()


# --------------------------------------------------------------- the registry
class TestFailpointRegistry:
    def test_disarmed_fire_is_none_and_inactive(self):
        assert not registry().active
        assert fire("anything") is None

    def test_once_fires_exactly_once(self):
        reg = FailpointRegistry()
        reg.arm_schedule("a.site=once:error")
        assert reg.fire("a.site") is not None
        assert reg.fire("a.site") is None
        assert reg.fire("a.site") is None
        assert reg.stats()["injected"]["a.site"] == 1

    def test_nth_fires_on_exactly_the_nth_hit(self):
        reg = FailpointRegistry()
        reg.arm_schedule("a.site=nth-3:error")
        fired = [reg.fire("a.site") is not None for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_prob_stream_is_deterministic_per_seed(self):
        def pattern(seed: int) -> list[bool]:
            reg = FailpointRegistry(seed=seed)
            reg.arm_schedule("a.site=prob-0.5:error")
            return [reg.fire("a.site") is not None for _ in range(32)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)
        assert any(pattern(7)) and not all(pattern(7))

    def test_always_fires_every_hit(self):
        reg = FailpointRegistry()
        reg.arm_schedule("a.site=always:error")
        assert all(reg.fire("a.site") is not None for _ in range(4))

    def test_unarmed_site_never_fires_while_another_is_armed(self):
        reg = FailpointRegistry()
        reg.arm_schedule("a.site=always:error")
        assert reg.fire("b.site") is None

    def test_armed_context_arms_and_fully_disarms(self):
        with armed("a.site=always:error"):
            assert registry().active
            assert fire("a.site") is not None
        assert not registry().active
        assert fire("a.site") is None

    def test_bad_specs_are_rejected(self):
        with pytest.raises(FaultError):
            parse_schedule("no-equals-sign")
        with pytest.raises(FaultError):
            parse_schedule("a=once:explode")
        with pytest.raises(FaultError):
            parse_schedule("a=nth-0:error")
        with pytest.raises(FaultError):
            parse_schedule("a=prob-1.5:error")

    def test_thread_safety_of_once(self):
        reg = FailpointRegistry()
        reg.arm_schedule("a.site=once:error")
        fired = []

        def hammer():
            for _ in range(200):
                if reg.fire("a.site") is not None:
                    fired.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(fired) == 1


# ------------------------------------------------------------ ioutil wreckage
class TestInjectedWreckage:
    def test_torn_atomic_write_leaves_truncated_final(self, tmp_path):
        target = tmp_path / "artifact.json"
        payload = b"x" * 1000
        with armed("w=once:torn"):
            with pytest.raises(FaultInjected):
                atomic_write_bytes(target, payload, site="w")
        assert target.exists()
        assert 0 < target.stat().st_size < len(payload)

    def test_enospc_leaves_orphan_tmp_and_no_final(self, tmp_path):
        target = tmp_path / "artifact.json"
        with armed("w=once:enospc"):
            with pytest.raises(OSError) as excinfo:
                atomic_write_bytes(target, b"y" * 100, site="w")
        assert excinfo.value.errno == errno.ENOSPC
        assert not target.exists()
        assert list(tmp_path.glob(".artifact.json.*.tmp"))

    def test_retries_absorb_a_once_enospc(self, tmp_path):
        target = tmp_path / "artifact.json"
        with armed("w=once:enospc"):
            atomic_write_bytes(target, b"z" * 100, site="w", retries=DEFAULT_RETRY)
        assert target.read_bytes() == b"z" * 100

    def test_fsync_write_syncs_file_then_renames_then_syncs_directory(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "artifact.json"
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        tmp_dir_fd = os.open(tmp_path, os.O_RDONLY)
        try:
            dir_inode = os.fstat(tmp_dir_fd).st_ino
        finally:
            os.close(tmp_dir_fd)

        def fsync(fd):
            is_dir = os.fstat(fd).st_ino == dir_inode
            calls.append(("fsync", "dir" if is_dir else "file", target.exists()))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(dst).name, target.exists()))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        atomic_write_bytes(target, b"durable", fsync=True)
        assert calls == [
            ("fsync", "file", False),
            ("replace", "artifact.json", False),
            ("fsync", "dir", True),
        ]
        assert target.read_bytes() == b"durable"

    def test_torn_append_persists_prefix_without_newline(self, tmp_path):
        target = tmp_path / "events.ndjson"
        fsync_append(target, b'{"first": 1}\n')
        with armed("j=once:torn"):
            with pytest.raises(FaultInjected):
                fsync_append(target, b'{"second": 2}\n', site="j")
        raw = target.read_bytes()
        assert raw.startswith(b'{"first": 1}\n')
        assert len(raw) > len(b'{"first": 1}\n')
        assert not raw.endswith(b"\n")

    def test_torn_exclusive_create_leaves_zero_byte_claim(self, tmp_path):
        target = tmp_path / "unit.lease"
        with armed("c=once:torn"):
            with pytest.raises(FaultInjected):
                exclusive_create(target, site="c")
        assert target.exists() and target.stat().st_size == 0
        # The zero-byte claim now blocks O_EXCL exactly like a real one.
        with pytest.raises(FileExistsError):
            exclusive_create(target, site="c")

    def test_guarded_call_absorbs_once_enospc_but_not_fault_injected(self):
        calls = []
        with armed("g=once:enospc"):
            guarded_os_call(lambda: calls.append(1), site="g", seed_key="k")
        assert calls == [1]
        with armed("g=once:error"):
            with pytest.raises(FaultInjected):
                guarded_os_call(lambda: None, site="g", seed_key="k")


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_seed_key(self):
        policy = RetryPolicy(attempts=4)
        assert list(policy.delays("a")) == list(policy.delays("a"))
        assert list(policy.delays("a")) != list(policy.delays("b"))

    def test_transient_oserror_retries_until_budget(self):
        attempts = []

        def flaky():
            attempts.append(1)
            raise OSError(errno.EIO, "transient")

        with pytest.raises(OSError):
            with_retries(flaky, policy=RetryPolicy(attempts=3), sleep=lambda _: None)
        assert len(attempts) == 3

    def test_meaningful_oserrors_never_retry(self):
        attempts = []

        def race():
            attempts.append(1)
            raise FileExistsError("the O_EXCL answer")

        with pytest.raises(FileExistsError):
            with_retries(race, sleep=lambda _: None)
        assert len(attempts) == 1


# -------------------------------------------- the stores under the wreckage
class TestStoreTolerance:
    def test_zero_byte_shard_reads_as_pending_and_resumes(
        self, smoke_grid, built_store, tmp_path
    ):
        """A shard zeroed by ENOSPC is pending, not fatal (the old code
        crashed in np.load); the resume rebuilds it byte-identically."""
        import shutil

        baseline = built_store.fingerprint()
        root = tmp_path / "store"
        shutil.copytree(built_store.root, root)
        victim = sorted((root / "shards").glob("*.npz"))[0]
        victim.write_bytes(b"")

        store = ExperimentStore(smoke_grid, root)
        pending = store.pending_keys()
        assert len(pending) == 1
        ExperimentRunner(store).run()
        assert store.fingerprint() == baseline

    def test_torn_shard_read_raises_a_diagnosis(
        self, smoke_grid, built_store, tmp_path
    ):
        import shutil

        root = tmp_path / "store"
        shutil.copytree(built_store.root, root)
        victim = sorted((root / "shards").glob("*.npz"))[0]
        victim.write_bytes(victim.read_bytes()[:64])  # torn, not empty

        store = ExperimentStore(smoke_grid, root)
        key = [k for k in store.completed_keys() if store._shard_paths(k)[0] == victim]
        with pytest.raises(StoreError, match="quarantine with fsck"):
            store.read_shard(key[0])

    def test_torn_fold_read_raises_a_diagnosis(self, tmp_path):
        from repro.evalrun.foldstore import FoldStore
        from repro.evalrun.variants import protocol_variants

        variants = protocol_variants()[:1]
        store = FoldStore("feedbeef", variants, ["crc"], root=tmp_path / "folds")
        key = next(iter(store.unit_keys()))
        path = store._fold_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"torn')
        with pytest.raises(FoldStoreError, match="quarantine with fsck"):
            store.read_fold(key)

    def test_corrupt_lease_table_fails_fast_not_overwritten(self, tmp_path):
        table_path = tmp_path / "leases" / LeaseTable.META_NAME
        table_path.parent.mkdir(parents=True)
        table_path.write_text("{ torn json")
        with pytest.raises(ClusterError, match="quarantine with fsck"):
            LeaseTable(tmp_path / "leases", fingerprint="abc")
        # The damage is preserved for fsck, not silently replaced.
        assert table_path.read_text() == "{ torn json"


class TestStatusOnCorruptClusterFiles:
    """Satellite: ``status`` renders damage instead of tracebacking."""

    def _cluster_root(self, store) -> Path:
        return store.cluster_root

    def test_zero_byte_lease_renders_as_corrupt(self, built_store):
        lease_root = self._cluster_root(built_store) / LeaseTable.LEASE_SUBDIR
        lease_root.mkdir(parents=True, exist_ok=True)
        try:
            (lease_root / "p0000-c0000.lease").write_bytes(b"")
            status = store_cluster_status(built_store, ttl=60.0)
            assert "leases/p0000-c0000.lease" in status.corrupt_files
            assert "quarantine with fsck" in status.render()
            # The scan itself marks the lease corrupt but keeps it listed.
            scanned = scan_leases(lease_root, ttl=60.0)
            assert [lease.corrupt for lease in scanned] == [True]
        finally:
            import shutil

            shutil.rmtree(self._cluster_root(built_store))

    def test_torn_progress_file_renders_as_corrupt(self, built_store):
        from repro.cluster.status import PROGRESS_DIR

        progress_root = self._cluster_root(built_store) / PROGRESS_DIR
        progress_root.mkdir(parents=True, exist_ok=True)
        try:
            (progress_root / "w1.json").write_text('{"worker": "w1", "units"')
            status = store_cluster_status(built_store, ttl=60.0)
            assert "progress/w1.json" in status.corrupt_files
            assert "corrupt: progress/w1.json" in status.render()
            assert status.payload()["corrupt_files"] == ["progress/w1.json"]
        finally:
            import shutil

            shutil.rmtree(self._cluster_root(built_store))

    def test_cli_status_survives_corrupt_cluster_dir(self, tmp_path, capsys):
        """End to end: the ``status`` command exits 0 and diagnoses."""
        from repro.api import Session
        from repro.cli import main
        from repro.experiments.dataset import store_root

        scale = "tiny"
        root = store_root(Session(scale, cache_dir=tmp_path).scale, tmp_path)
        lease_root = root / "cluster" / LeaseTable.LEASE_SUBDIR
        lease_root.mkdir(parents=True)
        (lease_root / LeaseTable.META_NAME).write_text("{ torn")
        (lease_root / "p0000-c0000.lease").write_bytes(b"")
        # A store directory must exist for status to look inside it; an
        # empty one renders the "not usable" diagnosis path instead, so
        # build the tiny store first.
        assert main(["run", "--scale", scale, "--cache-dir", str(tmp_path), "--quiet"]) == 0
        assert main(["status", "--scale", scale, "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert "Traceback" not in out


class TestJobJournalTolerance:
    def test_torn_tail_replays_verified_prefix(self, tmp_path):
        journal = JobJournal.create(tmp_path / "job-0001", "job-0001", {})
        chain = journal.load_events("job-0001")[1]
        chain = journal.append({"event": "started", "job": "job-0001"}, chain)
        chain = journal.append({"event": "fold", "fold": "a"}, chain)
        events_path = tmp_path / "job-0001" / JobJournal.EVENTS_NAME
        raw = events_path.read_bytes()
        events_path.write_bytes(raw[:-7])  # tear the last record mid-line
        events, _ = journal.load_events("job-0001")
        assert [event["event"] for event in events] == ["started"]

    def test_corrupt_meta_degrades_manager_and_reserves_the_id(self, tmp_path):
        journal_dir = tmp_path / "job-0001"
        journal_dir.mkdir()
        (journal_dir / JobJournal.META_NAME).write_text("{ torn")
        manager = JobManager(lambda job: {}, root=tmp_path)
        assert any("job-0001" in reason for reason in manager.degraded_reasons)
        # A new submission must not clobber the damaged directory.
        job = manager.submit({})
        assert job.id == "job-0002"
        while not job.done:
            pass
        assert (journal_dir / JobJournal.META_NAME).read_text() == "{ torn"


class TestHealthDegraded:
    def test_corrupt_pointer_and_job_root_degrade_healthz(self, tmp_path, tiny_data):
        from repro.api import Session
        from repro.service import PredictionService

        trainer = Session("tiny", cache_dir=tmp_path)
        trainer.models.fit(tiny_data.training)
        trainer.models.register(promote=True)
        registry_root = tmp_path / "registry"
        (registry_root / "promoted.json").write_text("{ torn")
        jobs_dir = tmp_path / "jobs"
        (jobs_dir / "job-0001").mkdir(parents=True)
        (jobs_dir / "job-0001" / "meta.json").write_text("")

        service = PredictionService(
            Session("tiny", cache_dir=tmp_path, use_disk_cache=False),
            registry=trainer.models.registry(registry_root),
            jobs_dir=jobs_dir,
        )
        # Torn JSON, and pointers that parse but hold the wrong shapes.
        for pointer in (
            "{ torn",
            "[]",
            '{"format": 1, "current": 1, "history": ["x"]}',
            '{"format": 1, "current": "one", "history": []}',
        ):
            (registry_root / "promoted.json").write_text(pointer)
            health = service.health()
            assert health["status"] == "degraded"
            reasons = " ".join(health["reasons"])
            assert "pointer" in reasons and "job-0001" in reasons

    def test_healthy_service_still_reports_ok(self, tmp_path, tiny_data):
        from repro.api import Session
        from repro.service import PredictionService

        trainer = Session("tiny", cache_dir=tmp_path)
        trainer.models.fit(tiny_data.training)
        trainer.models.register(promote=True)
        service = PredictionService(
            Session("tiny", cache_dir=tmp_path, use_disk_cache=False),
            registry=trainer.models.registry(tmp_path / "registry"),
            persist_jobs=False,
        )
        health = service.health()
        assert health["status"] == "ok"
        assert "reasons" not in health


# ------------------------------------------------- hypothesis schedule sweep
BUILD_SITES = ("store.manifest", "store.shard.npz", "store.shard.sidecar")
FOLD_SITES = ("fold.manifest", "fold.shard")

schedule_entries = st.lists(
    st.tuples(
        st.sampled_from(BUILD_SITES + FOLD_SITES),
        st.sampled_from(["once", "nth-1", "nth-2", "nth-3", "prob-0.3"]),
        st.sampled_from(["error", "enospc", "torn"]),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda entry: entry[0],
)


@pytest.fixture(scope="module")
def protocol_inputs(built_store):
    from repro.evalrun.variants import protocol_fingerprint, variant_by_key
    from repro.programs.mibench import mibench_program

    training = built_store.assemble()
    variants = [variant_by_key("base")]
    return (
        training,
        variants,
        protocol_fingerprint(training, variants),
        [mibench_program(name) for name in training.program_names],
    )


class TestScheduleSweep:
    """Satellite: random (site × policy × seed) schedules over a real
    build + protocol run always end byte-identical after resume."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(entries=schedule_entries, seed=st.integers(min_value=0, max_value=2**16))
    def test_build_and_protocol_converge_byte_identical(
        self, entries, seed, smoke_grid, built_store, protocol_inputs, tmp_path_factory
    ):
        from repro.evalrun.foldstore import FoldStore
        from repro.evalrun.pipeline import EvaluationPipeline
        from repro.faults.fsck import fsck_cache

        training, variants, fingerprint, programs = protocol_inputs
        cache = tmp_path_factory.mktemp("sweep")
        store_dir = cache / f"store-smoke-{smoke_grid.fingerprint()}"
        fold_dir = cache / f"protocol-smoke-{fingerprint}"
        schedule = ",".join(
            f"{site}={policy}:{action}" for site, policy, action in entries
        )

        def drive() -> None:
            store = ExperimentStore(smoke_grid, store_dir)
            ExperimentRunner(store).run()
            folds = FoldStore(
                fingerprint, variants, list(training.program_names), root=fold_dir
            )
            EvaluationPipeline(training, programs, folds).run()

        with armed(schedule, seed=seed):
            for _ in range(8):
                try:
                    drive()
                    break
                except Exception:  # noqa: BLE001 - injected kill; resume
                    continue
        fsck_cache(cache, repair=True)
        drive()  # clean completion

        store = ExperimentStore(smoke_grid, store_dir)
        folds = FoldStore(
            fingerprint, variants, list(training.program_names), root=fold_dir
        )
        assert store.fingerprint() == built_store.fingerprint()
        clean = FoldStore(fingerprint, variants, list(training.program_names))
        EvaluationPipeline(training, programs, clean).run()
        assert folds.fingerprint() == clean.fingerprint()


class TestChaosHarness:
    def test_one_build_schedule_end_to_end(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            scenarios=("build",), schedules=1, seed=123, drills=False
        )
        assert report.ok
        assert len(report.runs) == 1
        assert report.runs[0].identical

    def test_refuses_to_run_while_armed(self):
        from repro.faults.chaos import run_chaos

        with armed("x=once:error"):
            with pytest.raises(RuntimeError, match="disarm"):
                run_chaos(scenarios=("build",), schedules=1, drills=False)

    def test_disabled_overhead_is_under_budget(self):
        from repro.faults.chaos import measure_disabled_overhead

        overhead = measure_disabled_overhead(iterations=50_000)
        assert overhead["ok"]
        assert overhead["overhead_fraction"] < 0.01
