"""The lease-based cluster tier (repro.cluster).

The load-bearing guarantees, each tested directly:

* claims are exclusive (``O_EXCL``), heartbeats keep them alive, stale
  leases are reclaimed by exactly one contender;
* a lease table refuses to coordinate a different manifest fingerprint;
* a claimed unit is re-checked against the store before computing, so a
  reclaim of a finished unit costs zero re-simulation;
* N workers draining one store produce byte-identical output to a
  serial build, with no unit computed by two workers absent a crash;
* a hypothesis-driven interleaving of (claim, crash, expire, reclaim)
  never executes a completed unit twice and always converges to the
  serial bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterError,
    ClusterStatus,
    ClusterWorker,
    FoldQueue,
    LeaseTable,
    ShardQueue,
    run_local_workers,
    store_cluster_status,
)
from repro.evalrun import (
    EvaluationPipeline,
    FoldStore,
    protocol_fingerprint,
    protocol_variants,
)
from repro.experiments.config import Scale
from repro.experiments.dataset import grid_for_scale
from repro.programs.mibench import mibench_program
from repro.store import ExperimentRunner, ExperimentStore

#: Same geometry as the store tests: 4 machines / chunk 2 -> 4 shards.
SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)


@pytest.fixture(scope="module")
def smoke_grid():
    return grid_for_scale(SMOKE, chunk_machines=2)


@pytest.fixture(scope="module")
def smoke_programs():
    return [mibench_program(name) for name in SMOKE.programs]


@pytest.fixture(scope="module")
def serial_fingerprint(tmp_path_factory, smoke_grid, smoke_programs):
    """The ground-truth store fingerprint every cluster drain must hit."""
    store = ExperimentStore(
        smoke_grid, root=tmp_path_factory.mktemp("serial") / "store"
    )
    ExperimentRunner(store, programs=smoke_programs).run()
    return store.fingerprint()


def _shard_worker(root, grid, programs, **kwargs):
    """One worker with its own store/runner objects, as a real process has."""
    store = ExperimentStore(grid, root=root)
    runner = ExperimentRunner(store, programs=programs)
    return ClusterWorker(ShardQueue(runner), lease_ttl=10.0, **kwargs)


class TestLeaseTable:
    def test_claim_is_exclusive(self, tmp_path):
        table = LeaseTable(tmp_path, "fp", ttl=60.0)
        assert table.try_claim("u1", "alice")
        assert not table.try_claim("u1", "bob")
        assert table.owner_of("u1") == "alice"
        assert table.try_claim("u2", "bob")

    def test_release_requires_ownership(self, tmp_path):
        table = LeaseTable(tmp_path, "fp", ttl=60.0)
        table.try_claim("u1", "alice")
        assert not table.release("u1", "bob")
        assert table.owner_of("u1") == "alice"
        assert table.release("u1", "alice")
        assert table.owner_of("u1") is None
        assert table.try_claim("u1", "bob")  # released units reclaim freely

    def test_heartbeat_requires_ownership(self, tmp_path):
        table = LeaseTable(tmp_path, "fp", ttl=60.0)
        table.try_claim("u1", "alice")
        assert table.heartbeat("u1", "alice")
        assert not table.heartbeat("u1", "bob")
        assert not table.heartbeat("missing", "alice")

    def test_stale_lease_is_reclaimed(self, tmp_path):
        table = LeaseTable(tmp_path, "fp", ttl=0.05)
        assert table.try_claim("u1", "dead-worker")
        time.sleep(0.15)
        [lease] = table.leases()
        assert lease.stale and lease.owner == "dead-worker"
        assert table.try_claim("u1", "successor")
        assert table.owner_of("u1") == "successor"

    def test_heartbeat_keeps_a_lease_fresh(self, tmp_path):
        table = LeaseTable(tmp_path, "fp", ttl=0.2)
        table.try_claim("u1", "alice")
        for _ in range(4):
            time.sleep(0.08)
            assert table.heartbeat("u1", "alice")
        [lease] = table.leases()
        assert not lease.stale
        assert not table.try_claim("u1", "bob")

    def test_concurrent_claims_have_one_winner(self, tmp_path):
        table = LeaseTable(tmp_path, "fp", ttl=60.0)
        wins = []
        barrier = threading.Barrier(8)

        def contend(name):
            barrier.wait()
            if table.try_claim("u1", name):
                wins.append(name)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert table.owner_of("u1") == wins[0]

    def test_fingerprint_mismatch_fails_fast(self, tmp_path):
        LeaseTable(tmp_path, "grid-aaaa", ttl=60.0)
        with pytest.raises(ClusterError) as excinfo:
            LeaseTable(tmp_path, "grid-bbbb", ttl=60.0)
        message = str(excinfo.value)
        assert "grid-aaaa" in message and "grid-bbbb" in message

    def test_unknown_format_fails_fast(self, tmp_path):
        LeaseTable(tmp_path, "fp", ttl=60.0)
        meta = tmp_path / LeaseTable.META_NAME
        meta.write_text(json.dumps({"format": 99, "fingerprint": "fp"}))
        with pytest.raises(ClusterError, match="format"):
            LeaseTable(tmp_path, "fp", ttl=60.0)

    def test_bad_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            LeaseTable(tmp_path, "fp", ttl=0.0)

    def test_sibling_create_right_after_absent_read_is_not_corrupt(
        self, tmp_path, monkeypatch
    ):
        """Regression: a same-grid sibling whose atomic table create lands
        just after this worker found no table must not make the valid
        table read as corrupt."""
        real_read = LeaseTable._read_meta
        raced = []

        def racing_read(path):
            meta = real_read(path)
            if not raced:
                raced.append(path)
                LeaseTable(tmp_path, "fp", ttl=60.0)  # the sibling wins
            return meta

        monkeypatch.setattr(LeaseTable, "_read_meta", staticmethod(racing_read))
        table = LeaseTable(tmp_path, "fp", ttl=60.0)
        assert raced and table.fingerprint == "fp"

    def test_unparseable_table_still_raises(self, tmp_path):
        (tmp_path / LeaseTable.META_NAME).write_text('{"format": 1, "fing')
        with pytest.raises(ClusterError, match="corrupt"):
            LeaseTable(tmp_path, "fp", ttl=60.0)
        (tmp_path / LeaseTable.META_NAME).write_text("[1, 2]")
        with pytest.raises(ClusterError, match="corrupt"):
            LeaseTable(tmp_path, "fp", ttl=60.0)


class _FakeQueue:
    """A synthetic queue for worker-loop semantics, no simulation needed."""

    kind = "fake"

    def __init__(self, tmp_path, units):
        self.identity = "fake-fp"
        self.cluster_root = tmp_path / "cluster"
        self.done = {unit: False for unit in units}
        self.executed = []
        self.stale_scan = None  # optionally served once, then real scans

    def total_units(self):
        return len(self.done)

    def pending_units(self):
        if self.stale_scan is not None:
            scan, self.stale_scan = self.stale_scan, None
            return scan
        return [unit for unit, done in self.done.items() if not done]

    def is_done(self, unit):
        return self.done[unit]

    def execute(self, unit):
        assert not self.done[unit], f"{unit} executed after completion"
        self.done[unit] = True
        self.executed.append(unit)
        return {"simulation_calls": 1}


class TestWorkerLoop:
    def test_single_worker_drains_everything(self, tmp_path):
        queue = _FakeQueue(tmp_path, ["a", "b", "c"])
        report = ClusterWorker(queue, worker_id="solo", lease_ttl=5.0).run()
        assert report["computed"] == 3
        assert report["skipped"] == 0
        assert sorted(queue.executed) == ["a", "b", "c"]
        table = LeaseTable(queue.cluster_root / "leases", "fake-fp", ttl=5.0)
        assert table.leases() == []  # every claim released

    def test_claim_recheck_skips_completed_units(self, tmp_path):
        """The zero-re-simulation guarantee: a unit that completed between
        scan and claim (or whose crashed first owner had finished) is
        released untouched — a sidecar read, never a computation."""
        queue = _FakeQueue(tmp_path, ["a", "b"])
        queue.done["a"] = True
        queue.stale_scan = ["a", "b"]  # a scan from before 'a' finished
        report = ClusterWorker(queue, worker_id="late", lease_ttl=5.0).run()
        assert report["skipped"] == 1
        assert report["computed"] == 1
        assert queue.executed == ["b"]

    def test_reclaim_of_crashed_worker_unit(self, tmp_path):
        """A stale lease on an *unfinished* unit is reclaimed and the
        unit computed exactly once by the successor."""
        queue = _FakeQueue(tmp_path, ["a", "b"])
        table = LeaseTable(queue.cluster_root / "leases", "fake-fp", ttl=0.05)
        assert table.try_claim("a", "dead-worker")  # crashed mid-unit
        time.sleep(0.15)
        report = ClusterWorker(
            queue, worker_id="successor", lease_ttl=0.05, poll_interval=0.01
        ).run()
        assert report["computed"] == 2
        assert sorted(queue.executed) == ["a", "b"]

    def test_reclaim_of_finished_crashed_worker_unit(self, tmp_path):
        """A worker that finished its unit but died before releasing:
        the successor reclaims the stale lease, sees the unit done, and
        skips — zero re-simulation."""
        queue = _FakeQueue(tmp_path, ["a", "b"])
        table = LeaseTable(queue.cluster_root / "leases", "fake-fp", ttl=0.05)
        queue.done["a"] = True  # the dead worker's write landed
        assert table.try_claim("a", "dead-worker")
        time.sleep(0.15)
        queue.stale_scan = ["a", "b"]  # successor's scan predates the write
        report = ClusterWorker(
            queue, worker_id="successor", lease_ttl=0.05, poll_interval=0.01
        ).run()
        assert report["skipped"] == 1
        assert queue.executed == ["b"]

    def test_max_units_caps_the_drain(self, tmp_path):
        queue = _FakeQueue(tmp_path, ["a", "b", "c"])
        report = ClusterWorker(
            queue, worker_id="budgeted", lease_ttl=5.0, max_units=2
        ).run()
        assert report["computed"] == 2
        assert len(queue.executed) == 2

    def test_worker_waits_out_a_live_peer(self, tmp_path):
        """All pending units leased by a live peer: the worker naps, and
        finishes once the peer releases."""
        queue = _FakeQueue(tmp_path, ["a"])
        table = LeaseTable(queue.cluster_root / "leases", "fake-fp", ttl=5.0)
        assert table.try_claim("a", "peer")

        def finish_peer():
            time.sleep(0.1)
            queue.done["a"] = True
            queue.executed.append("a")
            table.release("a", "peer")

        thread = threading.Thread(target=finish_peer)
        started = time.monotonic()
        thread.start()
        report = ClusterWorker(
            queue, worker_id="waiter", lease_ttl=5.0, poll_interval=0.02
        ).run()
        waited = time.monotonic() - started
        thread.join()
        assert report["computed"] == 0
        assert waited >= 0.1  # it napped until the peer finished


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary (claim, crash, expire, reclaim) interleavings.
# ---------------------------------------------------------------------------
UNITS = ("u0", "u1", "u2")
WORKERS = ("w0", "w1", "w2")
#: op = (kind, worker index, unit index); kinds cover the failure matrix.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["claim", "complete", "crash", "expire"]),
        st.integers(min_value=0, max_value=len(WORKERS) - 1),
        st.integers(min_value=0, max_value=len(UNITS) - 1),
    ),
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_interleavings_never_double_execute(ops):
    """Whatever the order of claims, crashes, lease expiries, and
    reclaims, no unit is ever executed after it completed, and the final
    store content equals the serial build's."""
    with tempfile.TemporaryDirectory() as tmp:
        _run_interleaving(Path(tmp), ops)


def _run_interleaving(tmp_path, ops):
    table = LeaseTable(tmp_path / "leases", "fp", ttl=60.0)
    store = {}  # unit -> bytes; the shared append-only store
    serial = {unit: f"content-{unit}" for unit in UNITS}
    executions = []
    holding = {worker: None for worker in WORKERS}
    crashed = set()

    def lease_path(unit):
        return tmp_path / "leases" / f"{unit}{LeaseTable.SUFFIX}"

    for kind, worker_index, unit_index in ops:
        worker = WORKERS[worker_index]
        unit = UNITS[unit_index]
        if kind == "claim" and worker not in crashed:
            if holding[worker] is None and table.try_claim(unit, worker):
                if unit in store:
                    table.release(unit, worker)  # the is_done recheck
                else:
                    holding[worker] = unit
        elif kind == "complete" and worker not in crashed:
            held = holding[worker]
            if held is not None:
                # Idempotent write: first complete write wins, any
                # duplicate writes identical bytes.
                assert held not in store or store[held] == serial[held]
                executions.append(held)
                store.setdefault(held, serial[held])
                table.release(held, worker)
                holding[worker] = None
        elif kind == "crash":
            crashed.add(worker)
            holding[worker] = None  # lease file stays behind, unreleased
        elif kind == "expire":
            path = lease_path(unit)
            if path.exists():
                past = time.time() - 3600.0
                os.utime(path, (past, past))

    # Finally a fresh worker (never crashes) drains what is left, the
    # way a real cluster converges after any failure pattern.
    for unit in UNITS:
        if unit in store:
            continue
        path = lease_path(unit)
        if path.exists():
            past = time.time() - 3600.0
            os.utime(path, (past, past))  # survivors' leases expire too
        assert table.try_claim(unit, "finisher")
        executions.append(unit)
        store[unit] = serial[unit]
        table.release(unit, "finisher")

    assert store == serial  # byte-identical to the serial build
    # No unit double-counted: each executed at most once per lease
    # generation, and completed units are never re-executed — which
    # bounds executions by one per (unit, crash-before-complete).
    crashes_before_complete = sum(
        1
        for kind, worker_index, _ in ops
        if kind == "crash"
    )
    for unit in UNITS:
        count = executions.count(unit)
        assert count >= 1
        assert count <= 1 + crashes_before_complete


class TestClusterDrain:
    """Real stores, real simulation: the ISSUE's acceptance criteria."""

    def test_three_workers_byte_identical_to_serial(
        self, tmp_path, smoke_grid, smoke_programs, serial_fingerprint
    ):
        root = tmp_path / "store"
        workers = [
            _shard_worker(root, smoke_grid, smoke_programs, poll_interval=0.02)
            for _ in range(3)
        ]
        reports = [None] * 3
        threads = [
            threading.Thread(
                target=lambda i=i: reports.__setitem__(i, workers[i].run())
            )
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        store = ExperimentStore(smoke_grid, root=root)
        assert store.is_complete()
        assert store.fingerprint() == serial_fingerprint
        # Every unit computed exactly once across the fleet (no crash
        # here, so skips are the only benign overlap — and they carry
        # zero simulation).
        assert sum(r["computed"] for r in reports) == smoke_grid.n_shards
        # All leases released; the status built on read agrees, and no
        # worker left an aggregate snapshot behind.
        assert list((root / "cluster" / "leases").glob("*.lease")) == []
        status = ClusterStatus.collect(store, ttl=10.0)
        assert status.completed_units == smoke_grid.n_shards
        assert status.payload()["leased_units"] == []
        assert not (root / "cluster" / "progress.json").exists()

    def test_killed_worker_unit_is_reclaimed(
        self, tmp_path, smoke_grid, smoke_programs, serial_fingerprint
    ):
        """kill -9 mid-shard, modelled exactly: a claim file with no
        owner process behind it.  The lease expires, a later worker
        reclaims, and the final bytes match serial."""
        root = tmp_path / "store"
        store = ExperimentStore(smoke_grid, root=root)
        runner = ExperimentRunner(store, programs=smoke_programs)
        queue = ShardQueue(runner)
        table = LeaseTable(
            queue.cluster_root / "leases", queue.identity, ttl=0.2
        )
        victim_unit = queue.pending_units()[0]
        assert table.try_claim(victim_unit, "killed-9")  # then it dies
        time.sleep(0.5)

        worker = _shard_worker(root, smoke_grid, smoke_programs)
        worker.leases.ttl = 0.2  # match the dead worker's table
        report = worker.run()
        assert report["computed"] == smoke_grid.n_shards
        assert ExperimentStore(smoke_grid, root=root).fingerprint() == (
            serial_fingerprint
        )

    def test_cluster_executor_matches_serial(
        self, tmp_path, smoke_grid, smoke_programs, serial_fingerprint
    ):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        built = ExperimentRunner(
            store, programs=smoke_programs, executor="cluster"
        ).run()
        assert built == smoke_grid.n_shards
        assert store.fingerprint() == serial_fingerprint

    def test_cluster_executor_requires_disk_store(
        self, smoke_grid, smoke_programs
    ):
        store = ExperimentStore(smoke_grid, root=None)
        runner = ExperimentRunner(
            store, programs=smoke_programs, executor="cluster"
        )
        with pytest.raises(ClusterError, match="memory-only"):
            runner.run()

    def test_complete_store_leaves_no_cluster_dir(
        self, tmp_path, smoke_grid, smoke_programs
    ):
        root = tmp_path / "store"
        store = ExperimentStore(smoke_grid, root=root)
        ExperimentRunner(store, programs=smoke_programs).run()
        built = ExperimentRunner(
            store, programs=smoke_programs, executor="cluster"
        ).run()
        assert built == 0
        assert not (root / "cluster").exists()

    def test_mismatched_grid_worker_fails_fast(
        self, tmp_path, smoke_grid, smoke_programs
    ):
        root = tmp_path / "store"
        worker = _shard_worker(root, smoke_grid, smoke_programs)
        other_grid = grid_for_scale(
            Scale(
                name="smoke",
                programs=("crc", "search"),
                n_machines=4,
                n_settings=8,
            ),
            chunk_machines=2,
        )
        # A second cluster over the same lease directory with a
        # different manifest must refuse to start.
        with pytest.raises(ClusterError, match="different"):
            LeaseTable(
                worker.leases.root, other_grid.fingerprint(), ttl=10.0
            )


class TestFoldCluster:
    def _pipeline(self, tiny_data, root, **kwargs):
        variants = protocol_variants(
            with_code=tiny_data.training.code_features is not None
        )
        store = FoldStore(
            protocol_fingerprint(tiny_data.training, variants),
            variants,
            list(tiny_data.training.program_names),
            root=root,
        )
        return EvaluationPipeline(
            tiny_data.training, tiny_data.programs, store, **kwargs
        )

    def test_three_workers_byte_identical_to_serial(self, tiny_data, tmp_path):
        only = ["base"]
        serial = self._pipeline(tiny_data, tmp_path / "serial")
        serial.run(variants=only)
        reference = serial.store.fingerprint(only)

        root = tmp_path / "cluster"
        reports = [None] * 3

        def drain(index):
            pipeline = self._pipeline(tiny_data, root)
            worker = ClusterWorker(
                FoldQueue(pipeline, only), lease_ttl=10.0, poll_interval=0.02
            )
            reports[index] = worker.run()

        threads = [
            threading.Thread(target=drain, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        clustered = self._pipeline(tiny_data, root)
        assert clustered.store.pending_keys(only) == []
        assert clustered.store.fingerprint(only) == reference
        total = sum(r["computed"] for r in reports)
        assert total == len(list(clustered.store.unit_keys(only)))

    def test_pipeline_cluster_executor_matches_serial(
        self, tiny_data, tmp_path
    ):
        only = ["base"]
        serial = self._pipeline(tiny_data, tmp_path / "serial")
        serial.run(variants=only)
        clustered = self._pipeline(
            tiny_data, tmp_path / "cluster", executor="cluster"
        )
        stats = clustered.run(variants=only)
        assert stats.folds_computed == len(list(serial.store.unit_keys(only)))
        assert clustered.store.fingerprint(only) == (
            serial.store.fingerprint(only)
        )


class TestClusterStatus:
    def test_collect_and_render(self, tmp_path):
        queue = _FakeQueue(tmp_path, ["a", "b"])
        ClusterWorker(queue, worker_id="render-me", lease_ttl=5.0).run()
        status = ClusterStatus.collect(queue, ttl=5.0)
        assert status.total_units == 2
        assert status.completed_units == 2
        assert status.leases == []
        [stats] = status.workers
        assert stats.worker == "render-me"
        assert stats.units == 2 and stats.done
        rendered = status.render()
        assert "2/2 complete" in rendered
        assert "render-me" in rendered and "[done]" in rendered

    def test_orphaned_leases_are_reported(self, tmp_path):
        queue = _FakeQueue(tmp_path, ["a"])
        table = LeaseTable(queue.cluster_root / "leases", "fake-fp", ttl=0.05)
        table.try_claim("a", "dead-worker")
        time.sleep(0.15)
        status = ClusterStatus.collect(queue, ttl=0.05)
        assert [lease.unit for lease in status.orphaned_leases] == ["a"]
        assert "reclaimable" in status.render()

    def test_store_cluster_status_reads_without_side_effects(
        self, tmp_path, smoke_grid, smoke_programs
    ):
        root = tmp_path / "store"
        store = ExperimentStore(smoke_grid, root=root)
        # Never clustered: no view, and crucially no directory created.
        assert store_cluster_status(store, ttl=5.0) is None
        assert not (root / "cluster").exists()

        worker = _shard_worker(root, smoke_grid, smoke_programs)
        worker.run()
        status = store_cluster_status(
            ExperimentStore(smoke_grid, root=root), ttl=5.0
        )
        assert status is not None
        assert status.completed_units == smoke_grid.n_shards

    def test_memory_store_has_no_cluster_status(self, smoke_grid):
        assert store_cluster_status(
            ExperimentStore(smoke_grid, root=None), ttl=5.0
        ) is None


class TestLocalFleet:
    def test_run_local_workers_rejects_bad_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_local_workers(["--scale", "tiny"], workers=0)
