"""Tests for the sharded, resumable experiment store (repro.store)."""

import dataclasses
import json
import pickle
import threading

import numpy as np
import pytest

from repro.compiler.pipeline import Compiler
from repro.core.training import generate_training_set
from repro.experiments.config import Scale
from repro.experiments.dataset import (
    clear_memory_cache,
    experiment_store,
    grid_for_scale,
    load_or_build,
    store_root,
    store_status,
)
from repro.programs.mibench import mibench_program
from repro.store import (
    ExperimentRunner,
    ExperimentStore,
    GridSpec,
    ShardKey,
    StoreError,
    compute_shard,
    shard_fingerprint,
)

#: Small enough to build many times per test run, big enough to have
#: several shards per program (4 machines / chunk 2 = 2 chunks).
SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)


@pytest.fixture(scope="module")
def smoke_grid():
    return grid_for_scale(SMOKE, chunk_machines=2)


@pytest.fixture(scope="module")
def smoke_programs():
    return [mibench_program(name) for name in SMOKE.programs]


@pytest.fixture(scope="module")
def smoke_reference(smoke_grid, smoke_programs):
    """The monolithic (non-sharded) training set the store must match."""
    return generate_training_set(
        smoke_programs,
        list(smoke_grid.machines),
        n_settings=SMOKE.n_settings,
        seed=SMOKE.setting_seed,
        extended=SMOKE.extended,
    )


class TestGridSpec:
    def test_geometry(self, smoke_grid):
        assert smoke_grid.n_chunks == 2
        assert smoke_grid.n_shards == 4
        assert smoke_grid.chunk_range(0) == (0, 2)
        assert smoke_grid.chunk_range(1) == (2, 4)
        assert list(smoke_grid.shard_keys()) == [
            ShardKey(0, 0),
            ShardKey(0, 1),
            ShardKey(1, 0),
            ShardKey(1, 1),
        ]

    def test_ragged_last_chunk(self):
        grid = grid_for_scale(
            Scale(name="smoke", programs=("crc",), n_machines=5, n_settings=2),
            chunk_machines=2,
        )
        assert grid.n_chunks == 3
        assert grid.chunk_range(2) == (4, 5)
        assert len(grid.chunk_of(ShardKey(0, 2))) == 1

    def test_fingerprint_ignores_chunking(self, smoke_grid):
        other = grid_for_scale(SMOKE, chunk_machines=3)
        assert other.chunk_machines != smoke_grid.chunk_machines
        assert other.fingerprint() == smoke_grid.fingerprint()

    def test_fingerprint_covers_grid_content(self, smoke_grid):
        bigger = grid_for_scale(
            Scale(
                name="smoke",
                programs=SMOKE.programs,
                n_machines=SMOKE.n_machines + 1,
                n_settings=SMOKE.n_settings,
            )
        )
        assert bigger.fingerprint() != smoke_grid.fingerprint()

    def test_memoised_fingerprint_follows_derived_grids(self, smoke_grid):
        known = smoke_grid.fingerprint()
        for changed in (
            dataclasses.replace(smoke_grid, machines=smoke_grid.machines[:-1]),
            dataclasses.replace(smoke_grid, settings=smoke_grid.settings[:-1]),
            dataclasses.replace(smoke_grid, extended=not smoke_grid.extended),
        ):
            assert changed.fingerprint() != known
        rechunked = dataclasses.replace(smoke_grid, chunk_machines=1)
        assert rechunked.fingerprint() == known
        assert pickle.loads(pickle.dumps(smoke_grid)).fingerprint() == known

    def test_empty_grid_rejected(self, smoke_grid):
        with pytest.raises(ValueError):
            GridSpec(program_names=(), machines=smoke_grid.machines,
                     settings=smoke_grid.settings)
        with pytest.raises(ValueError):
            GridSpec(
                program_names=smoke_grid.program_names,
                machines=smoke_grid.machines,
                settings=smoke_grid.settings,
                chunk_machines=0,
            )


class TestExperimentStore:
    def test_shard_roundtrip_and_digest(
        self, tmp_path, smoke_grid, smoke_programs
    ):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        key = ShardKey(0, 1)
        arrays = compute_shard(
            smoke_programs[0], smoke_grid.chunk_of(key), smoke_grid.settings
        )
        store.write_shard(key, arrays)
        assert store.has(key)
        back = store.read_shard(key)
        for written, read in zip(arrays, back):
            assert np.array_equal(written, read)
        assert store.digest(key) == shard_fingerprint(arrays)

    def test_corrupt_shard_detected(self, tmp_path, smoke_grid, smoke_programs):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        key = ShardKey(0, 0)
        store.write_shard(
            key,
            compute_shard(
                smoke_programs[0], smoke_grid.chunk_of(key), smoke_grid.settings
            ),
        )
        npz_path, _ = store._shard_paths(key)
        other = ShardKey(0, 1)
        np.savez(
            npz_path,
            runtimes=np.ones((smoke_grid.n_settings, 2)),
            o3_runtimes=np.ones(2),
            counters=np.ones((2, 11)),
            code_features=np.ones(4),
        )
        with pytest.raises(StoreError, match="corrupt"):
            store.read_shard(key)
        assert not store.has(other)

    def test_shape_validation(self, tmp_path, smoke_grid):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        bad = (
            np.ones((1, 1)),
            np.ones(2),
            np.ones((2, 11)),
            np.ones(4),
        )
        with pytest.raises(ValueError, match="shape"):
            store.write_shard(ShardKey(0, 0), bad)

    def test_manifest_rejects_other_grid(self, tmp_path, smoke_grid):
        root = tmp_path / "store"
        ExperimentStore(smoke_grid, root=root)
        other = grid_for_scale(
            Scale(
                name="smoke",
                programs=("crc",),
                n_machines=4,
                n_settings=6,
            )
        )
        with pytest.raises(StoreError, match="different grid"):
            ExperimentStore(other, root=root)

    def test_reopen_adopts_manifest_chunking(self, tmp_path, smoke_grid):
        root = tmp_path / "store"
        ExperimentStore(smoke_grid, root=root)  # chunk_machines=2
        reopened = ExperimentStore(
            grid_for_scale(SMOKE, chunk_machines=3), root=root
        )
        assert reopened.grid.chunk_machines == 2

    def test_open_from_manifest_alone(self, tmp_path, smoke_grid):
        root = tmp_path / "store"
        ExperimentStore(smoke_grid, root=root)
        reopened = ExperimentStore.open(root)
        assert reopened.grid == smoke_grid
        with pytest.raises(StoreError, match="manifest"):
            ExperimentStore.open(tmp_path / "nowhere")

    def test_assemble_requires_completion(self, tmp_path, smoke_grid):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        with pytest.raises(StoreError, match="incomplete"):
            store.assemble()
        with pytest.raises(StoreError, match="missing"):
            store.fingerprint()

    def test_status_reports_progress(self, tmp_path, smoke_grid, smoke_programs):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        key = ShardKey(0, 0)
        store.write_shard(
            key,
            compute_shard(
                smoke_programs[0], smoke_grid.chunk_of(key), smoke_grid.settings
            ),
        )
        status = store.status()
        assert status.total_units == 4
        assert status.completed_units == 1
        assert not status.complete
        assert status.per_group["crc"] == (1, 2)
        assert status.per_group["search"] == (0, 2)
        assert "1/4" in status.render()

    def test_status_of_pinned_but_unbuilt_store(self, tmp_path, smoke_grid):
        """A store with a manifest but zero shards used to render a
        misleading '0/0 complete'; it must say the grid is pinned and
        never divide by zero."""
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        status = store.status()
        assert status.total_units == 4
        assert status.completed_units == 0
        assert status.fraction == 0.0
        rendered = status.render()
        assert "grid pinned, no shards built (0/4)" in rendered
        assert "0/0" not in rendered
        assert "%" not in rendered.split("shards:")[1].splitlines()[0]

    def test_memory_store_same_api(self, smoke_grid, smoke_programs):
        store = ExperimentStore(smoke_grid, root=None)
        assert store.pending_keys() == list(smoke_grid.shard_keys())
        runner = ExperimentRunner(store, programs=smoke_programs)
        assert runner.run() == 4
        assert store.is_complete()
        assert store.status().root == "<memory>"
        training = store.assemble()
        assert training.runtimes.shape == (2, 6, 4)


class TestRunnerEquivalence:
    """Sharded/resumed/parallel builds must be bit-identical to monolithic."""

    def test_assembled_matches_monolithic(
        self, tmp_path, smoke_grid, smoke_programs, smoke_reference
    ):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        training = ExperimentRunner(
            store, programs=smoke_programs
        ).run_to_completion()
        assert training.fingerprint() == smoke_reference.fingerprint()
        assert np.array_equal(training.runtimes, smoke_reference.runtimes)
        assert np.array_equal(training.counters, smoke_reference.counters)
        assert np.array_equal(
            training.code_features, smoke_reference.code_features
        )
        assert training.metadata == smoke_reference.metadata

    def test_chunking_does_not_change_dataset(
        self, tmp_path, smoke_programs, smoke_reference
    ):
        for chunk in (1, 3, 16):
            grid = grid_for_scale(SMOKE, chunk_machines=chunk)
            store = ExperimentStore(grid, root=tmp_path / f"store-{chunk}")
            training = ExperimentRunner(
                store, programs=smoke_programs
            ).run_to_completion()
            assert training.fingerprint() == smoke_reference.fingerprint()

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_kill_and_resume_equivalence(
        self, tmp_path, smoke_grid, smoke_programs, smoke_reference, executor
    ):
        """The ISSUE's acceptance criterion: abort mid-grid, resume, and
        the final store fingerprint matches an uninterrupted run."""
        uninterrupted = ExperimentStore(smoke_grid, root=tmp_path / "oneshot")
        ExperimentRunner(
            uninterrupted, programs=smoke_programs, jobs=2, executor=executor
        ).run()

        root = tmp_path / f"resumed-{executor}"
        interrupted = ExperimentStore(smoke_grid, root=root)
        runner = ExperimentRunner(
            interrupted, programs=smoke_programs, jobs=2, executor=executor
        )
        # "Kill" the run after one shard per call by capping the grid walk.
        calls = 0
        while not interrupted.is_complete():
            done = runner.run(max_shards=1)
            assert done == 1
            calls += 1
            # A fresh store object stands in for a restarted process.
            interrupted = ExperimentStore(smoke_grid, root=root)
            runner = ExperimentRunner(
                interrupted, programs=smoke_programs, jobs=2, executor=executor
            )
        assert calls == smoke_grid.n_shards
        assert interrupted.fingerprint() == uninterrupted.fingerprint()
        assert (
            interrupted.assemble().fingerprint()
            == uninterrupted.assemble().fingerprint()
            == smoke_reference.fingerprint()
        )

    def test_resume_skips_completed_shards(
        self, tmp_path, smoke_grid, smoke_programs
    ):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        runner = ExperimentRunner(store, programs=smoke_programs)
        assert runner.run(max_shards=3) == 3
        assert len(store.completed_keys()) == 3
        assert runner.run() == 1  # only the one pending shard is recomputed
        assert runner.run() == 0  # complete store: nothing to do

    def test_sidecar_without_digest_reads_as_pending(
        self, tmp_path, smoke_grid, smoke_programs
    ):
        """A sidecar that lost its recorded digest does not complete its
        shard: ``fingerprint()`` reports the shard missing instead of
        raising a bare ``KeyError``, and a resume recomputes exactly it."""
        root = tmp_path / "store"
        store = ExperimentStore(smoke_grid, root=root)
        ExperimentRunner(store, programs=smoke_programs).run()
        clean = store.fingerprint()
        key = ShardKey(1, 0)
        sidecar_path = store._shard_paths(key)[1]
        sidecar = json.loads(sidecar_path.read_text())
        del sidecar["fingerprint"]
        sidecar_path.write_text(json.dumps(sidecar))

        reopened = ExperimentStore(smoke_grid, root=root)
        assert reopened.pending_keys() == [key]
        with pytest.raises(StoreError, match="missing"):
            reopened.fingerprint()
        assert ExperimentRunner(reopened, programs=smoke_programs).run() == 1
        assert reopened.fingerprint() == clean

    def test_edited_chunking_fails_reads_and_scrub(
        self, tmp_path, smoke_grid, smoke_programs, smoke_reference
    ):
        """``chunk_machines`` is outside the grid fingerprint, so an edited
        manifest keeps its old shards.  Their extents no longer match the
        chunks: reads and scrub must call them corrupt, not hand numpy
        arrays of the wrong width to ``assemble``, and a resume must
        count them as pending and recompute them."""
        root = tmp_path / "store"
        ExperimentRunner(
            ExperimentStore(smoke_grid, root=root), programs=smoke_programs
        ).run()
        manifest_path = root / ExperimentStore.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["chunk_machines"] = 1
        manifest_path.write_text(json.dumps(manifest))

        edited = ExperimentStore(smoke_grid, root=root)
        assert edited.grid.chunk_machines == 1
        assert edited.completed_keys() == []
        with pytest.raises(StoreError, match="not in store"):
            edited.read_shard(ShardKey(0, 0))

        # A unit named for no chunk of the grid belongs to no grid cell.
        for suffix in (".npz", ".json"):
            source = root / "shards" / f"p0000-c0001{suffix}"
            (root / "shards" / f"p0009-c0000{suffix}").write_bytes(source.read_bytes())
        statuses = {
            finding.path: finding.status
            for finding in ExperimentStore.scrub(root, repair=False)
        }
        assert statuses["shards/p0009-c0000.npz"] == "orphaned"
        # The sidecar's recorded extent is what disagrees with the grid.
        for stale in ("p0000-c0000", "p0000-c0001", "p0001-c0000", "p0001-c0001"):
            assert statuses[f"shards/{stale}.json"] == "corrupt"
        for suffix in (".npz", ".json"):
            (root / "shards" / f"p0009-c0000{suffix}").unlink()

        # The first resume recomputes the stale shards itself.
        ExperimentRunner(edited, programs=smoke_programs).run()
        assert edited.is_complete()
        assert edited.read_shard(ShardKey(0, 2))[0].shape == (SMOKE.n_settings, 1)
        assert edited.assemble().fingerprint() == smoke_reference.fingerprint()
        assert all(
            finding.status == "ok"
            for finding in ExperimentStore.scrub(root, repair=False)
        )

    def test_runner_rejects_misaligned_programs(self, smoke_grid, smoke_programs):
        store = ExperimentStore(smoke_grid, root=None)
        with pytest.raises(ValueError, match="mismatch"):
            ExperimentRunner(store, programs=list(reversed(smoke_programs)))
        with pytest.raises(ValueError, match="programs"):
            ExperimentRunner(store, programs=smoke_programs[:1])
        with pytest.raises(ValueError, match="executor"):
            ExperimentRunner(store, programs=smoke_programs, executor="gpu")


class TestDatasetIntegration:
    def test_load_or_build_uses_store(self, tmp_path):
        clear_memory_cache()
        try:
            data = load_or_build(SMOKE, cache_directory=tmp_path)
            root = store_root(SMOKE, tmp_path)
            assert root.exists()
            store = experiment_store(SMOKE, tmp_path)
            assert store.is_complete()
            assert (
                store.assemble().fingerprint() == data.training.fingerprint()
            )
        finally:
            clear_memory_cache()

    def test_load_or_build_resumes_partial_store(self, tmp_path, smoke_programs):
        clear_memory_cache()
        try:
            store = experiment_store(SMOKE, tmp_path)
            ExperimentRunner(store, programs=smoke_programs).run(max_shards=1)
            data = load_or_build(SMOKE, cache_directory=tmp_path)
            assert experiment_store(SMOKE, tmp_path).is_complete()
            assert data.training.runtimes.shape == (2, 6, 4)
        finally:
            clear_memory_cache()

    def test_concurrent_sessions_build_once(self, tmp_path):
        clear_memory_cache()
        try:
            results = []
            errors = []

            def build():
                try:
                    results.append(load_or_build(SMOKE, cache_directory=tmp_path))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(results) == 4
            # All sessions share the single memoised build.
            assert all(data is results[0] for data in results)
        finally:
            clear_memory_cache()

    def test_store_status_is_read_only(self, tmp_path):
        status = store_status(SMOKE, tmp_path / "cache")
        assert status.completed_units == 0
        assert status.total_units == grid_for_scale(SMOKE).n_shards
        assert not status.complete
        # A status query must not create the store as a side effect.
        assert not (tmp_path / "cache").exists()

    def test_session_without_disk_cache_touches_no_disk(self, tmp_path):
        from repro.api import Session

        session = Session(SMOKE, use_disk_cache=False, cache_dir=tmp_path / "c")
        assert session.data.store().root is None
        status = session.data.status()
        assert status.root == "<memory>"
        assert not (tmp_path / "c").exists()

    def test_session_memory_store_persists_partial_progress(self, tmp_path):
        """data.build progress with use_disk_cache=False survives into
        data.status and is finished (not redone) by data.dataset()."""
        from repro.api import Session

        clear_memory_cache()
        try:
            session = Session(
                SMOKE, use_disk_cache=False, cache_dir=tmp_path / "c"
            )
            assert session.data.build(max_shards=1) == 1
            assert session.data.status().completed_units == 1
            store = session.data.store()
            data = session.data.dataset()
            # The session's own store was completed in place.
            assert store.is_complete()
            assert (
                data.training.fingerprint() == store.assemble().fingerprint()
            )
            assert not (tmp_path / "c").exists()
        finally:
            clear_memory_cache()

    def test_adopt_matches_computed_shards(
        self, tmp_path, smoke_grid, smoke_programs, smoke_reference
    ):
        """adopt() slices a monolithic build into shards bit-identical to
        directly computed ones (same digests, same store fingerprint)."""
        computed = ExperimentStore(smoke_grid, root=tmp_path / "computed")
        ExperimentRunner(computed, programs=smoke_programs).run()
        adopted = ExperimentStore(smoke_grid, root=tmp_path / "adopted")
        assert adopted.adopt(smoke_reference) == smoke_grid.n_shards
        assert adopted.fingerprint() == computed.fingerprint()
        assert adopted.adopt(smoke_reference) == 0  # idempotent

    def test_adopt_rejects_mismatched_grid(self, smoke_reference):
        other = grid_for_scale(
            Scale(name="smoke", programs=("crc",), n_machines=4, n_settings=6)
        )
        store = ExperimentStore(other, root=None)
        with pytest.raises(StoreError, match="grid"):
            store.adopt(smoke_reference)

    def test_second_memoryless_session_stays_consistent(self):
        """A session served another session's memoised dataset still ends
        with its own store complete (dataset/status/build agree)."""
        from repro.api import Session

        clear_memory_cache()
        try:
            first = Session(SMOKE, use_disk_cache=False)
            second = Session(SMOKE, use_disk_cache=False)
            data1 = first.data.dataset()
            data2 = second.data.dataset()
            assert data2 is data1  # module memo shared across sessions
            assert second.data.status().complete
            assert second.data.build() == 0  # nothing left to compute
            assert (
                second.data.store().assemble().fingerprint()
                == data1.training.fingerprint()
            )
        finally:
            clear_memory_cache()

    def test_manifest_is_json_readable(self, tmp_path, smoke_grid):
        store = ExperimentStore(smoke_grid, root=tmp_path / "store")
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert manifest["grid_fingerprint"] == smoke_grid.fingerprint()
        assert manifest["chunk_machines"] == 2
        assert len(manifest["machines"]) == 4
