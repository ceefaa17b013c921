"""The checkpoint-store contract, checked once for both stores.

Dataset shards (:class:`~repro.store.ExperimentStore`) and protocol
folds (:class:`~repro.evalrun.FoldStore`) share one checkpoint protocol,
:class:`~repro.store.checkpoint.CheckpointStore`.  Every test here runs
over {shard store, fold store} × {disk, memory} where both modes apply:

* the first complete write of a unit wins;
* a reopened store sees the same completed keys;
* a torn unit reads as pending (disk);
* a disk and a memory store holding the same units share a fingerprint;
* stored values cannot be mutated from outside;
* opening a store sweeps stale temp files and keeps fresh ones (disk).

Unit values are synthetic — no compilation or simulation runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

import numpy as np
import pytest

from repro.evalrun import FoldRecord, FoldRow, FoldStore, protocol_variants
from repro.experiments.config import Scale
from repro.experiments.dataset import grid_for_scale
from repro.store import ExperimentStore
from repro.store.checkpoint import STALE_TMP_SECONDS

SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)


class _Shards:
    """The shard store's side of the contract: ``.npz`` + sidecar units."""

    grid = grid_for_scale(SMOKE, chunk_machines=2)

    def open(self, root):
        return ExperimentStore(self.grid, root=root)

    def value(self, key, scale):
        return tuple(
            np.full(shape, scale + key.program + 0.5 * key.chunk)
            for shape in self.grid.shard_shapes(key).values()
        )

    def write(self, store, key, value):
        store.write_shard(key, value)

    def read(self, store, key):
        return store.read_shard(key)

    def same(self, left, right):
        return all(np.array_equal(a, b) for a, b in zip(left, right))

    def mutate(self, value):
        value[0][...] = -1.0

    def unit_file(self, store, key):
        """The file whose landing completes the unit: the sidecar."""
        return store._shard_paths(key)[1]


class _Folds:
    """The fold store's side of the contract: one JSON file per fold."""

    variants = protocol_variants(with_code=False)[:2]
    programs = ["crc", "search"]

    def open(self, root):
        return FoldStore("0123456789abcdef", self.variants, self.programs, root=root)

    def value(self, key, scale):
        row = FoldRow(
            machine=0,
            setting=(0,) * 39,
            predicted_runtime=scale + len(key.program),
            o3_runtime=2.0,
            best_runtime=1.0,
        )
        return FoldRecord(key=key, rows=(row,))

    def write(self, store, key, value):
        store.write_fold(value)

    def read(self, store, key):
        return store.read_fold(key)

    def same(self, left, right):
        return left == right

    def mutate(self, value):
        value.rows[0].predicted_runtime = -1.0

    def unit_file(self, store, key):
        return store._fold_path(key)


FAMILIES = {"shard": _Shards(), "fold": _Folds()}


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]


@pytest.fixture(params=["disk", "memory"])
def mode(request):
    return request.param


def _open(family, mode, tmp_path):
    return family.open(tmp_path / "store" if mode == "disk" else None)


def _reopen(family, store):
    """A fresh instance on the same root (a restarted process); a memory
    store lives only in its one instance."""
    return store if store.root is None else family.open(store.root)


def _fill(family, store, scale=1.0):
    for key in store.unit_keys():
        family.write(store, key, family.value(key, scale))


class TestCheckpointContract:
    def test_first_write_wins(self, family, mode, tmp_path):
        store = _open(family, mode, tmp_path)
        key = next(iter(store.unit_keys()))
        first = family.value(key, 1.0)
        family.write(store, key, first)
        digest = store.digest(key)
        family.write(store, key, family.value(key, 9.0))  # silently ignored
        assert store.digest(key) == digest
        assert family.same(family.read(store, key), first)
        assert family.same(family.read(_reopen(family, store), key), first)

    def test_reopen_sees_same_completed_keys(self, family, mode, tmp_path):
        store = _open(family, mode, tmp_path)
        keys = list(store.unit_keys())
        for key in keys[::2]:
            family.write(store, key, family.value(key, 1.0))
        reopened = _reopen(family, store)
        assert reopened.completed_keys() == store.completed_keys() == keys[::2]
        assert reopened.pending_keys() == keys[1::2]
        assert reopened.pending_units() == [key.stem() for key in keys[1::2]]
        assert reopened.total_units() == len(keys)

    def test_torn_unit_reads_as_pending(self, family, tmp_path):
        store = _open(family, "disk", tmp_path)
        _fill(family, store)
        key = next(iter(store.unit_keys()))
        path = family.unit_file(store, key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        reopened = _reopen(family, store)
        assert not reopened.has(key)
        assert reopened.pending_keys() == [key]
        with pytest.raises(store.Error, match="missing"):
            reopened.fingerprint()
        # The resume rewrites exactly the torn unit.
        family.write(reopened, key, family.value(key, 1.0))
        assert reopened.fingerprint() == store.fingerprint()

    def test_disk_and_memory_fingerprints_agree(self, family, tmp_path):
        disk = _open(family, "disk", tmp_path)
        memory = _open(family, "memory", tmp_path)
        _fill(family, disk)
        _fill(family, memory)
        assert disk.fingerprint() == memory.fingerprint()
        assert _reopen(family, disk).fingerprint() == memory.fingerprint()
        other = _open(family, "memory", tmp_path)
        _fill(family, other, scale=2.0)
        assert other.fingerprint() != memory.fingerprint()

    def test_values_cannot_be_mutated_from_outside(self, family, mode, tmp_path):
        store = _open(family, mode, tmp_path)
        written = {key: family.value(key, 1.0) for key in store.unit_keys()}
        for key, value in written.items():
            family.write(store, key, value)
        fingerprint = store.fingerprint()
        key = next(iter(written))
        # Neither the writer's value nor a reader's copy is the store's
        # own: mutating them (where they allow it at all) changes nothing.
        with contextlib.suppress(ValueError, dataclasses.FrozenInstanceError):
            family.mutate(written[key])
        with contextlib.suppress(ValueError, dataclasses.FrozenInstanceError):
            family.mutate(family.read(store, key))
        assert family.same(family.read(store, key), family.value(key, 1.0))
        assert store.fingerprint() == fingerprint
        if mode == "memory":
            with pytest.raises((ValueError, dataclasses.FrozenInstanceError)):
                family.mutate(family.read(store, key))

    def test_open_sweeps_stale_temp_files(self, family, tmp_path):
        store = _open(family, "disk", tmp_path)
        unit_dir = store.root / store.UNIT_DIR
        stale = unit_dir / ".killed.json.1.tmp"
        fresh = unit_dir / ".live.json.2.tmp"
        for path in (stale, fresh):
            path.write_bytes(b"partial")
        past = time.time() - STALE_TMP_SECONDS - 60
        os.utime(stale, (past, past))
        _reopen(family, store)
        assert not stale.exists()
        assert fresh.exists()  # a live writer's temp file is left alone
