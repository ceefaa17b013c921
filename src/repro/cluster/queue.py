"""Work queues: the shard and fold grids viewed as checkpointed units.

A queue is the one description of a unit family for
:func:`repro.cluster.drain`: enumerate pending unit ids, check whether
one is done, execute one — with the store's own manifest as the only
source of truth.  Everything but the execution is read straight off the
:class:`~repro.store.checkpoint.CheckpointStore` both stores share:
``kind``, ``identity`` (the fingerprint every worker of one cluster
must share), ``cluster_root``, ``total_units``, ``pending_units`` and
``is_done``.  Unit ids are the stores' existing unit stems
(``p0000-c0000`` for dataset shards, ``variant--program`` for protocol
folds), so lease files, progress records, and store files all speak the
same names.

For process pools a queue also carries a picklable per-unit ``task``
with its ``initializer``/``initargs``, the per-unit ``item``, and
``commit(unit, result)``, which checkpoints one result and returns its
counts; ``execute(unit)`` is ``commit`` of the in-process computation.
Only lease drains need an on-disk store (``cluster_root`` raises for
memory stores); queues never talk to the lease table themselves.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Protocol, Sequence

from repro.evalrun.pipeline import _compute_fold_task, _init_protocol_worker
from repro.store.checkpoint import CheckpointStore
from repro.store.compute import compute_shard, compute_shard_task


class WorkQueue(Protocol):
    """What the lease worker loop needs from a unit source."""

    #: Manifest fingerprint every worker of one cluster must share.
    identity: str
    #: Shared directory for leases and progress, under the store root.
    cluster_root: Path
    #: Human label for progress lines ("shard" / "fold").
    kind: str

    def total_units(self) -> int: ...

    def pending_units(self) -> list[str]: ...

    def is_done(self, unit: str) -> bool: ...

    def execute(self, unit: str) -> dict: ...


class _StoreQueue:
    """The unit bookkeeping of a queue over ``store``'s ``selection``."""

    def __init__(self, store: CheckpointStore, selection=None):
        self.store = store
        self.selection = selection
        self.kind = store.kind
        self.identity = store.identity
        self.keys = {key.stem(): key for key in store.unit_keys(selection)}

    @property
    def cluster_root(self) -> Path:
        return self.store.cluster_root

    def total_units(self) -> int:
        return len(self.keys)

    def pending_units(self) -> list[str]:
        return self.store.pending_units(self.selection)

    def is_done(self, unit: str) -> bool:
        return self.store.has(self.keys[unit])


class ShardQueue(_StoreQueue):
    """Dataset-build units: one store shard per unit.

    Wraps an :class:`~repro.store.runner.ExperimentRunner`.  In-process
    shards share the runner's memoising compiler, which amortises
    compilation across consecutive same-program shards; process workers
    keep their own (:func:`~repro.store.compute.compute_shard_task`).
    Each shard is checkpointed via the store's ordinary atomic,
    append-only write.
    """

    task = staticmethod(compute_shard_task)
    initializer = None
    initargs: tuple = ()

    def __init__(self, runner):
        super().__init__(runner.store)
        self.runner = runner
        # One settings list shared by every unit: the grid's setting axis
        # is identical across shards, so building it per item would hold
        # (and, for process pools, pickle) n_shards copies.
        self._settings = list(self.store.grid.settings)
        self._lock = threading.Lock()
        self._program: str | None = None

    def item(self, unit: str) -> tuple:
        key = self.keys[unit]
        return (
            self.runner.programs[key.program],
            self.store.grid.chunk_of(key),
            self._settings,
            self.runner.compiler.cache_enabled,
        )

    def commit(self, unit: str, arrays) -> dict:
        self.store.write_shard(self.keys[unit], arrays)
        runtimes, o3_runtimes = arrays[0], arrays[1]
        # Every setting *and* the -O3 baseline is simulated per machine.
        return {"simulation_calls": runtimes.size + o3_runtimes.size}

    def execute(self, unit: str) -> dict:
        key = self.keys[unit]
        program = self.runner.programs[key.program]
        compiler = self.runner.compiler
        # Clearing the shared compiler when the program changes bounds
        # memory to roughly one program's binaries over an arbitrarily
        # large grid (the program-major shard order makes same-program
        # shards adjacent), mirroring compute_shard_task in process
        # workers.  clear_cache and compile_many both run under the
        # compiler's own lock, so a clear waits for an in-flight batch
        # and a batch after it simply recompiles: never a torn cache.
        with self._lock:
            if self._program not in (None, program.name):
                compiler.clear_cache()
            self._program = program.name
        arrays = compute_shard(
            program, self.store.grid.chunk_of(key), self._settings, compiler
        )
        return self.commit(unit, arrays)


class FoldQueue(_StoreQueue):
    """Protocol-run units: one leave-one-out fold per unit.

    Wraps an :class:`~repro.evalrun.pipeline.EvaluationPipeline`.
    In-process folds share the pipeline's oracle and fitted predictors;
    process workers receive the training set once, through the pool
    initializer, and fit their own.  Each fold lands via the fold
    store's atomic write.  ``variants`` restricts the queue to a subset
    of variant keys, mirroring the pipeline's ``--only`` path.
    """

    task = staticmethod(_compute_fold_task)
    initializer = staticmethod(_init_protocol_worker)

    def __init__(self, pipeline, variants: Sequence[str] | None = None):
        super().__init__(pipeline.store, None if variants is None else list(variants))
        self.pipeline = pipeline

    @property
    def initargs(self) -> tuple:
        pipeline = self.pipeline
        return (pipeline.training, pipeline.programs, self.store.variants)

    def item(self, unit: str) -> tuple[str, str]:
        key = self.keys[unit]
        return (key.variant, key.program)

    def commit(self, unit: str, result) -> dict:
        record, counts = result
        self.store.write_fold(record)
        return counts

    def execute(self, unit: str) -> dict:
        return self.commit(unit, self.pipeline._folds.compute(self.item(unit)))
