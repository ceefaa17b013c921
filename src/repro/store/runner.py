"""The resumable experiment runner.

An :class:`ExperimentRunner` walks the (program × machine-chunk) shard
grid of an :class:`~repro.store.store.ExperimentStore`, computes every
pending shard through the compile-once/simulate-many hot path of
:mod:`repro.store.compute`, and checkpoints each shard to the store as
it completes.  Interrupt it anywhere — kill -9, ``max_shards`` cap,
crash — and the next call picks up exactly where it left off, skipping
every shard already on disk.

Shards fan out over the executors of :mod:`repro.parallel` (``serial``,
``thread``, ``process``).  Each shard is a pure function of the manifest
grid, so the assembled result is bit-identical whichever executor,
chunking, or interruption pattern produced it.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.parallel import (
    CLUSTER,
    RUNNER_EXECUTORS,
    resolve_jobs,
    resolve_strategy,
    run_batch_completed,
)
from repro.store.compute import compute_shard, compute_shard_task
from repro.store.store import ExperimentStore, ShardKey


class ExperimentRunner:
    """Drives a store from partial to complete, one checkpointed shard at a time.

    Args:
        store: the (possibly partially filled) store to complete.
        programs: :class:`Program` objects aligned with the grid's
            ``program_names``; resolved from the MiBench suite by name
            when omitted.
        compiler: shared memoising compiler for serial/thread execution
            (its cache makes consecutive chunks of one program reuse
            every compiled binary); process workers rebuild their own.
        jobs: worker count (1 = serial, negative = all cores).
        executor: ``auto``, ``serial``, ``thread``, ``process``, or
            ``cluster`` — the last claims shards through the shared
            lease table of :mod:`repro.cluster`, so any number of
            concurrent runner processes (this host or peers on a shared
            filesystem) drain the same store together.
        lease_ttl: for ``cluster`` only — seconds without a heartbeat
            before this store's leases count as stale and reclaimable.
    """

    def __init__(
        self,
        store: ExperimentStore,
        programs: Sequence[Program] | None = None,
        compiler: Compiler | None = None,
        jobs: int | None = 1,
        executor: str = "auto",
        lease_ttl: float | None = None,
    ):
        if executor not in RUNNER_EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {RUNNER_EXECUTORS}"
            )
        self.store = store
        self.compiler = compiler if compiler is not None else Compiler()
        self.jobs = resolve_jobs(jobs)
        self.executor = executor
        self.lease_ttl = lease_ttl
        if programs is None:
            from repro.programs.mibench import mibench_program

            programs = [
                mibench_program(name) for name in store.grid.program_names
            ]
        if len(programs) != store.grid.n_programs:
            raise ValueError(
                f"{len(programs)} programs for "
                f"{store.grid.n_programs} grid entries"
            )
        mismatched = [
            name
            for name, program in zip(store.grid.program_names, programs)
            if program.name != name
        ]
        if mismatched:
            raise ValueError(f"program/grid name mismatch: {mismatched}")
        self.programs = list(programs)

    # ------------------------------------------------------------------ run
    def run(
        self,
        max_shards: int | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> int:
        """Compute up to ``max_shards`` pending shards; return how many.

        Every shard is checkpointed to the store the moment it
        completes, in completion order, so killing the run at any point
        loses at most the shards still in flight (one per worker).  The
        call can be aborted (or capped) anywhere and re-entered later.
        Returns 0 when the store is already complete.
        """
        if self.executor == CLUSTER:
            return self._run_cluster(max_shards, progress)
        pending = self.store.pending_keys()
        total = self.store.grid.n_shards
        already = total - len(pending)
        if max_shards is not None:
            pending = pending[: max(max_shards, 0)]
        if not pending:
            return 0

        _, strategy = resolve_strategy(self.jobs, self.executor, len(pending))
        # One settings list shared by every work item: the grid's setting
        # axis is identical across shards, so building it per item would
        # hold (and, for process pools, pickle) n_shards copies.
        settings = list(self.store.grid.settings)
        done = 0
        for index, arrays in run_batch_completed(
            self._shard_function(strategy),
            [self._work_item(key, settings, strategy) for key in pending],
            jobs=self.jobs,
            executor=strategy,
        ):
            key = pending[index]
            self.store.write_shard(key, arrays)
            done += 1
            if progress is not None:
                progress(
                    f"shard {key.stem()} done ({already + done}/{total})"
                )
        return done

    def run_to_completion(
        self, progress: Callable[[str], None] | None = None
    ):
        """Finish every pending shard and assemble the full training set."""
        self.run(progress=progress)
        return self.store.assemble()

    # ------------------------------------------------------------ internals
    def _run_cluster(
        self, max_shards: int | None, progress: Callable[[str], None] | None
    ) -> int:
        """One cluster worker's share of the build: claim, compute,
        checkpoint through the shared lease table.  Run any number of
        these concurrently against the same store root."""
        from repro.cluster import ClusterWorker, ShardQueue
        from repro.cluster.lease import DEFAULT_LEASE_TTL

        if not self.store.pending_keys():
            return 0  # complete already; leave no cluster directory behind

        worker = ClusterWorker(
            ShardQueue(self),
            lease_ttl=(
                self.lease_ttl
                if self.lease_ttl is not None
                else DEFAULT_LEASE_TTL
            ),
            max_units=max_shards,
            progress=progress,
        )
        return worker.run().units_completed

    def _work_item(self, key: ShardKey, settings, strategy: str):
        program = self.programs[key.program]
        machines = self.store.grid.chunk_of(key)
        if strategy == "process":
            return (
                program,
                machines,
                settings,
                self.compiler.space,
                self.compiler.cache_enabled,
            )
        return (program, machines, settings)

    def _shard_function(self, strategy: str):
        if strategy == "process":
            return compute_shard_task

        # Serial/thread shards share the runner's memoising compiler.
        # Clearing it when the program changes bounds memory to roughly
        # one program's binaries over an arbitrarily large grid (the
        # program-major shard order makes same-program shards adjacent),
        # mirroring what compute_shard_task does in process workers.
        # Compiler.compile reads its cache with one atomic .get(), so a
        # mid-flight clear under the thread executor costs at most a
        # recompile, never correctness.
        lock = threading.Lock()
        state: dict = {"program": None}

        def work(item):
            program, machines, settings = item
            with lock:
                if state["program"] not in (None, program.name):
                    self.compiler.clear_cache()
                state["program"] = program.name
            return compute_shard(program, machines, settings, self.compiler)

        return work
