"""The resumable experiment runner.

An :class:`ExperimentRunner` walks the (program × machine-chunk) shard
grid of an :class:`~repro.store.store.ExperimentStore`, computes every
pending shard through the compile-once/simulate-many hot path of
:mod:`repro.store.compute`, and checkpoints each shard to the store as
it completes.  Interrupt it anywhere — kill -9, ``max_shards`` cap,
crash — and the next call picks up exactly where it left off, skipping
every shard already on disk.

Shards drain through :func:`repro.cluster.drain` (``serial``,
``process``, or ``cluster``).  Each shard is a pure function of the
manifest grid, so the assembled result is bit-identical whichever
executor, chunking, or interruption pattern produced it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.parallel import RUNNER_EXECUTORS, resolve_jobs
from repro.store.store import ExperimentStore


class ExperimentRunner:
    """Drives a store from partial to complete, one checkpointed shard at a time.

    Args:
        store: the (possibly partially filled) store to complete.
        programs: :class:`Program` objects aligned with the grid's
            ``program_names``; resolved from the MiBench suite by name
            when omitted.
        compiler: shared memoising compiler for serial execution (its
            cache makes consecutive chunks of one program reuse every
            compiled binary); process workers rebuild their own.
        jobs: worker count (1 = serial, negative = all cores).
        executor: ``auto``, ``serial``, ``process``, or
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
        from repro.cluster import ShardQueue, drain

        return drain(
            ShardQueue(self),
            jobs=self.jobs,
            executor=self.executor,
            max_units=max_shards,
            progress=progress,
            lease_ttl=self.lease_ttl,
        )["computed"]

    def run_to_completion(
        self, progress: Callable[[str], None] | None = None
    ):
        """Finish every pending shard and assemble the full training set."""
        self.run(progress=progress)
        return self.store.assemble()
