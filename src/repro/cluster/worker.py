"""The drain loop: every way a set of checkpointed units is computed.

:func:`drain` is the one entry point: it scans a queue's pending units,
caps them, and computes them serially, on a process pool, or — for the
``cluster`` executor — through a :class:`ClusterWorker`, checkpointing
each unit and summing its counts.  The local paths scan the store once
per call; the lease path rescans, because peers complete units too.

One :class:`ClusterWorker` is one process's share of a cluster drain
(claim → verify → compute → checkpoint → release).
Its loop re-derives everything from shared state each pass — pending
units from the store manifest, availability from the lease table — so
workers need no knowledge of each other and can join or die at any
point:

1. scan the store's pending units;
2. claim the first unleased one (``O_EXCL``; stale leases reclaimed);
3. *re-check the store after claiming* — a reclaimed unit whose first
   owner finished before dying, or one a racing peer just completed, is
   released untouched, which is what makes reclaim cost zero
   re-simulation;
4. compute the unit while a daemon thread heartbeats the lease;
5. checkpoint through the store's atomic append-only write, release,
   and update this worker's progress file.

When every pending unit is leased by peers the worker naps briefly and
rescans: either a peer finishes (the unit leaves pending) or dies (the
lease goes stale and is reclaimed).  The loop ends when the store has no
pending units — workers drain the queue, they do not wait for each
other.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.cluster.lease import DEFAULT_LEASE_TTL, LeaseTable
from repro.cluster.queue import WorkQueue
from repro.cluster.status import WorkerStats
from repro.parallel import CLUSTER, resolve_strategy, run_batch_completed


class ClusterWorker:
    """One process draining one work queue through the shared lease table.

    Args:
        queue: the :class:`~repro.cluster.queue.WorkQueue` to drain.
        worker_id: stable identity for leases and progress (default:
            host + pid + random token, unique per instance).
        lease_ttl: seconds without a heartbeat before this cluster's
            leases count as stale.
        poll_interval: nap length when every pending unit is leased by a
            peer (default: a quarter TTL, capped at one second).
        max_units: stop after computing this many units (budgeted
            drains; skipped units do not count).
        progress: optional free-text progress hook, CLI style.
        on_unit: optional structured hook, fired as ``on_unit(unit,
            completed, total)`` right after each computed unit's
            checkpoint lands (``completed`` counts every checkpointed
            unit of the queue, peers' included).
    """

    def __init__(
        self,
        queue: WorkQueue,
        worker_id: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float | None = None,
        max_units: int | None = None,
        progress: Callable[[str], None] | None = None,
        on_unit: Callable[[str, int, int], None] | None = None,
    ):
        self.queue = queue
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"{socket.gethostname()}-{os.getpid()}-{os.urandom(2).hex()}"
        )
        self.leases = LeaseTable(
            Path(queue.cluster_root) / LeaseTable.LEASE_SUBDIR,
            queue.identity,
            ttl=lease_ttl,
        )
        self.poll_interval = (
            poll_interval
            if poll_interval is not None
            else min(1.0, lease_ttl / 4)
        )
        self.max_units = max_units
        self.progress = progress
        self.on_unit = on_unit

    # ------------------------------------------------------------------ run
    def run(self) -> dict:
        """Drain the queue; return this worker's counts.

        ``computed`` and ``skipped`` count units (a skip is a claimed unit
        found already checkpointed); ``simulation_calls`` and
        ``store_hits`` sum the computed units' counts.
        """
        stats = WorkerStats(self.worker_id, started=time.time())
        total = self.queue.total_units()
        while True:
            if self.max_units is not None and stats.units >= self.max_units:
                break
            pending = self.queue.pending_units()
            if not pending:
                break
            claimed_any = False
            for unit in pending:
                if self.max_units is not None and stats.units >= self.max_units:
                    break
                if not self.leases.try_claim(unit, self.worker_id):
                    continue
                claimed_any = True
                try:
                    if self.queue.is_done(unit):
                        stats.skipped += 1
                        continue
                    counts = self._execute_leased(unit)
                finally:
                    self.leases.release(unit, self.worker_id)
                stats.units += 1
                stats.simulation_calls += int(counts.get("simulation_calls", 0))
                stats.store_hits += int(counts.get("store_hits", 0))
                stats.write(self.queue.cluster_root)
                if self.on_unit is not None or self.progress is not None:
                    # Peers complete units too: count from a fresh scan.
                    done = total - len(self.queue.pending_units())
                    if self.on_unit is not None:
                        self.on_unit(unit, done, total)
                    if self.progress is not None:
                        self.progress(
                            f"{self.queue.kind} {unit} done by "
                            f"{self.worker_id} ({done}/{total})"
                        )
            if not claimed_any:
                # Everything pending is leased by live peers: wait for
                # them to finish (unit leaves pending) or die (lease
                # goes stale, next scan reclaims it).
                time.sleep(self.poll_interval)
        stats.done = True
        stats.write(self.queue.cluster_root)
        return {
            "computed": stats.units,
            "skipped": stats.skipped,
            "simulation_calls": stats.simulation_calls,
            "store_hits": stats.store_hits,
        }

    # ------------------------------------------------------------ internals
    def _execute_leased(self, unit: str) -> dict:
        """Compute one claimed unit under a heartbeat thread.

        The heartbeat keeps the lease fresh at a quarter TTL while the
        unit computes; losing the lease mid-compute (a peer reclaimed
        after a stall) is deliberately not fatal — the computation
        finishes and its atomic write is either first or identical.
        """
        stop = threading.Event()

        def pump() -> None:
            while not stop.wait(self.leases.ttl / 4):
                self.leases.heartbeat(unit, self.worker_id)

        beat = threading.Thread(target=pump, daemon=True)
        beat.start()
        try:
            return self.queue.execute(unit)
        finally:
            stop.set()
            beat.join()


def drain(
    queue,
    *,
    jobs: int | None = 1,
    executor: str = "auto",
    max_units: int | None = None,
    progress: Callable[[str], None] | None = None,
    on_unit: Callable[[str, int, int], None] | None = None,
    lease_ttl: float | None = None,
) -> dict:
    """Compute up to ``max_units`` of a queue's pending units.

    Each unit is checkpointed the moment it completes, so a killed drain
    loses at most the units in flight and the next one skips the rest.
    ``on_unit(unit, completed, total)`` then ``progress(message)`` fire
    once per computed unit, after its checkpoint lands.  ``serial`` runs
    ``queue.execute`` here; ``process`` fans ``queue.task`` over a pool
    (a one-worker pool runs serially, so the initializer never pins its
    payload here); ``cluster`` claims units through the lease table.
    Returns ``computed``, ``already_done`` (checkpointed before the
    call) and ``skipped`` (claimed by a cluster worker but already
    checkpointed by a peer) unit counts plus the sum of the units' counts
    dicts.
    """
    pending = queue.pending_units()
    total = queue.total_units()
    already = total - len(pending)
    totals = {
        "computed": 0,
        "already_done": already,
        "skipped": 0,
        "simulation_calls": 0,
        "store_hits": 0,
    }
    if max_units is not None:
        pending = pending[: max(max_units, 0)]
    if not pending:
        return totals  # and no cluster directory is created
    if executor == CLUSTER:
        counts = ClusterWorker(
            queue,
            lease_ttl=lease_ttl if lease_ttl is not None else DEFAULT_LEASE_TTL,
            max_units=max_units,
            progress=progress,
            on_unit=on_unit,
        ).run()
        _add(totals, counts)
        return totals

    workers, strategy = resolve_strategy(jobs, executor, len(pending))
    if strategy == "serial":
        done = ((unit, queue.execute(unit)) for unit in pending)
    else:
        done = (
            (pending[index], queue.commit(pending[index], result))
            for index, result in run_batch_completed(
                queue.task,
                [queue.item(unit) for unit in pending],
                jobs=workers,
                executor=strategy,
                initializer=queue.initializer,
                initargs=queue.initargs,
            )
        )
    for unit, counts in done:
        totals["computed"] += 1
        _add(totals, counts)
        completed = already + totals["computed"]
        if on_unit is not None:
            on_unit(unit, completed, total)
        if progress is not None:
            progress(f"{queue.kind} {unit} done ({completed}/{total})")
    return totals


def _add(totals: dict, counts: dict) -> None:
    """Sum one counts dict into ``totals``."""
    for name, value in counts.items():
        totals[name] = totals.get(name, 0) + int(value)


def run_local_workers(
    cli_args: Sequence[str],
    workers: int,
    python: str | None = None,
    env: dict | None = None,
) -> list[int]:
    """Spawn a local fleet of ``repro-experiments worker`` processes.

    Each subprocess is one independent single-worker CLI invocation —
    real process isolation, the same code path a multi-host deployment
    runs — and this call blocks until all of them drain the queue.
    Returns their exit codes in spawn order.  ``cli_args`` is everything
    after ``worker`` (scale, cache dir, lease knobs).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    command = [
        python if python is not None else sys.executable,
        "-m",
        "repro.cli",
        "worker",
        *cli_args,
    ]
    procs = [subprocess.Popen(command, env=env) for _ in range(workers)]
    return [proc.wait() for proc in procs]
