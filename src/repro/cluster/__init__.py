"""Coordinator-free distributed workers over the shard and fold stores.

The experiment store (:mod:`repro.store`) and the fold store
(:mod:`repro.evalrun.foldstore`) are append-only, digest-verified, and
idempotent to re-execute — exactly the shape of a multi-node work queue.
This package adds the missing piece: a **lease table** of atomic claim
files under the shared store directory, so N worker processes — on one
host or many over a shared filesystem — drain one dataset build or one
protocol run concurrently with byte-identical output to a serial run.

There is no coordinator.  Each worker enumerates pending units straight
from the store manifest, claims one with an ``O_EXCL`` claim file,
heartbeats it while computing, checkpoints the result through the
store's ordinary atomic write, and releases the claim.  A worker that
dies mid-unit simply stops heartbeating; once its lease goes stale any
peer reclaims the unit and recomputes it — safe by construction, because
completed units are never rewritten and duplicate writers produce
identical bytes.

Entry points: ``repro-experiments worker`` (one process = one worker;
``--workers N`` spawns a local fleet), ``executor="cluster"`` on
:class:`~repro.store.runner.ExperimentRunner` and
:class:`~repro.evalrun.pipeline.EvaluationPipeline` (both are one
:func:`drain` call, the loop every executor shares), and
``repro-experiments status`` for the live :class:`ClusterStatus` view.
"""

from repro.cluster.lease import (
    DEFAULT_LEASE_TTL,
    ClusterError,
    LeaseInfo,
    LeaseTable,
)
from repro.cluster.queue import FoldQueue, ShardQueue, WorkQueue
from repro.cluster.status import (
    ClusterStatus,
    WorkerStats,
    store_cluster_status,
)
from repro.cluster.worker import (
    ClusterWorker,
    drain,
    run_local_workers,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "ClusterError",
    "ClusterStatus",
    "ClusterWorker",
    "FoldQueue",
    "LeaseInfo",
    "LeaseTable",
    "ShardQueue",
    "WorkQueue",
    "WorkerStats",
    "drain",
    "run_local_workers",
    "store_cluster_status",
]
