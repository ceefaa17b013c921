"""Cluster observability: per-worker progress files and the status view.

Each worker keeps one small JSON file of cumulative counters under
``<cluster root>/progress/``, rewritten atomically after every unit, so
observers never see torn state and a dead worker's last numbers survive
it.  :meth:`ClusterStatus.collect` joins three sources — the checkpoint
store (total/completed units), the lease table (in-flight and orphaned
claims), and the progress files (per-worker throughput) — into one
snapshot, rendered by ``repro-experiments status`` and written as the
``progress.json`` artifact.  It reads a
:class:`~repro.store.checkpoint.CheckpointStore` directly, or a work
queue, which answers the same questions for its selection of units.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.cluster.lease import (
    DEFAULT_LEASE_TTL,
    ClusterError,
    LeaseInfo,
    LeaseTable,
    scan_leases,
)
from repro.ioutil import ArtifactError, Scrub, atomic_write_text, read_json_object
from repro.store.checkpoint import CLUSTER_DIR

PROGRESS_DIR = "progress"
PROGRESS_ARTIFACT = "progress.json"

#: A worker whose progress file is older than this many lease TTLs is
#: shown as gone rather than live.
LIVE_WITHIN_TTLS = 2.0


def _safe_name(worker_id: str) -> str:
    return re.sub(r"[^\w.-]", "_", worker_id)


@dataclass
class WorkerStats:
    """One worker's progress file: its cumulative counts, crash-safe on disk.

    The fields are the file's keys.  Each field's default also gives the
    type a read coerces its value to.
    """

    worker: str = ""
    units: int = 0
    #: Units claimed but found already checkpointed — a reclaim of a
    #: finished unit, or a peer completing it between scan and claim.
    #: Skips cost a sidecar read, never a simulation.
    skipped: int = 0
    simulation_calls: int = 0
    store_hits: int = 0
    started: float = 0.0
    updated: float = 0.0
    done: bool = False  # the worker exited cleanly (drained or hit its cap)

    @property
    def elapsed(self) -> float:
        """Seconds from the worker's start to its last update."""
        return max(0.0, self.updated - self.started)

    @property
    def units_per_sec(self) -> float:
        return self.units / self.elapsed if self.elapsed > 0 else 0.0

    def idle(self, now: float) -> float:
        """Seconds since the worker's last update."""
        return max(0.0, now - self.updated)

    def write(self, cluster_root: Path) -> None:
        """Rewrite this worker's progress file atomically."""
        path = Path(cluster_root) / PROGRESS_DIR / f"{_safe_name(self.worker)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.updated = time.time()
        atomic_write_text(path, json.dumps(asdict(self)), site="progress.write")

    @classmethod
    def read(cls, path: Path) -> "WorkerStats":
        """Parse one progress file; damage raises :class:`ClusterError`.

        Progress rewrites are atomic, so a zero-byte, torn or malformed
        file is damage, never a concurrent writer.
        """
        payload = read_json_object(path, ClusterError)
        try:
            return cls(
                **{
                    spec.name: type(spec.default)(payload[spec.name])
                    for spec in fields(cls)
                }
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ClusterError(
                f"progress file {path.name} is malformed ({error!r})", path=path
            ) from error


@dataclass
class ClusterStatus:
    """A joined snapshot of one cluster: store × leases × workers."""

    kind: str  # "shard" or "fold"
    fingerprint: str
    total_units: int
    completed_units: int
    leases: list[LeaseInfo]
    workers: list[WorkerStats]
    lease_ttl: float
    #: Unreadable cluster files (zero-byte lease payloads, torn progress
    #: files, a corrupt table.json) — reported, never a traceback.
    corrupt_files: list[str] = field(default_factory=list)
    #: When the snapshot was taken; workers' idle times count from it.
    now: float = field(default_factory=time.time)

    @property
    def live_leases(self) -> list[LeaseInfo]:
        return [lease for lease in self.leases if not lease.stale]

    @property
    def orphaned_leases(self) -> list[LeaseInfo]:
        """Stale claims: their owner stopped heartbeating mid-unit."""
        return [lease for lease in self.leases if lease.stale]

    @property
    def live_workers(self) -> list[WorkerStats]:
        horizon = LIVE_WITHIN_TTLS * self.lease_ttl
        return [
            worker
            for worker in self.workers
            if not worker.done and worker.idle(self.now) <= horizon
        ]

    @classmethod
    def collect(cls, store, ttl: float) -> "ClusterStatus":
        """Snapshot the cluster state of a checkpoint store (or of a
        work queue's units); never creates directories.

        Safe to call on a store no worker has ever touched — the lease
        and progress scans simply come back empty.
        """
        cluster_root = Path(store.cluster_root)
        corrupt_files: list[str] = []
        leases: list[LeaseInfo] = []
        lease_root = cluster_root / LeaseTable.LEASE_SUBDIR
        if lease_root.is_dir():
            # Read-only: never construct a LeaseTable here — that would
            # create directories, rewrite metadata, and raise on a
            # corrupt or foreign table, none of which a status view may
            # do.  Damage is reported instead.
            try:
                LeaseTable.read_table(lease_root / LeaseTable.META_NAME, store.identity)
            except ClusterError:
                corrupt_files.append(f"{LeaseTable.LEASE_SUBDIR}/{LeaseTable.META_NAME}")
            leases = scan_leases(lease_root, ttl)
            corrupt_files.extend(
                f"{LeaseTable.LEASE_SUBDIR}/{lease.unit}{LeaseTable.SUFFIX}"
                for lease in leases
                if lease.corrupt
            )
        workers: list[WorkerStats] = []
        progress_root = cluster_root / PROGRESS_DIR
        if progress_root.is_dir():
            for path in sorted(progress_root.glob("*.json")):
                try:
                    workers.append(WorkerStats.read(path))
                except FileNotFoundError:
                    continue  # deleted between glob and read
                except ClusterError:
                    # Report the damage, never a traceback.
                    corrupt_files.append(f"{PROGRESS_DIR}/{path.name}")
        total = store.total_units()
        return cls(
            kind=store.kind,
            fingerprint=store.identity,
            total_units=total,
            completed_units=total - len(store.pending_units()),
            leases=leases,
            workers=workers,
            lease_ttl=ttl,
            corrupt_files=corrupt_files,
        )

    # -------------------------------------------------------------- artifact
    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "total_units": self.total_units,
            "completed_units": self.completed_units,
            "leased_units": [lease.unit for lease in self.live_leases],
            "orphaned_units": [lease.unit for lease in self.orphaned_leases],
            "lease_ttl": self.lease_ttl,
            "corrupt_files": list(self.corrupt_files),
            "workers": [
                {
                    "worker": worker.worker,
                    "units": worker.units,
                    "skipped": worker.skipped,
                    "simulation_calls": worker.simulation_calls,
                    "store_hits": worker.store_hits,
                    "units_per_sec": worker.units_per_sec,
                    "idle_seconds": worker.idle(self.now),
                    "done": worker.done,
                }
                for worker in self.workers
            ],
        }

    def write_artifact(self, cluster_root: str | Path) -> Path:
        """Write the ``progress.json`` artifact next to the lease table."""
        path = Path(cluster_root) / PROGRESS_ARTIFACT
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, json.dumps(self.payload(), indent=1, sort_keys=True) + "\n"
        )
        return path

    def render(self) -> str:
        lines = [
            f"cluster [{self.kind} units, fingerprint {self.fingerprint}]:",
            f"  units: {self.completed_units}/{self.total_units} complete, "
            f"{len(self.live_leases)} leased, "
            f"{len(self.orphaned_leases)} orphaned (ttl {self.lease_ttl:.0f}s)",
        ]
        live = self.live_workers
        lines.append(
            f"  workers: {len(live)} live of {len(self.workers)} seen"
        )
        for worker in self.workers:
            state = (
                "done"
                if worker.done
                else ("live" if worker in live else "gone")
            )
            lines.append(
                f"    {worker.worker}: {worker.units} units "
                f"(+{worker.skipped} skipped), "
                f"{worker.simulation_calls} sims, "
                f"{worker.units_per_sec:.2f} units/s [{state}]"
            )
        for lease in self.orphaned_leases:
            lines.append(
                f"    orphaned: {lease.unit} (owner {lease.owner}, "
                f"idle {lease.age:.0f}s) — reclaimable"
            )
        for name in self.corrupt_files:
            lines.append(f"    corrupt: {name} (quarantine with fsck)")
        return "\n".join(lines)


def scrub_cluster(
    scrub: Scrub, store_root: Path, fingerprint: str | None, ttl: float | None
) -> None:
    """Add a store's cluster files to its scrub, judged as status reads
    them (the table against the manifest's ``fingerprint`` when it
    verified).  Repairs quarantine a damaged table and delete unreadable
    or stale leases, tombstones, temp files and damaged progress files."""
    cluster_root = store_root / CLUSTER_DIR
    lease_root = cluster_root / LeaseTable.LEASE_SUBDIR
    if lease_root.is_dir():
        table = lease_root / LeaseTable.META_NAME
        try:
            if LeaseTable.read_table(table, fingerprint) is not None:
                scrub.note(table, "lease-table")
        except ClusterError as error:
            scrub.damage(table, "lease-table", error, "quarantine")
        ttl = DEFAULT_LEASE_TTL if ttl is None else ttl
        for lease in scan_leases(lease_root, ttl):
            path = lease_root / f"{lease.unit}{LeaseTable.SUFFIX}"
            if lease.corrupt:
                scrub.note(
                    path, "lease", "corrupt", "claim file with an unreadable payload", "delete"
                )
            elif lease.stale:
                scrub.note(
                    path, "lease", "stale-lease",
                    f"owner {lease.owner} silent for {lease.age:.0f}s (ttl {ttl:.0f}s)", "delete",
                )
            else:
                scrub.note(path, "lease")
        for path in sorted(lease_root.iterdir()):
            if path.name.endswith(".reclaim"):
                scrub.note(
                    path, "lease", "orphaned", "reclaim tombstone a steal left behind", "delete"
                )
            elif path.name.endswith(".tmp"):
                scrub.note(path, "tmp", "orphaned", "temp file from a killed writer", "delete")
    progress_root = cluster_root / PROGRESS_DIR
    for path in sorted(progress_root.glob("*.json")) if progress_root.is_dir() else ():
        try:
            WorkerStats.read(path)
        except ClusterError as error:
            scrub.damage(path, "progress", error, "delete")
        else:
            scrub.note(path, "progress")
    artifact = cluster_root / PROGRESS_ARTIFACT
    if artifact.exists():
        try:
            read_json_object(artifact)
        except ArtifactError as error:
            scrub.damage(artifact, "progress", error, "delete")


def store_cluster_status(store, ttl: float) -> "ClusterStatus | None":
    """Cluster snapshot of a store, ``None`` if never clustered.

    What the CLI ``status`` command calls: read-only, and ``None`` for a
    memory store or one no worker has ever touched.
    """
    if store.root is None or not store.cluster_root.is_dir():
        return None
    return ClusterStatus.collect(store, ttl)
