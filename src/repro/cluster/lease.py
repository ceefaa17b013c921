"""The lease table: atomic claim files under the shared store directory.

One lease file per in-flight work unit, created with ``O_CREAT|O_EXCL``
so exactly one worker wins a claim whatever filesystem the store lives
on (the only primitive required of the shared directory is exclusive
create plus atomic rename — POSIX local disks and NFSv3+ both provide
them).  The file's mtime is the heartbeat: the owner touches it while
computing, and a lease whose mtime is older than the table's TTL is
*stale* — its owner is presumed dead and any peer may reclaim the unit.

Reclaim is a two-step steal: rename the stale lease to a worker-unique
tombstone (exactly one contender wins the rename; losers see
``FileNotFoundError`` and back off), then recreate the claim with
``O_EXCL``.  A heartbeat racing the steal — e.g. an owner that was only
paused, or clock skew across hosts — can leave two workers computing the
same unit; that is explicitly safe, because completed units are
idempotent to re-execute (append-only stores, first complete write wins,
identical bytes).

The table's ``table.json`` records the manifest fingerprint of the work
grid it coordinates.  A worker joining with a different fingerprint —
i.e. pointed at the same shared directory but holding a different grid —
fails fast with both fingerprints rather than quietly interleaving two
experiments' units.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path

from repro.ioutil import (
    ArtifactError,
    atomic_write_text,
    exclusive_create,
    guarded_os_call,
    read_json_object,
    with_retries,
)

#: Lease table schema version; bump on incompatible layout changes.
LEASE_FORMAT = 1

#: Seconds without a heartbeat before a lease counts as stale.  Shard
#: and fold units complete in well under a minute at every scale, and
#: the owner heartbeats several times per TTL, so expiry means the
#: worker is genuinely gone — not merely slow.
DEFAULT_LEASE_TTL = 60.0


class ClusterError(ArtifactError):
    """A cluster directory is unusable: wrong manifest, version, or corrupt."""


@dataclass(frozen=True)
class LeaseInfo:
    """One live or stale claim, as seen by a scan."""

    unit: str
    owner: str
    age: float
    stale: bool
    #: The claim file exists but its payload is unreadable (zero-byte or
    #: torn) — the crash-after-create window, or real corruption.
    corrupt: bool = False


class LeaseTable:
    """Atomic, heartbeat-expiring unit claims for one work grid.

    Args:
        root: the lease directory (created if missing), conventionally
            ``<store root>/cluster/leases`` so leases travel with the
            store they coordinate.
        fingerprint: the manifest fingerprint of the work grid; a table
            already on disk for a different fingerprint raises
            :class:`ClusterError` immediately.
        ttl: seconds without a heartbeat before a lease is stale.
    """

    META_NAME = "table.json"
    SUFFIX = ".lease"
    #: Conventional lease directory name under a store's cluster root.
    LEASE_SUBDIR = "leases"

    def __init__(self, root: str | Path, fingerprint: str, ttl: float = DEFAULT_LEASE_TTL):
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive: {ttl}")
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.ttl = float(ttl)
        self.root.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / self.META_NAME
        if self.read_table(meta_path, fingerprint) is None:
            atomic_write_text(
                meta_path,
                json.dumps(
                    {"format": LEASE_FORMAT, "fingerprint": fingerprint},
                    indent=1,
                ),
                fsync=True,
            )
            # Two same-fingerprint creators race benignly (identical
            # bytes); re-read so a different-fingerprint loser still
            # fails fast instead of trusting its own write.
            if self.read_table(meta_path, fingerprint) is None:
                raise ClusterError(f"unreadable lease table at {meta_path}")

    @classmethod
    def read_table(cls, path: Path, fingerprint: str | None) -> dict | None:
        """The table's metadata, checked; ``None`` when no table exists.

        A table of another format, or (given a ``fingerprint``) of
        another grid, raises :class:`ClusterError` like a corrupt one.
        """
        meta = cls._read_meta(path)
        if meta is None:
            return None
        if meta.get("format") != LEASE_FORMAT:
            raise ClusterError(
                f"lease table at {path.parent} uses format "
                f"{meta.get('format')!r}, expected {LEASE_FORMAT}",
                path=path,
            )
        if fingerprint is not None and meta.get("fingerprint") != fingerprint:
            raise ClusterError(
                f"lease table at {path.parent} coordinates a different "
                f"manifest ({meta.get('fingerprint')} != {fingerprint}); "
                f"every worker of one cluster must hold the same grid",
                path=path,
            )
        return meta

    @staticmethod
    def _read_meta(path: Path) -> dict | None:
        """The table's metadata, or ``None`` when no table file exists.

        Absence is decided by the read itself, never by a separate
        ``exists()`` check: a sibling worker's atomic create can land
        between the two, and its valid table would then look corrupt.
        A file that exists but is not a JSON object is damage, not
        absence — overwriting it would silently discard whatever grid
        it coordinated — so it raises.
        """
        try:
            return read_json_object(path, ClusterError)
        except FileNotFoundError:
            return None

    # --------------------------------------------------------------- claims
    def _path(self, unit: str) -> Path:
        return self.root / f"{unit}{self.SUFFIX}"

    def _age(self, path: Path) -> float | None:
        """Seconds since the lease's last heartbeat, or ``None`` if gone."""
        try:
            return max(0.0, time.time() - path.stat().st_mtime)
        except OSError:
            return None

    def try_claim(self, unit: str, owner: str) -> bool:
        """Claim one unit, reclaiming it first if its lease is stale.

        Returns True exactly when this caller now holds the lease.  The
        claim file is created with ``O_EXCL``, so two racing claimants
        cannot both win; a stale lease is stolen through an atomic
        rename that likewise has a single winner.
        """
        path = self._path(unit)

        def claim() -> int:
            # Transient OSErrors retry; FileExistsError (the race answer)
            # propagates immediately to the except arms below.
            return with_retries(
                lambda: exclusive_create(path, site="lease.claim"),
                seed_key=str(path),
            )

        try:
            fd = claim()
        except FileExistsError:
            age = self._age(path)
            if age is None:
                # Released (or stolen) between our open and stat: one
                # retry — if it is contended again, let the peer have it.
                try:
                    fd = claim()
                except FileExistsError:
                    return False
            elif age <= self.ttl:
                return False  # live lease: the owner is still heartbeating
            elif not self._steal(path):
                return False
            else:
                try:
                    fd = claim()
                except FileExistsError:
                    return False  # a third worker landed first; back off
        with os.fdopen(fd, "w") as handle:
            handle.write(
                json.dumps(
                    {
                        "owner": owner,
                        "host": socket.gethostname(),
                        "pid": os.getpid(),
                        "claimed_at": time.time(),
                    }
                )
            )
        return True

    def _steal(self, path: Path) -> bool:
        """Remove a stale lease; exactly one contender succeeds."""
        tomb = path.with_name(
            f"{path.name}.{os.getpid()}.{os.urandom(3).hex()}.reclaim"
        )
        try:
            os.rename(path, tomb)
        except OSError:
            return False  # a peer released or stole it first
        try:
            os.unlink(tomb)
        except OSError:
            pass
        return True

    def owner_of(self, unit: str) -> str | None:
        """The recorded owner, or ``None`` when unleased/unreadable."""
        return _lease_owner(self._path(unit))

    def heartbeat(self, unit: str, owner: str) -> bool:
        """Refresh the lease's mtime; False when the lease was lost.

        A lost heartbeat (lease stolen after an expiry, or released by a
        racing duplicate) is informational, not fatal: the unit is
        idempotent, so the current execution may finish — its write is
        either the first (and wins) or identical to the winner's.
        """
        path = self._path(unit)
        if self.owner_of(unit) != owner:
            return False
        try:
            guarded_os_call(
                lambda: os.utime(path),
                site="lease.heartbeat",
                seed_key=str(path),
            )
        except OSError:
            return False
        return True

    def release(self, unit: str, owner: str) -> bool:
        """Drop a claim this owner holds; False when it was not ours."""
        if self.owner_of(unit) != owner:
            return False
        try:
            guarded_os_call(
                lambda: os.unlink(self._path(unit)),
                site="lease.release",
                seed_key=unit,
            )
        except OSError:
            return False
        return True

    def leases(self) -> list[LeaseInfo]:
        """Every current claim, fresh and stale, sorted by unit."""
        return scan_leases(self.root, self.ttl)


def _lease_owner(path: Path) -> str | None:
    """A claim file's recorded owner, or ``None`` when it is unreadable."""
    try:
        owner = read_json_object(path).get("owner")
    except (OSError, ArtifactError):
        return None
    return owner if isinstance(owner, str) else None


def scan_leases(root: str | Path, ttl: float) -> list[LeaseInfo]:
    """Read-only scan of a lease directory.

    Unlike constructing a :class:`LeaseTable`, this never creates the
    directory, never writes ``table.json``, and never raises on a
    corrupt or foreign table — exactly what a status view needs.
    """
    root = Path(root)
    found = []
    for path in sorted(root.glob(f"*{LeaseTable.SUFFIX}")):
        try:
            age = max(0.0, time.time() - path.stat().st_mtime)
        except OSError:
            continue  # released between glob and stat
        owner = _lease_owner(path)
        unit = path.name[: -len(LeaseTable.SUFFIX)]
        found.append(
            LeaseInfo(
                unit=unit,
                owner=owner or "<unknown>",
                age=age,
                stale=age > ttl,
                corrupt=owner is None,
            )
        )
    return found
