"""The checkpoint protocol every resumable result store shares.

A :class:`CheckpointStore` keeps the units of one grid — dataset shards
of an :class:`~repro.store.store.ExperimentStore`, protocol folds of a
:class:`~repro.evalrun.foldstore.FoldStore` — as append-only,
content-digested files under one root::

    <root>/
        manifest.json       # format + the pinned identity fingerprint
        <unit dir>/         # one unit per grid key, named by its stem
        cluster/            # lease and progress files of cluster drains

A subclass brings its keys, its unit codec (``_probe`` — its own
completion rule — ``_save``, ``_load``, ``_scrub_unit``) and its
manifest payload.  With ``root=None`` units live in memory — same API,
nothing on disk.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

from repro.ioutil import ArtifactError, Finding, Scrub, atomic_write_text, read_json_object

#: Temp files older than this are orphans of killed writers and get
#: swept on store open; live writers finish a unit in well under this.
STALE_TMP_SECONDS = 3600.0

#: Subdirectory of a store root holding all cluster state (leases,
#: per-worker progress, the aggregated progress.json artifact).
CLUSTER_DIR = "cluster"


@dataclass
class StoreStatus:
    """A progress snapshot of one store, for the CLI ``status`` command."""

    title: str  # "experiment store" / "protocol store"
    kind: str  # "shard" / "fold"
    root: str
    fingerprint: str
    total_units: int
    completed_units: int
    per_group: dict[str, tuple[int, int]]  # program or variant -> (done, total)
    finished: str  # the closing line once nothing is pending
    grid: str | None = None  # the experiment store's grid line
    bytes_on_disk: int = 0

    @property
    def complete(self) -> bool:
        return self.completed_units == self.total_units

    @property
    def fraction(self) -> float:
        # An empty grid counts as complete rather than dividing by zero.
        if self.total_units == 0:
            return 1.0
        return self.completed_units / self.total_units

    def render(self) -> str:
        done = f"{self.completed_units}/{self.total_units}"
        lines = [f"{self.title} {self.root}"]
        if self.grid is None:
            lines.append(
                f"  fingerprint {self.fingerprint}: {done} {self.kind}s "
                f"complete ({self.fraction:.0%})"
            )
        else:
            lines.append(f"  grid: {self.grid}")
            if self.completed_units == 0:
                # "0/N complete (0%)" reads like a half-broken build; say
                # what actually happened — the grid is pinned, nothing ran.
                lines.append(
                    f"  {self.kind}s: grid pinned, no {self.kind}s built "
                    f"(0/{self.total_units})"
                )
            else:
                lines.append(
                    f"  {self.kind}s: {done} complete ({self.fraction:.0%}), "
                    f"{self.bytes_on_disk / 1024:.0f} KiB on disk"
                )
        pending = [
            f"{name} {done}/{total}"
            for name, (done, total) in self.per_group.items()
            if done < total
        ]
        lines.append(f"  pending: {', '.join(pending)}" if pending else f"  {self.finished}")
        return "\n".join(lines)


class CheckpointStore:
    """Append-only, self-verifying units of one grid, on disk or in memory.

    Completed units are never rewritten: a resume computes only
    :meth:`pending_keys`, and two writers of one unit race benignly
    (identical bytes, atomic rename).  Completion is monotonic, so a
    unit verified once stays cached with its digest and
    :meth:`fingerprint` never re-reads a unit file.
    """

    MANIFEST_NAME = "manifest.json"
    #: Subclass vocabulary: name (messages, scrub labels), unit kind,
    #: unit directory and file suffixes, the identity the manifest pins
    #: and its key there, format, failpoint site, error class.
    NAME: str
    kind: str
    UNIT_DIR: str
    SUFFIXES: tuple[str, ...]
    IDENTITY: str
    PIN: str
    FORMAT: int
    MANIFEST_SITE: str
    Error: type[ArtifactError]

    def _open(self, identity: str, root: str | Path | None) -> dict | None:
        """Attach to ``root`` (``None``: memory) pinned to ``identity``:
        create or check the manifest, sweep stale temp files.  Returns
        the manifest an earlier open wrote, else ``None``."""
        self.identity = identity
        self.root = Path(root) if root is not None else None
        self._memory: dict[Hashable, object] = {}
        self._verified: dict[Hashable, str] = {}  # complete unit -> digest
        if self.root is None:
            return None
        manifest = self._read_manifest(self.root)
        if manifest is None:
            self._write_manifest()
        elif manifest[self.PIN] != identity:
            raise self.Error(
                f"store at {self.root} holds a different {self.IDENTITY} "
                f"({manifest[self.PIN]} != {identity})"
            )
        # Only files past STALE_TMP_SECONDS go: a concurrent writer's
        # live temp file must not be yanked mid-write.
        cutoff = time.time() - STALE_TMP_SECONDS
        for path in (self.root / self.UNIT_DIR).glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass  # already gone, or not ours to remove
        return manifest

    # ------------------------------------------------------------- manifest
    @classmethod
    def _read_manifest(cls, root: Path) -> dict | None:
        try:
            manifest = read_json_object(root / cls.MANIFEST_NAME, cls.Error)
        except FileNotFoundError:
            return None
        if manifest.get("format") != cls.FORMAT:
            raise cls.Error(
                f"store at {root} uses format "
                f"{manifest.get('format')!r}, expected {cls.FORMAT}"
            )
        if not isinstance(manifest.get(cls.PIN), str):
            raise cls.Error(f"store manifest at {root} names no {cls.IDENTITY}")
        return manifest

    def _write_manifest(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / self.UNIT_DIR).mkdir(exist_ok=True)
        manifest = {"format": self.FORMAT, self.PIN: self.identity}
        atomic_write_text(
            self.root / self.MANIFEST_NAME,
            json.dumps({**manifest, **self._manifest_fields()}, indent=1),
            site=self.MANIFEST_SITE,
            fsync=True,
        )

    # ----------------------------------------------------------------- grid
    def has(self, key) -> bool:
        """Whether ``key``'s unit is complete by the store's own rule;
        anything it rejects (missing, torn, foreign, malformed) is
        pending, so a resume recomputes it rather than crashing."""
        if key in self._verified:
            return True
        if self.root is None:
            return False
        try:
            self._verified[key] = self._probe(key)
        except (OSError, ArtifactError):
            return False
        return True

    def completed_keys(self, selection=None) -> list:
        return [key for key in self.unit_keys(selection) if self.has(key)]

    def pending_keys(self, selection=None) -> list:
        return [key for key in self.unit_keys(selection) if not self.has(key)]

    def is_complete(self, selection=None) -> bool:
        return not self.pending_keys(selection)

    # ---------------------------------------------------------------- units
    def _write(self, key, value) -> None:
        """Checkpoint one unit (atomic; never rewrites)."""
        if self.has(key):
            return  # append-only: first complete write wins
        digest = self._digest(value)
        if self.root is None:
            self._memory[key] = value
        else:
            self._save(key, value, digest)
        self._verified[key] = digest

    def _read(self, key, *options):
        """One unit's value, verified by the codec's load on disk."""
        value = self._memory.get(key) if self.root is None else self._load(key, *options)
        if value is None:
            raise self.Error(f"{self.kind} {key.stem()} not in store")
        return value

    def digest(self, key) -> str:
        """The content digest of one complete unit."""
        if not self.has(key):
            raise self.Error(f"{self.kind} {key.stem()} not in store")
        return self._verified[key]

    def fingerprint(self, selection=None) -> str:
        """Content digest of the identity and every (selected) unit in
        grid order: equal for any two stores holding the same results,
        however computed, on disk or in memory."""
        digest = hashlib.sha256(self.identity.encode())
        for key in self.unit_keys(selection):
            if not self.has(key):
                raise self.Error(f"cannot fingerprint: {self.kind} {key.stem()} missing")
            digest.update(self._verified[key].encode())
        return digest.hexdigest()[:16]

    # -------------------------------------------------------------- cluster
    @property
    def cluster_root(self) -> Path:
        """Where lease drains keep their state; only on-disk stores have one."""
        if self.root is None:
            from repro.cluster.lease import ClusterError

            raise ClusterError(
                f"cluster execution needs an on-disk {self.NAME} (root=None is "
                f"memory-only; workers coordinate through the store directory)"
            )
        return self.root / CLUSTER_DIR

    def total_units(self, selection=None) -> int:
        return sum(1 for _ in self.unit_keys(selection))

    def pending_units(self, selection=None) -> list[str]:
        return [key.stem() for key in self.pending_keys(selection)]

    def _status(self, groups: dict[str, list], **fields) -> StoreStatus:
        """A snapshot counting each group's complete units."""
        per_group = {
            name: (sum(1 for key in keys if self.has(key)), len(keys))
            for name, keys in groups.items()
        }
        return StoreStatus(
            kind=self.kind,
            root=str(self.root) if self.root is not None else "<memory>",
            fingerprint=self.identity,
            total_units=sum(total for _, total in per_group.values()),
            completed_units=sum(done for done, _ in per_group.values()),
            per_group=per_group,
            **fields,
        )

    # ---------------------------------------------------------------- scrub
    @classmethod
    def _pinned(cls, root: Path) -> tuple[str, object]:
        """The identity the manifest at ``root`` pins, and what the store
        builds from the manifest; the store's error if it does not verify."""
        manifest = cls._read_manifest(root)
        if manifest is None:
            raise cls.Error(f"no {cls.NAME} manifest at {root / cls.MANIFEST_NAME}")
        return manifest[cls.PIN], manifest

    @classmethod
    def scrub(cls, root: Path, repair: bool, ttl: float | None = None) -> list[Finding]:
        """Classify every artifact under a store root with the reader's
        checks.  Read-only unless ``repair``: quarantine damaged units
        whole, delete temp files.  A manifest that does not verify pins
        nothing, so units are then judged on their own digests."""
        from repro.cluster.status import scrub_cluster

        scrub = Scrub(root, f"{cls.NAME.replace(' ', '-')} {root.name}", repair)
        identity = context = None
        try:
            identity, context = cls._pinned(root)
        except cls.Error as error:
            scrub.damage(root / cls.MANIFEST_NAME, "manifest", error, "quarantine")
        else:
            scrub.note(root / cls.MANIFEST_NAME, "manifest")
        unit_dir = root / cls.UNIT_DIR
        units: dict[str, dict[str, Path]] = {}
        for path in sorted(unit_dir.iterdir()) if unit_dir.is_dir() else ():
            if path.name.endswith(".tmp"):
                scrub.note(path, "tmp", "orphaned", "temp file from a killed writer", "delete")
            elif path.suffix in cls.SUFFIXES:
                units.setdefault(path.stem, {})[path.suffix] = path
        for stem in sorted(units):
            cls._scrub_unit(scrub, stem, units[stem], identity, context)
        scrub_cluster(scrub, root, identity, ttl)
        return scrub.findings
