"""The fold-level result store: append-only, digest-verified, resumable.

Same shard design as :mod:`repro.store.store`, scaled down to protocol
folds: one JSON shard per (variant, held-out program) fold under::

    protocol-<scale>-<fingerprint>/
        manifest.json            # protocol identity: training fingerprint,
                                 # variants, programs, machine count
        folds/
            <variant>--<program>.json

Each shard carries its own content digest and the protocol fingerprint,
is written atomically (temp file + rename) and never rewritten, so a
killed protocol run resumes by skipping every fold whose digest checks
out — and a resumed run assembles to results bit-identical to a
single-shot run.  With ``root=None`` the store keeps folds in memory:
same API, nothing on disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from repro.evalrun.variants import VariantSpec
from repro.ioutil import (
    DEFAULT_RETRY,
    ArtifactError,
    Finding,
    Scrub,
    atomic_write_text,
    read_json_object,
)

#: Manifest/shard schema version; bump on incompatible layout changes.
FOLD_FORMAT = 1


class FoldStoreError(ArtifactError):
    """A fold store is unusable: wrong protocol, version, or corrupt."""


class FoldKey(NamedTuple):
    """Grid coordinates of one fold: predictor variant × held-out program."""

    variant: str
    program: str

    def stem(self) -> str:
        return f"{self.variant}--{self.program}"


@dataclass(frozen=True)
class FoldRow:
    """One (held-out program, machine) leave-one-out outcome, value-level.

    The machine is stored by grid index — the manifest pins the machine
    list through the training fingerprint — and the predicted setting by
    its per-dimension value indices, so a row round-trips through JSON
    exactly.
    """

    machine: int
    setting: tuple[int, ...]
    predicted_runtime: float
    o3_runtime: float
    best_runtime: float

    def payload(self) -> dict:
        return {
            "machine": self.machine,
            "setting": list(self.setting),
            "predicted_runtime": self.predicted_runtime,
            "o3_runtime": self.o3_runtime,
            "best_runtime": self.best_runtime,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FoldRow":
        return cls(
            machine=int(payload["machine"]),
            setting=tuple(int(i) for i in payload["setting"]),
            predicted_runtime=float(payload["predicted_runtime"]),
            o3_runtime=float(payload["o3_runtime"]),
            best_runtime=float(payload["best_runtime"]),
        )


@dataclass(frozen=True)
class FoldRecord:
    """One completed fold: every machine's outcome for one (variant, program)."""

    key: FoldKey
    rows: tuple[FoldRow, ...]

    def payload(self) -> dict:
        return {
            "variant": self.key.variant,
            "program": self.key.program,
            "rows": [row.payload() for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FoldRecord":
        return cls(
            key=FoldKey(str(payload["variant"]), str(payload["program"])),
            rows=tuple(
                FoldRow.from_payload(row) for row in payload["rows"]
            ),
        )


def fold_fingerprint(record: FoldRecord) -> str:
    """Content digest of one fold (canonical JSON, bit-exact floats).

    JSON serialises floats as their shortest round-tripping repr, so two
    records with bit-identical values — and only those — share a digest.
    """
    canonical = json.dumps(
        record.payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _load_fold(path: Path, protocol_fingerprint: str | None) -> tuple[FoldRecord, str]:
    """Load one fold shard and its digest: the check the readers and
    ``scrub`` share.

    Damage raises :class:`FoldStoreError` carrying its status: a torn or
    unparseable file, a fold of another protocol (``orphaned``), a
    malformed record, or a digest mismatch.
    """
    shard = read_json_object(path, FoldStoreError)
    if protocol_fingerprint not in (None, shard.get("protocol_fingerprint")):
        raise FoldStoreError(
            f"fold {path.stem} belongs to a different protocol", "orphaned", path
        )
    try:
        record = FoldRecord.from_payload(shard["record"])
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise FoldStoreError(
            f"fold {path.stem} is corrupt: malformed record ({error!r})", path=path
        ) from error
    digest = fold_fingerprint(record)
    if digest != shard.get("fingerprint"):
        raise FoldStoreError(
            f"fold {path.stem} is corrupt: digest mismatch", "digest-mismatch", path
        )
    return record, digest


@dataclass
class FoldStoreStatus:
    """Progress snapshot of one fold store."""

    root: str
    protocol_fingerprint: str
    total_folds: int
    completed_folds: int
    per_variant: dict[str, tuple[int, int]]  # variant -> (done, total)

    @property
    def complete(self) -> bool:
        return self.completed_folds == self.total_folds

    @property
    def fraction(self) -> float:
        if self.total_folds == 0:
            return 1.0
        return self.completed_folds / self.total_folds

    def render(self) -> str:
        lines = [
            f"protocol store {self.root}",
            f"  fingerprint {self.protocol_fingerprint}: "
            f"{self.completed_folds}/{self.total_folds} folds complete "
            f"({self.fraction:.0%})",
        ]
        pending = [
            f"{variant} {done}/{total}"
            for variant, (done, total) in self.per_variant.items()
            if done < total
        ]
        if pending:
            lines.append(f"  pending: {', '.join(pending)}")
        else:
            lines.append("  protocol complete — ready to render")
        return "\n".join(lines)


class FoldStore:
    """Checkpointed fold results for one protocol grid.

    Completed folds are never rewritten; concurrent writers of the same
    fold race benignly (identical bytes, atomic rename).  ``grid`` is the
    full fold axis — every (variant, program) pair of the protocol — and
    resumability is simply ``pending_keys`` = grid minus verified shards.
    """

    MANIFEST_NAME = "manifest.json"
    FOLD_DIR = "folds"

    def __init__(
        self,
        fingerprint: str,
        variants: Sequence[VariantSpec],
        programs: Sequence[str],
        root: str | Path | None = None,
        metadata: dict | None = None,
    ):
        self.protocol_fingerprint = fingerprint
        self.variants = list(variants)
        self.programs = list(programs)
        self.metadata = dict(metadata or {})
        self.root = Path(root) if root is not None else None
        self._memory: dict[FoldKey, FoldRecord] = {}
        self._known_complete: set[FoldKey] = set()
        #: Digests of verified shards; filled by the has_fold scan so
        #: fingerprint() never has to re-read shard files.
        self._known_digests: dict[FoldKey, str] = {}
        if self.root is not None:
            manifest = self._read_manifest(self.root)
            if manifest is None:
                self._write_manifest()
            elif manifest["protocol_fingerprint"] != fingerprint:
                raise FoldStoreError(
                    f"store at {self.root} holds a different protocol "
                    f"({manifest['protocol_fingerprint']} != {fingerprint})"
                )

    # ------------------------------------------------------------- manifest
    @classmethod
    def _read_manifest(cls, root: Path) -> dict | None:
        try:
            manifest = read_json_object(root / cls.MANIFEST_NAME, FoldStoreError)
        except FileNotFoundError:
            return None
        if manifest.get("format") != FOLD_FORMAT:
            raise FoldStoreError(
                f"store at {root} uses format "
                f"{manifest.get('format')!r}, expected {FOLD_FORMAT}"
            )
        if not isinstance(manifest.get("protocol_fingerprint"), str):
            raise FoldStoreError(f"store manifest at {root} names no protocol")
        return manifest

    def _write_manifest(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / self.FOLD_DIR).mkdir(exist_ok=True)
        manifest = {
            "format": FOLD_FORMAT,
            "protocol_fingerprint": self.protocol_fingerprint,
            "variants": [variant.describe() for variant in self.variants],
            "programs": self.programs,
            "metadata": self.metadata,
        }
        atomic_write_text(
            self.root / self.MANIFEST_NAME,
            json.dumps(manifest, indent=1),
            site="fold.manifest",
            fsync=True,
        )

    # ----------------------------------------------------------------- grid
    def fold_keys(
        self, variants: Sequence[str] | None = None
    ) -> Iterator[FoldKey]:
        """Fold coordinates, variant-major in declaration order.

        ``variants`` restricts the walk to a subset of variant keys (the
        ``--only`` path, where unrequested ablations are never computed).
        """
        wanted = None if variants is None else set(variants)
        for variant in self.variants:
            if wanted is not None and variant.key not in wanted:
                continue
            for program in self.programs:
                yield FoldKey(variant.key, program)

    @property
    def n_folds(self) -> int:
        return len(self.variants) * len(self.programs)

    # --------------------------------------------------------------- shards
    def _fold_path(self, key: FoldKey) -> Path:
        return self.root / self.FOLD_DIR / f"{key.stem()}.json"

    def has_fold(self, key: FoldKey) -> bool:
        if self.root is None:
            return key in self._memory
        if key in self._known_complete:
            return True
        # Any missing, unreadable, truncated, schema-malformed, or
        # digest-broken shard is simply pending: the fold recomputes
        # rather than the resume crashing on a half-written or foreign file.
        try:
            _, digest = _load_fold(self._fold_path(key), self.protocol_fingerprint)
        except (OSError, FoldStoreError):
            return False
        self._known_complete.add(key)
        self._known_digests[key] = digest
        return True

    def completed_keys(
        self, variants: Sequence[str] | None = None
    ) -> list[FoldKey]:
        return [key for key in self.fold_keys(variants) if self.has_fold(key)]

    def pending_keys(
        self, variants: Sequence[str] | None = None
    ) -> list[FoldKey]:
        return [
            key for key in self.fold_keys(variants) if not self.has_fold(key)
        ]

    def is_complete(self, variants: Sequence[str] | None = None) -> bool:
        return not self.pending_keys(variants)

    def write_fold(self, record: FoldRecord) -> None:
        """Checkpoint one computed fold (atomic; never rewrites)."""
        key = record.key
        if key not in set(self.fold_keys()):
            raise FoldStoreError(f"fold {key.stem()} not in this protocol grid")
        if self.has_fold(key):
            return  # append-only: first complete write wins
        if self.root is None:
            self._memory[key] = record
            return
        digest = fold_fingerprint(record)
        shard = {
            "format": FOLD_FORMAT,
            "protocol_fingerprint": self.protocol_fingerprint,
            "fingerprint": digest,
            "record": record.payload(),
        }
        atomic_write_text(
            self._fold_path(key),
            json.dumps(shard),
            site="fold.shard",
            fsync=True,
            retries=DEFAULT_RETRY,
        )
        self._known_complete.add(key)
        self._known_digests[key] = digest

    def read_fold(self, key: FoldKey) -> FoldRecord:
        """Load one fold, verifying its content digest."""
        if self.root is None:
            try:
                return self._memory[key]
            except KeyError:
                raise FoldStoreError(f"fold {key.stem()} not in store") from None
        try:
            return _load_fold(self._fold_path(key), self.protocol_fingerprint)[0]
        except FileNotFoundError:
            raise FoldStoreError(f"fold {key.stem()} not in store") from None

    def fingerprint(self, variants: Sequence[str] | None = None) -> str:
        """Content digest over every (requested) fold, in grid order.

        Per-fold digests come from the verification cache the has_fold
        scan already filled (folds are immutable once written), so this
        never re-reads shard files.
        """
        digest = hashlib.sha256()
        digest.update(self.protocol_fingerprint.encode())
        for key in self.fold_keys(variants):
            if not self.has_fold(key):
                raise FoldStoreError(
                    f"cannot fingerprint: fold {key.stem()} missing"
                )
            fold_digest = self._known_digests.get(key)
            if fold_digest is None:  # memory store, or a pre-warmed cache
                fold_digest = fold_fingerprint(self.read_fold(key))
                self._known_digests[key] = fold_digest
            digest.update(fold_digest.encode())
        return digest.hexdigest()[:16]

    # ---------------------------------------------------------------- scrub
    @classmethod
    def scrub(cls, root: Path, repair: bool, ttl: float | None = None) -> list[Finding]:
        """Classify every artifact under a fold-store root with the
        reader's checks; read-only unless ``repair`` (quarantine damaged
        folds, delete temp files).  A manifest that does not verify pins
        no protocol, so the folds are then judged on their own digests.
        """
        from repro.cluster.status import scrub_cluster

        scrub = Scrub(root, f"fold-store {root.name}", repair)
        fingerprint = None
        try:
            manifest = cls._read_manifest(root)
            if manifest is None:
                raise FoldStoreError(f"no fold-store manifest at {root}")
            fingerprint = manifest["protocol_fingerprint"]
        except FoldStoreError as error:
            scrub.damage(root / cls.MANIFEST_NAME, "manifest", error, "quarantine")
        else:
            scrub.note(root / cls.MANIFEST_NAME, "manifest")
        fold_dir = root / cls.FOLD_DIR
        for path in sorted(fold_dir.iterdir()) if fold_dir.is_dir() else ():
            if path.name.endswith(".tmp"):
                scrub.note(path, "tmp", "orphaned", "temp file from a killed writer", "delete")
            elif path.suffix == ".json":
                try:
                    _load_fold(path, fingerprint)
                except FoldStoreError as error:
                    scrub.damage(path, "fold", error, "quarantine")
                else:
                    scrub.note(path, "fold")
        scrub_cluster(scrub, root, fingerprint, ttl)
        return scrub.findings

    # --------------------------------------------------------------- status
    def status(self) -> FoldStoreStatus:
        per_variant: dict[str, tuple[int, int]] = {}
        completed = 0
        for variant in self.variants:
            done = sum(
                1
                for program in self.programs
                if self.has_fold(FoldKey(variant.key, program))
            )
            per_variant[variant.key] = (done, len(self.programs))
            completed += done
        return FoldStoreStatus(
            root=str(self.root) if self.root is not None else "<memory>",
            protocol_fingerprint=self.protocol_fingerprint,
            total_folds=self.n_folds,
            completed_folds=completed,
            per_variant=per_variant,
        )


