"""The fold-level result store: append-only, digest-verified, resumable.

The :class:`~repro.store.checkpoint.CheckpointStore` of
:mod:`repro.store.store`, scaled down to protocol folds: one JSON file
per (variant, held-out program) fold under::

    protocol-<scale>-<fingerprint>/
        manifest.json            # protocol identity: training fingerprint,
                                 # variants, programs, machine count
        folds/
            <variant>--<program>.json

Each fold carries its own content digest and the protocol fingerprint,
is written atomically (temp file + rename) and never rewritten, and
counts as complete only once its digest checks out — so a killed
protocol run resumes by skipping every verified fold, and a resumed run
assembles to results bit-identical to a single-shot run.  With
``root=None`` the store keeps folds in memory: same API, nothing on disk.
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
    Scrub,
    atomic_write_text,
    read_json_object,
)
from repro.store.checkpoint import CheckpointStore, StoreStatus

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


class FoldStore(CheckpointStore):
    """Checkpointed fold results for one protocol grid.

    Completed folds are never rewritten; concurrent writers of the same
    fold race benignly (identical bytes, atomic rename).  ``grid`` is the
    full fold axis — every (variant, program) pair of the protocol — and
    resumability is simply ``pending_keys`` = grid minus verified shards.
    """

    NAME = "fold store"
    kind = "fold"
    UNIT_DIR = "folds"
    SUFFIXES = (".json",)
    IDENTITY = "protocol"
    PIN = "protocol_fingerprint"
    FORMAT = FOLD_FORMAT
    MANIFEST_SITE = "fold.manifest"
    Error = FoldStoreError

    def __init__(
        self,
        fingerprint: str,
        variants: Sequence[VariantSpec],
        programs: Sequence[str],
        root: str | Path | None = None,
        metadata: dict | None = None,
    ):
        self.variants = list(variants)
        self.programs = list(programs)
        self.metadata = dict(metadata or {})
        self._grid = frozenset(self.unit_keys())
        self._open(fingerprint, root)

    def _manifest_fields(self) -> dict:
        return {
            "variants": [variant.describe() for variant in self.variants],
            "programs": self.programs,
            "metadata": self.metadata,
        }

    # ----------------------------------------------------------------- grid
    def unit_keys(
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

    # --------------------------------------------------------------- shards
    def _fold_path(self, key: FoldKey) -> Path:
        return self.root / self.UNIT_DIR / f"{key.stem()}.json"

    def _probe(self, key: FoldKey) -> str:
        """A fold is complete only once its full digest check passes."""
        return _load_fold(self._fold_path(key), self.identity)[1]

    _digest = staticmethod(fold_fingerprint)

    def write_fold(self, record: FoldRecord) -> None:
        """Checkpoint one computed fold (atomic; never rewrites)."""
        if record.key not in self._grid:
            raise FoldStoreError(f"fold {record.key.stem()} not in this protocol grid")
        self._write(record.key, record)

    def _save(self, key: FoldKey, record: FoldRecord, digest: str) -> None:
        shard = {
            "format": FOLD_FORMAT,
            "protocol_fingerprint": self.identity,
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

    def read_fold(self, key: FoldKey) -> FoldRecord:
        """Load one fold, verifying its content digest."""
        return self._read(key)

    def _load(self, key: FoldKey) -> FoldRecord | None:
        try:
            return _load_fold(self._fold_path(key), self.identity)[0]
        except FileNotFoundError:
            return None

    # ---------------------------------------------------------------- scrub
    @classmethod
    def _scrub_unit(
        cls, scrub: Scrub, stem: str, paths: dict[str, Path], identity, manifest
    ) -> None:
        path = paths[".json"]
        try:
            _load_fold(path, identity)
        except FoldStoreError as error:
            scrub.damage(path, "fold", error, "quarantine")
        else:
            scrub.note(path, "fold")

    # --------------------------------------------------------------- status
    def status(self) -> StoreStatus:
        return self._status(
            {
                variant.key: [FoldKey(variant.key, program) for program in self.programs]
                for variant in self.variants
            },
            title="protocol store",
            finished="protocol complete — ready to render",
        )
