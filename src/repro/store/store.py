"""The sharded, resumable experiment store.

An :class:`ExperimentStore` holds the results of one experiment grid —
``programs × machines × settings`` — as a collection of append-only,
content-fingerprinted shard files, one per (program, machine-chunk).
On-disk layout under the store root::

    store-<scale>-<fingerprint>/
        manifest.json             # the full grid: programs, machines,
                                  # settings, chunking, metadata
        shards/
            p0000-c0000.npz       # runtimes[S, Mc], o3_runtimes[Mc],
            p0000-c0000.json      # counters[Mc, K], code_features[J]
            ...                   # + sidecar with the content digest

Shards are written atomically (temp file + rename, array file before
sidecar), so a killed run leaves either a complete shard or nothing — a
shard is complete once its sidecar fits its chunk and records a digest
and its array file is non-empty, and restarting recomputes the rest.
Because each shard is a pure function of the manifest grid, a resumed
store assembles to a :class:`~repro.core.training.TrainingSet`
bit-identical to a single-shot build, whatever the executor or
interruption pattern.  The checkpoint protocol itself (manifest,
stale temp-file sweep, append-only write, verified read, fingerprint,
scrub, progress counts) is the shared
:class:`~repro.store.checkpoint.CheckpointStore`; this module adds the
grid, its keys and the shard codec.

With ``root=None`` the store keeps shards in memory — same API, no disk —
which is how cache-less builds and tests run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.ioutil import (
    DEFAULT_RETRY,
    ArtifactError,
    Scrub,
    atomic_write_bytes,
    atomic_write_text,
    load_npz,
    read_json_object,
)

from repro.compiler.flags import FlagSetting
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.sim.counters import COUNTER_NAMES
from repro.store.checkpoint import CheckpointStore, StoreStatus
from repro.store.compute import ShardArrays

#: Manifest/sidecar schema version; bump on incompatible layout changes.
STORE_FORMAT = 1

#: Default machines per shard.  Larger chunks amortise compilation over
#: more simulations (compile-once/simulate-many) but checkpoint less
#: often; 8 keeps even the paper grid (35 × 200 machines) at a
#: manageable 875 shards.
DEFAULT_CHUNK_MACHINES = 8

_SHARD_ARRAY_NAMES = ("runtimes", "o3_runtimes", "counters", "code_features")


class StoreError(ArtifactError):
    """A store directory is unusable: wrong grid, version, or corrupt."""


class ShardKey(NamedTuple):
    """Grid coordinates of one shard: program index × machine-chunk index."""

    program: int
    chunk: int

    def stem(self) -> str:
        return f"p{self.program:04d}-c{self.chunk:04d}"


@dataclass(frozen=True)
class GridSpec:
    """The full, explicit experiment grid a store is built over.

    Everything is value-level (names, machine configurations, flag
    settings) so that the grid — and therefore every shard — is
    reproducible from the manifest alone.
    """

    program_names: tuple[str, ...]
    machines: tuple[MicroArch, ...]
    settings: tuple[FlagSetting, ...]
    extended: bool = False
    chunk_machines: int = DEFAULT_CHUNK_MACHINES
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.program_names or not self.machines or not self.settings:
            raise ValueError("grid needs at least one program/machine/setting")
        if self.chunk_machines < 1:
            raise ValueError("chunk_machines must be >= 1")

    # ------------------------------------------------------------ geometry
    @property
    def n_programs(self) -> int:
        return len(self.program_names)

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def n_chunks(self) -> int:
        return -(-self.n_machines // self.chunk_machines)

    @property
    def n_shards(self) -> int:
        return self.n_programs * self.n_chunks

    def chunk_range(self, chunk: int) -> tuple[int, int]:
        """Machine index range ``[start, stop)`` of one chunk."""
        start = chunk * self.chunk_machines
        return start, min(start + self.chunk_machines, self.n_machines)

    def chunk_of(self, key: ShardKey) -> list[MicroArch]:
        start, stop = self.chunk_range(key.chunk)
        return list(self.machines[start:stop])

    def shard_keys(self) -> Iterator[ShardKey]:
        """All shard coordinates, program-major.

        Program-major order keeps one program's chunks adjacent, so a
        serial runner's memoising compiler reuses each
        (program, setting) binary across every chunk.
        """
        for program in range(self.n_programs):
            for chunk in range(self.n_chunks):
                yield ShardKey(program, chunk)

    # --------------------------------------------------------------- identity
    def fingerprint(self) -> str:
        """Digest of the *logical* grid (chunking excluded).

        Two stores over the same programs/machines/settings are the same
        experiment regardless of how the machine axis is chunked, so the
        chunk size lives only in the manifest.
        """
        return self._fingerprint

    @functools.cached_property
    def _fingerprint(self) -> str:
        # Computed once per grid: every field it digests is immutable, and
        # shard reads and scans check it once per shard.
        digest = hashlib.sha256()
        digest.update(repr(self.program_names).encode())
        for machine in self.machines:
            digest.update(repr(machine).encode())
        for setting in self.settings:
            digest.update(repr(setting.as_indices()).encode())
        digest.update(repr(self.extended).encode())
        return digest.hexdigest()[:16]

    def shard_shapes(self, key: ShardKey) -> dict[str, tuple[int, ...]]:
        from repro.core.code_features import CODE_FEATURE_NAMES

        start, stop = self.chunk_range(key.chunk)
        chunk = stop - start
        return {
            "runtimes": (self.n_settings, chunk),
            "o3_runtimes": (chunk,),
            "counters": (chunk, len(COUNTER_NAMES)),
            "code_features": (len(CODE_FEATURE_NAMES),),
        }


def shard_fingerprint(arrays: Sequence[np.ndarray]) -> str:
    """Content digest of one shard's arrays (order-sensitive, bit-exact)."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()[:16]


class ExperimentStore(CheckpointStore):
    """Sharded on-disk (or in-memory) results for one experiment grid.

    Completed shards are never rewritten; an interrupted run resumes by
    skipping every key in :meth:`completed_keys` and computing only
    :meth:`pending_keys`.  Concurrent writers are safe: shards land via
    atomic rename and any two writers of the same key produce identical
    bytes, so the race is benign.
    """

    NAME = "experiment store"
    kind = "shard"
    UNIT_DIR = "shards"
    SUFFIXES = (".npz", ".json")
    IDENTITY = "grid"
    PIN = "grid_fingerprint"
    FORMAT = STORE_FORMAT
    MANIFEST_SITE = "store.manifest"
    Error = StoreError

    def __init__(self, grid: GridSpec, root: str | Path | None = None):
        self.grid = grid
        manifest = self._open(grid.fingerprint(), root)
        if manifest is not None:
            # Adopt the manifest's chunking: shard boundaries were fixed
            # when the store was created.
            self.grid = dataclasses.replace(
                grid, chunk_machines=int(manifest["chunk_machines"])
            )

    # ------------------------------------------------------------- manifest
    @classmethod
    def open(cls, root: str | Path) -> "ExperimentStore":
        """Open an existing store from its manifest alone."""
        return cls(cls._pinned(Path(root))[1], root)

    @classmethod
    def _pinned(cls, root: Path) -> tuple[str, GridSpec]:
        """The grid the manifest pins, checked against its own fingerprint."""
        identity, manifest = super()._pinned(root)
        try:
            grid = GridSpec(
                program_names=tuple(manifest["program_names"]),
                machines=tuple(
                    MicroArch(**fields) for fields in manifest["machines"]
                ),
                settings=tuple(
                    FlagSetting.from_indices(indices)
                    for indices in manifest["settings"]
                ),
                extended=bool(manifest["extended"]),
                chunk_machines=int(manifest["chunk_machines"]),
                metadata=dict(manifest["metadata"]),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise StoreError(f"store manifest at {root} is malformed ({error!r})") from error
        if grid.fingerprint() != identity:
            raise StoreError(f"store manifest at {root} does not match its own grid")
        return identity, grid

    def _manifest_fields(self) -> dict:
        return {
            "program_names": list(self.grid.program_names),
            "machines": [
                dataclasses.asdict(machine) for machine in self.grid.machines
            ],
            "settings": [
                list(setting.as_indices()) for setting in self.grid.settings
            ],
            "extended": self.grid.extended,
            "chunk_machines": self.grid.chunk_machines,
            "metadata": self.grid.metadata,
        }

    # --------------------------------------------------------------- shards
    def unit_keys(self, selection=None) -> Iterator[ShardKey]:
        return self.grid.shard_keys()

    def _shard_paths(self, key: ShardKey) -> tuple[Path, Path]:
        base = self.root / self.UNIT_DIR / key.stem()
        return base.with_suffix(".npz"), base.with_suffix(".json")

    def _probe(self, key: ShardKey) -> str:
        """A shard is complete when its sidecar parses, fits ``key``'s
        chunk and records a digest, and its array file is non-empty."""
        npz_path, sidecar_path = self._shard_paths(key)
        # A zero-byte array file is the torn tail an out-of-space or
        # killed writer leaves behind.
        if npz_path.stat().st_size == 0:
            raise StoreError(f"shard {key.stem()} is torn", "torn-tail", npz_path)
        sidecar = read_json_object(sidecar_path, StoreError)
        _check_sidecar(sidecar, self.grid, key, npz_path, sidecar_path)
        digest = sidecar.get("fingerprint")
        if not isinstance(digest, str):
            raise StoreError(f"shard {key.stem()} records no digest", path=sidecar_path)
        return digest

    _digest = staticmethod(shard_fingerprint)

    def write_shard(self, key: ShardKey, arrays: ShardArrays) -> None:
        """Checkpoint one computed shard (atomic; never rewrites)."""
        # Frozen copies, not views: an in-memory store holding a caller's
        # arrays, or handing out writable ones, could be mutated from
        # outside, silently changing its digests.
        arrays = tuple(_frozen_copy(array) for array in arrays)
        by_name = dict(zip(_SHARD_ARRAY_NAMES, arrays))
        for name, shape in self.grid.shard_shapes(key).items():
            if by_name[name].shape != shape:
                raise ValueError(
                    f"{key.stem()}: {name} shape {by_name[name].shape} != {shape}"
                )
        self._write(key, arrays)

    def _save(self, key: ShardKey, arrays: ShardArrays, digest: str) -> None:
        """The array file, then the sidecar that completes the unit."""
        npz_path, sidecar_path = self._shard_paths(key)
        buffer = io.BytesIO()
        np.savez(buffer, **dict(zip(_SHARD_ARRAY_NAMES, arrays)))
        atomic_write_bytes(
            npz_path,
            buffer.getvalue(),
            site="store.shard.npz",
            fsync=True,
            retries=DEFAULT_RETRY,
        )
        start, stop = self.grid.chunk_range(key.chunk)
        sidecar = {
            "format": STORE_FORMAT,
            "program": key.program,
            "chunk": key.chunk,
            "machine_start": start,
            "machine_stop": stop,
            "grid_fingerprint": self.identity,
            "fingerprint": digest,
        }
        atomic_write_text(
            sidecar_path,
            json.dumps(sidecar),
            site="store.shard.sidecar",
            fsync=True,
            retries=DEFAULT_RETRY,
        )

    def read_shard(self, key: ShardKey, verify: bool = True) -> ShardArrays:
        """Load one shard, verifying its content digest by default."""
        return self._read(key, verify)

    def _load(self, key: ShardKey, verify: bool) -> ShardArrays | None:
        if not self.has(key):
            return None
        return _load_shard(*self._shard_paths(key), self.grid, key, verify=verify)

    # ------------------------------------------------------------- assembly
    def assemble(self) -> TrainingSet:
        """Concatenate every shard into the full :class:`TrainingSet`.

        Shards are placed by their manifest coordinates, so assembly
        order — and therefore the result — is independent of the order
        the shards were computed in.
        """
        pending = self.pending_keys()
        if pending:
            raise StoreError(
                f"store incomplete: {len(pending)}/{self.grid.n_shards} "
                f"shards missing (first: {pending[0].stem()})"
            )
        grid = self.grid
        from repro.core.code_features import CODE_FEATURE_NAMES

        P, S, M = grid.n_programs, grid.n_settings, grid.n_machines
        runtimes = np.empty((P, S, M), dtype=float)
        o3_runtimes = np.empty((P, M), dtype=float)
        counters = np.empty((P, M, len(COUNTER_NAMES)), dtype=float)
        code_features = np.empty((P, len(CODE_FEATURE_NAMES)), dtype=float)
        for key in grid.shard_keys():
            start, stop = grid.chunk_range(key.chunk)
            shard_runs, shard_o3, shard_counters, shard_code = self.read_shard(key)
            p = key.program
            runtimes[p, :, start:stop] = shard_runs
            o3_runtimes[p, start:stop] = shard_o3
            counters[p, start:stop, :] = shard_counters
            if key.chunk == 0:
                code_features[p, :] = shard_code
        return TrainingSet(
            program_names=list(grid.program_names),
            machines=list(grid.machines),
            settings=list(grid.settings),
            runtimes=runtimes,
            o3_runtimes=o3_runtimes,
            counters=counters,
            extended=grid.extended,
            metadata=dict(grid.metadata),
            code_features=code_features,
        )

    def adopt(self, training: TrainingSet) -> int:
        """Import an already-assembled training set as shards.

        Slices a complete :class:`TrainingSet` over this grid into the
        store's pending shards — the inverse of :meth:`assemble`, and
        bit-exact with shards computed directly (the digests match).
        Lets a store absorb a dataset produced elsewhere (another
        session's memoised build) instead of recomputing it.  Returns the
        number of shards written.
        """
        grid = self.grid
        if (
            training.program_names != list(grid.program_names)
            or training.machines != list(grid.machines)
            or training.settings != list(grid.settings)
            or training.extended != grid.extended
        ):
            raise StoreError("training set does not match this store's grid")
        if training.code_features is None:
            raise StoreError("cannot adopt a training set without code features")
        written = 0
        for key in self.pending_keys():
            start, stop = grid.chunk_range(key.chunk)
            p = key.program
            self.write_shard(
                key,
                (
                    training.runtimes[p, :, start:stop],
                    training.o3_runtimes[p, start:stop],
                    training.counters[p, start:stop, :],
                    training.code_features[p, :],
                ),
            )
            written += 1
        return written

    # ---------------------------------------------------------------- scrub
    @classmethod
    def _scrub_unit(
        cls, scrub: Scrub, stem: str, paths: dict[str, Path], identity, grid
    ) -> None:
        """Judge one shard unit whole: arrays and sidecar share a fate."""
        npz_path, sidecar_path = paths.get(".npz"), paths.get(".json")
        if npz_path is None:
            scrub.note(
                sidecar_path, "sidecar", "orphaned", "sidecar without its arrays", "quarantine"
            )
        elif sidecar_path is None:
            scrub.note(
                npz_path, "shard", "orphaned", "array file without its sidecar", "quarantine"
            )
        else:
            try:
                key = None if grid is None else _shard_key(stem, grid)
                _load_shard(npz_path, sidecar_path, grid, key)
            except StoreError as error:
                on_sidecar = error.path == sidecar_path
                scrub.damage(
                    npz_path, "sidecar" if on_sidecar else "shard", error, "quarantine",
                    also=(npz_path if on_sidecar else sidecar_path,),
                )
            else:
                scrub.note(npz_path, "shard")

    # --------------------------------------------------------------- status
    def status(self) -> StoreStatus:
        grid = self.grid
        unit_files = (self.root / self.UNIT_DIR).glob("*") if self.root is not None else ()
        bytes_on_disk = sum(
            path.stat().st_size for path in unit_files if path.suffix != ".tmp"
        )
        return self._status(
            {
                name: [ShardKey(p, chunk) for chunk in range(grid.n_chunks)]
                for p, name in enumerate(grid.program_names)
            },
            title="experiment store",
            finished="dataset complete — ready to assemble",
            grid=(
                f"{grid.n_programs} programs x {grid.n_machines} machines "
                f"x {grid.n_settings} settings "
                f"(chunk {grid.chunk_machines}, fingerprint {self.identity})"
            ),
            bytes_on_disk=bytes_on_disk,
        )


def _frozen_copy(array) -> np.ndarray:
    array = np.array(array, dtype=float, order="C", copy=True)
    array.setflags(write=False)
    return array


def _shard_key(stem: str, grid: GridSpec) -> ShardKey:
    """The grid coordinates a shard file name spells, or ``StoreError``
    (``orphaned``) if it names no shard of ``grid``."""
    match = re.fullmatch(r"p(\d{4,})-c(\d{4,})", stem)
    key = None if match is None else ShardKey(int(match[1]), int(match[2]))
    if key is None or key.program >= grid.n_programs or key.chunk >= grid.n_chunks:
        raise StoreError(f"{stem} names no shard of this grid", "orphaned")
    return key


def _check_sidecar(
    sidecar: dict,
    grid: GridSpec,
    key: ShardKey,
    npz_path: Path,
    sidecar_path: Path,
) -> None:
    """Raise :class:`StoreError` unless ``sidecar`` records a unit of
    ``grid`` covering exactly ``key``'s chunk.  The chunking is outside
    the grid fingerprint, so an edited ``chunk_machines`` leaves old
    shards that fit no chunk: :meth:`ExperimentStore.has` counts
    them as pending, reads and scrub as corrupt."""
    if sidecar.get("grid_fingerprint") != grid.fingerprint():
        raise StoreError(
            f"shard {npz_path.stem} is from a different grid", "orphaned", npz_path
        )
    extent = (sidecar.get("machine_start"), sidecar.get("machine_stop"))
    if extent != grid.chunk_range(key.chunk):
        raise StoreError(
            f"shard {npz_path.stem} is corrupt: it covers machines {extent}, "
            f"not chunk {key.chunk}'s {grid.chunk_range(key.chunk)}",
            "corrupt",
            sidecar_path,
        )


def _load_shard(
    npz_path: Path,
    sidecar_path: Path,
    grid: GridSpec | None = None,
    key: ShardKey | None = None,
    verify: bool = True,
) -> ShardArrays:
    """Load one shard unit: the check ``read_shard`` and ``scrub`` share.

    With ``verify`` the sidecar is parsed and the arrays' digest checked
    against it.  A ``grid`` also rejects a unit from another grid, and a
    unit whose extent — the sidecar's ``machine_start``/``machine_stop``
    and the arrays' shapes — is not ``key``'s chunk of that grid (the
    chunking is outside the grid fingerprint, so an edited
    ``chunk_machines`` leaves old shards that fit no chunk).  Damage
    raises :class:`StoreError` carrying its status and the file to blame.
    """
    sidecar = read_json_object(sidecar_path, StoreError) if verify else {}
    if grid is not None and verify:
        _check_sidecar(sidecar, grid, key, npz_path, sidecar_path)
    arrays = load_npz(npz_path, _SHARD_ARRAY_NAMES, StoreError)
    if grid is not None:
        for (name, shape), array in zip(grid.shard_shapes(key).items(), arrays):
            if array.shape != shape:
                raise StoreError(
                    f"shard {npz_path.stem} is corrupt: {name} shape "
                    f"{array.shape} != {shape}",
                    "corrupt",
                    npz_path,
                )
    if verify:
        digest = shard_fingerprint(arrays)
        if digest != sidecar.get("fingerprint"):
            raise StoreError(
                f"shard {npz_path.stem} is corrupt: digest {digest} != "
                f"recorded {sidecar.get('fingerprint')}",
                "digest-mismatch",
                npz_path,
            )
    return arrays
