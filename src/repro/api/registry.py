"""The versioned model registry: trained predictors as deployable artifacts.

A :class:`ModelRegistry` owns a directory of immutable, digest-verified
model files plus one mutable promotion pointer::

    registry/
        models/
            v0001.json       # {"format", "version", "digest", "fingerprint",
            v0002.json       #  "metadata", "model": <predictor state>}
            ...
        promoted.json        # {"format", "current": 2, "history": [1],
                             #  "channels": {"default": {"current": 2,
                             #               "history": [1]}, "tiny": {...}}}

Model files follow the store-shard rules: written atomically, content
digested, and never rewritten — :meth:`ModelRegistry.register` allocates
the next free version with an exclusive link, so two sessions registering
concurrently can never collide on a version or corrupt each other.  The
promotion pointer is a single atomically-replaced JSON document carrying
its own history, which is what :meth:`ModelRegistry.rollback` pops.

Promotion is per-**channel**: every channel (``"default"`` unless named)
has its own current version and rollback history, so one registry can
serve e.g. a model per scale or per machine space, each promoted and
rolled back independently — the prediction service routes requests to a
channel at request time.  The pointer document mirrors the default
channel under the legacy top-level ``current``/``history`` keys, so
pointers written before channels existed read back as the default
channel and old readers keep working.

This replaces the ad-hoc ``save_model(path)`` / ``load_model(path)``
lifecycle for deployments: the prediction service always serves the
registry's *promoted* model, and promoting/rolling back is a metadata
flip, never a model rewrite.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.predictor import OptimisationPredictor
from repro.ioutil import (
    ArtifactError,
    Finding,
    Scrub,
    atomic_write_text,
    read_json_object,
    tmp_sibling,
    write_text_with_faults,
)

#: Registry file schema version; bump on incompatible layout changes.
REGISTRY_FORMAT = 1

#: The promotion channel used when none is named.
DEFAULT_CHANNEL = "default"

#: Channel names stay filesystem/JSON-friendly and unambiguous.
_CHANNEL_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_MODEL_FILE = re.compile(r"^v(\d{4,})\.json$")
#: Ranking sidecars written at promote time by older registries; scrub
#: deletes them and nothing reads them.
_ARRAYS_FILE = re.compile(r"^v(\d{4,})\.arrays\.npz$")


def validate_channel(channel: str) -> str:
    """Check a promotion channel name (returns it for chaining)."""
    if not isinstance(channel, str) or not _CHANNEL_NAME.match(channel):
        raise RegistryError(
            f"bad channel name {channel!r}: use 1-64 letters, digits, "
            "'_', '.', or '-' (starting with a letter or digit)"
        )
    return channel


class RegistryError(ArtifactError):
    """A registry entry is missing, corrupt, or from another format."""


def registry_root(cache_directory: str | Path | None = None) -> Path:
    """Where the default registry lives under the dataset cache root."""
    from repro.experiments.dataset import cache_dir

    return cache_dir(cache_directory) / "registry"


def _entry_digest(payload: dict) -> str:
    """Content digest over everything but the digest itself.

    Canonical JSON keeps the digest bit-exact: floats serialise as their
    shortest round-tripping repr, so two registrations of the same fitted
    model — and only those — share a digest.
    """
    canonical = json.dumps(
        {
            "fingerprint": payload.get("fingerprint"),
            "metadata": payload.get("metadata", {}),
            "model": payload["model"],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _channel_state(state: dict) -> dict:
    """One channel's pointer state with its versions as ints."""
    current = state.get("current")
    return {
        "current": None if current is None else int(current),
        "history": [int(item) for item in state.get("history", [])],
    }


def _model_version(version: int, payload: dict, channels: dict[str, int]) -> "ModelVersion":
    """An entry's provenance, promoted on each channel whose current it is."""
    promoting = tuple(sorted(name for name, current in channels.items() if current == version))
    return ModelVersion(
        version=version,
        digest=payload["digest"],
        fingerprint=payload.get("fingerprint"),
        metadata=dict(payload.get("metadata", {})),
        promoted=bool(promoting),
        channels=promoting,
    )


@dataclass(frozen=True)
class ModelVersion:
    """One registered model's provenance (everything but its weights)."""

    version: int
    digest: str
    fingerprint: str | None
    metadata: dict = field(default_factory=dict)
    promoted: bool = False
    #: Channels currently promoting this version (empty when none do).
    channels: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.channels and set(self.channels) != {DEFAULT_CHANNEL}:
            marker = f" *promoted:{','.join(self.channels)}*"
        elif self.promoted:
            marker = " *promoted*"
        else:
            marker = ""
        fingerprint = self.fingerprint or "-"
        scale = self.metadata.get("scale", "-")
        return (
            f"v{self.version:04d}  digest {self.digest}  "
            f"training {fingerprint}  scale {scale}{marker}"
        )


class ModelRegistry:
    """Versioned, fingerprint-addressed trained models on disk.

    Registration is append-only and race-free (exclusive version
    allocation, atomic writes); promotion is an atomically-replaced
    pointer whose history makes :meth:`rollback` possible.  Reads verify
    the stored content digest, so a torn or tampered model file raises
    instead of silently serving wrong predictions.
    """

    MODEL_DIR = "models"
    PROMOTED_NAME = "promoted.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------------ paths
    def _model_dir(self) -> Path:
        return self.root / self.MODEL_DIR

    def _model_path(self, version: int) -> Path:
        return self._model_dir() / f"v{version:04d}.json"

    def _promoted_path(self) -> Path:
        return self.root / self.PROMOTED_NAME

    # ------------------------------------------------------------- inventory
    def versions(self) -> list[int]:
        """Registered version numbers, ascending (unreadable names skipped)."""
        directory = self._model_dir()
        if not directory.exists():
            return []
        found = []
        for path in directory.iterdir():
            match = _MODEL_FILE.match(path.name)
            if match is not None:
                found.append(int(match.group(1)))
        return sorted(found)

    def list(self) -> list[ModelVersion]:
        """Provenance of every registered model, ascending by version."""
        channels = self.channels()
        entries = []
        for version in self.versions():
            entries.append(_model_version(version, self._read_entry(version), channels))
        return entries

    def _read_entry(self, version: int) -> dict:
        path = self._model_path(version)
        try:
            payload = read_json_object(path, RegistryError)
        except FileNotFoundError:
            raise RegistryError(f"no model v{version:04d} in registry {self.root}") from None
        if payload.get("format") != REGISTRY_FORMAT:
            raise RegistryError(
                f"model v{version:04d} uses format {payload.get('format')!r}, "
                f"expected {REGISTRY_FORMAT}",
                path=path,
            )
        if "model" not in payload or _entry_digest(payload) != payload.get("digest"):
            raise RegistryError(
                f"model v{version:04d} is corrupt: content digest mismatch",
                "digest-mismatch",
                path,
            )
        return payload

    # ----------------------------------------------------------- registration
    def register(
        self,
        predictor: OptimisationPredictor,
        fingerprint: str | None = None,
        metadata: dict | None = None,
        promote: bool = False,
        channel: str = DEFAULT_CHANNEL,
    ) -> ModelVersion:
        """Store a fitted predictor as the next version; never overwrites.

        Version allocation is exclusive: the entry is staged to a temp
        file and linked into place, so two concurrent registrations get
        two distinct versions — whichever loses the race for a number
        simply takes the next one.
        """
        payload = {
            "format": REGISTRY_FORMAT,
            "fingerprint": fingerprint,
            "metadata": dict(metadata or {}),
            "model": predictor.get_state(),
        }
        payload["digest"] = _entry_digest(payload)
        self._model_dir().mkdir(parents=True, exist_ok=True)
        version = (self.versions() or [0])[-1] + 1
        while True:
            target = self._model_path(version)
            payload["version"] = version
            tmp = tmp_sibling(target)
            write_text_with_faults(
                tmp, json.dumps(payload, indent=1), site="registry.model"
            )
            try:
                os.link(tmp, target)
            except FileExistsError:
                version += 1  # lost the race: take the next number
                continue
            finally:
                tmp.unlink(missing_ok=True)
            break
        if promote:
            return self.promote(version, channel=channel)
        return _model_version(version, payload, {})

    # -------------------------------------------------------------- promotion
    @contextlib.contextmanager
    def _pointer_lock(self):
        """Serialise the pointer's read-modify-write across processes.

        Registration needs no lock (versions are allocated exclusively),
        but promote/rollback read the current pointer before rewriting
        it — without mutual exclusion two concurrent promotions would
        both read the same state and one version would vanish from the
        rollback history.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "promoted.lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _read_promoted(self) -> dict:
        """The pointer document, normalised to its per-channel form.

        Pointers written before channels existed carry only the legacy
        top-level ``current``/``history``; those read back as the default
        channel, so nothing is migrated on disk until the next promote.
        """
        try:
            payload = read_json_object(self._promoted_path(), RegistryError)
        except FileNotFoundError:
            payload = {"format": REGISTRY_FORMAT, "current": None, "history": []}
        if payload.get("format") != REGISTRY_FORMAT:
            raise RegistryError(
                f"promotion pointer uses format {payload.get('format')!r}, "
                f"expected {REGISTRY_FORMAT}"
            )
        try:
            channels = {
                name: _channel_state(state)
                for name, state in payload.get("channels", {}).items()
            }
            if DEFAULT_CHANNEL not in channels and (
                payload.get("current") is not None or payload.get("history")
            ):
                channels[DEFAULT_CHANNEL] = _channel_state(payload)
        except (AttributeError, TypeError, ValueError) as error:
            raise RegistryError(f"promotion pointer is malformed ({error!r})") from error
        payload["channels"] = channels
        return payload

    def _write_promoted_locked(self, channels: dict) -> None:
        """Atomically replace the pointer; caller holds the pointer lock.

        The default channel is mirrored into the legacy top-level keys so
        pre-channel readers of ``promoted.json`` keep working.
        """
        default = channels.get(DEFAULT_CHANNEL, {"current": None, "history": []})
        atomic_write_text(
            self._promoted_path(),
            json.dumps(
                {
                    "format": REGISTRY_FORMAT,
                    "current": default["current"],
                    "history": default["history"],
                    "channels": channels,
                }
            ),
            site="registry.pointer",
            fsync=True,
        )

    def promoted_version(self, channel: str = DEFAULT_CHANNEL) -> int | None:
        """The channel's promoted version (``None`` when nothing is)."""
        state = self._read_promoted()["channels"].get(channel)
        if state is None:
            return None
        return state["current"]

    def channels(self) -> dict[str, int]:
        """Every channel with a promotion, mapped to its current version."""
        return {
            name: state["current"]
            for name, state in self._read_promoted()["channels"].items()
            if state["current"] is not None
        }

    def promote(
        self, version: int, channel: str = DEFAULT_CHANNEL
    ) -> ModelVersion:
        """Point the channel's deployments at ``version`` (verified first)."""
        validate_channel(channel)
        entry = self._read_entry(version)  # digest-verified, must exist
        with self._pointer_lock():
            channels = self._read_promoted()["channels"]
            state = channels.setdefault(
                channel, {"current": None, "history": []}
            )
            previous = state["current"]
            if previous is not None and previous != version:
                state["history"].append(previous)
            state["current"] = version
            self._write_promoted_locked(channels)
        return _model_version(version, entry, {channel: version})

    def rollback(self, channel: str = DEFAULT_CHANNEL) -> ModelVersion:
        """Re-promote the channel's previously promoted version."""
        validate_channel(channel)
        with self._pointer_lock():
            channels = self._read_promoted()["channels"]
            state = channels.get(channel, {"current": None, "history": []})
            if not state["history"]:
                raise RegistryError(
                    f"nothing to roll back to on channel {channel!r}: "
                    "promotion history is empty"
                )
            version = state["history"].pop()
            entry = self._read_entry(version)
            state["current"] = version
            channels[channel] = state
            self._write_promoted_locked(channels)
        return _model_version(version, entry, {channel: version})

    # ----------------------------------------------------------------- loading
    def load(
        self,
        version: int | None = None,
        channel: str = DEFAULT_CHANNEL,
    ) -> tuple[OptimisationPredictor, ModelVersion]:
        """Rebuild a registered predictor (default: the channel's promoted one).

        Reads only the digest-verified entry (and the pointer when no
        version is named); :meth:`OptimisationPredictor.from_state` stacks
        the kernel tensors from the entry's pairs, once.
        """
        if version is None:
            version = self.promoted_version(channel)
            if version is None:
                raise RegistryError(
                    f"registry {self.root} has no promoted model on channel "
                    f"{channel!r}; register one with promote=True or call "
                    "promote()"
                )
        payload = self._read_entry(version)
        predictor = OptimisationPredictor.from_state(payload["model"])
        return predictor, _model_version(version, payload, self.channels())

    # ------------------------------------------------------------------- scrub
    @classmethod
    def scrub(cls, root: Path, repair: bool) -> list[Finding]:
        """Classify every registry artifact with the reader's own checks.
        Read-only unless ``repair``: quarantine damaged entries and an
        unreadable pointer (promotions reset), delete ``vNNNN.arrays.npz``
        ranking sidecars left by older registries (nothing reads them),
        and rewrite a pointer naming damaged or missing versions from its
        own history."""
        registry = cls(root)
        scrub = Scrub(root, "registry", repair)
        valid: set[int] = set()  # versions whose entry verifies
        model_dir = registry._model_dir()
        for path in sorted(model_dir.iterdir()) if model_dir.is_dir() else []:
            match = _MODEL_FILE.match(path.name)
            if path.name.endswith(".tmp"):
                scrub.note(path, "tmp", "orphaned", "temp file from a killed writer", "delete")
            elif _ARRAYS_FILE.match(path.name):
                scrub.note(
                    path, "arrays", "orphaned", "ranking sidecar of an older registry", "delete"
                )
            elif match is not None:
                version = int(match.group(1))
                try:
                    registry._read_entry(version)
                except RegistryError as error:
                    scrub.damage(path, "model", error, "quarantine")
                else:
                    valid.add(version)
                    scrub.note(path, "model")
        pointer = registry._promoted_path()
        if pointer.exists():
            try:
                channels = registry._read_promoted()["channels"]
            except RegistryError as error:
                scrub.damage(pointer, "pointer", error, "quarantine")
                return scrub.findings
            broken = sorted(
                name
                for name, state in channels.items()
                if not {state["current"], *state["history"]} <= {None, *valid}
            )
            if broken:
                scrub.note(
                    pointer, "pointer", "orphaned",
                    "channels point at missing or corrupt versions: " + ", ".join(broken),
                    "rewrite", fix=lambda: registry._drop_versions(valid),
                )
            else:
                scrub.note(pointer, "pointer")
        return scrub.findings

    def _drop_versions(self, valid: set[int]) -> bool:
        """Rewrite the pointer without versions outside ``valid``: each
        channel's history backs up a vanished current version, and a
        channel left with nothing to promote is dropped."""
        with self._pointer_lock():
            kept = {}
            for name, state in self._read_promoted()["channels"].items():
                history = [v for v in state["history"] if v in valid]
                current = state["current"]
                if current is not None and current not in valid:
                    current = history.pop() if history else None
                if current is not None or history:
                    kept[name] = {"current": current, "history": history}
            self._write_promoted_locked(kept)
        return True

    def render(self) -> str:
        """Human-readable inventory for the CLI ``models`` command."""
        entries = self.list()
        lines = [f"model registry {self.root}"]
        if not entries:
            lines.append("  (empty — register one with: repro-experiments train)")
            return "\n".join(lines)
        for entry in entries:
            lines.append(f"  {entry.describe()}")
        if not self.channels():
            lines.append("  no model promoted yet")
        return "\n".join(lines)
