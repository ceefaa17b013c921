"""Shared durable-IO helpers for every store in the reproduction.

One module owns the write discipline the stores rely on — writer-unique
temp siblings, atomic rename, fsynced appends, ``O_EXCL`` claims — so
the :class:`~repro.store.store.ExperimentStore`,
:class:`~repro.evalrun.foldstore.FoldStore`,
:class:`~repro.api.registry.ModelRegistry`, the service job journal, and
the cluster lease table all share one implementation instead of five
copies.  Routing every durable write through here buys two things:

* **Fault injection.**  Each helper takes an optional failpoint
  ``site`` name (see :mod:`repro.faults`); an armed site can tear the
  write mid-payload, raise ``OSError(ENOSPC)``, or kill the process at
  exactly that seam.  Unarmed, the check is a single module-global
  boolean — the failpoints stay compiled in at ~zero cost.
* **Transient tolerance.**  :func:`with_retries` wraps flaky OS calls
  (NFS hiccups, spurious ENOSPC) in a bounded, deterministically
  jittered backoff.  Semantically meaningful errors —
  ``FileExistsError`` from an ``O_EXCL`` claim race,
  ``FileNotFoundError`` from a reclaimed lease — are never retried, and
  :class:`~repro.faults.FaultInjected` (a simulated crash, not an
  ``OSError``) always propagates.

The read side shares one vocabulary too: every store's reader raises an
:class:`ArtifactError` whose ``status`` classifies the damage, and each
store's ``scrub`` records those errors as :class:`Finding` entries
through a :class:`Scrub`, which applies the repair (quarantine, delete,
or a store-specific fix) when asked.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from repro.faults import core as faults
from repro.faults.core import FaultInjected, Injection

T = TypeVar("T")

#: OSError subclasses that carry meaning (a lost race, a reclaimed
#: lease, a path that is simply not there) — retrying them would turn a
#: correct negative answer into a hang.
NON_TRANSIENT_OSERRORS = (
    FileExistsError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def is_transient(error: OSError) -> bool:
    """Whether an OSError is worth retrying."""
    return not isinstance(error, NON_TRANSIENT_OSERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic, per-call-site jittered backoff.

    The jitter is seeded from the ``seed_key`` (usually the target
    path), so two workers hammering different shards back off on
    different schedules while a given call site stays reproducible.
    """

    attempts: int = 3
    base_delay: float = 0.02
    factor: float = 4.0
    max_delay: float = 1.0

    def delays(self, seed_key: str = "") -> Iterator[float]:
        jitter = (zlib.crc32(seed_key.encode("utf-8")) % 1000) / 1000.0
        delay = self.base_delay
        for _ in range(max(0, self.attempts - 1)):
            yield min(self.max_delay, delay * (1.0 + 0.5 * jitter))
            delay *= self.factor


#: Default policy for checkpoint writes and lease traffic: three
#: attempts, ~20ms/80ms pauses — enough to ride out a transient NFS or
#: allocator hiccup without stalling a drain.
DEFAULT_RETRY = RetryPolicy()


def with_retries(
    operation: Callable[[], T],
    *,
    policy: RetryPolicy = DEFAULT_RETRY,
    seed_key: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``operation``, retrying transient :class:`OSError` failures.

    Non-transient OSErrors (:data:`NON_TRANSIENT_OSERRORS`) and every
    non-OSError exception — including a simulated-crash
    :class:`FaultInjected` — propagate immediately.
    """
    delays = policy.delays(seed_key)
    while True:
        try:
            return operation()
        except OSError as error:
            if not is_transient(error):
                raise
            pause = next(delays, None)
            if pause is None:
                raise
            sleep(pause)


# --------------------------------------------------------------- primitives
def tmp_sibling(path: Path) -> Path:
    """A writer-unique temp path next to ``path``.

    Uniqueness (pid + random) keeps concurrent writers of the same
    artifact from truncating each other's in-flight temp file; whoever
    renames last wins with identical bytes.
    """
    token = os.urandom(4).hex()
    return path.parent / f".{path.name}.{os.getpid()}.{token}.tmp"


def _fsync(path: Path, directory: bool = False) -> None:
    """fsync a file, or a directory's entries where the platform allows."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        if not directory:
            raise
        return  # platform without directory fds; file data is already down
    try:
        os.fsync(fd)
    except OSError:
        if not directory:
            raise
    finally:
        os.close(fd)


def _inject_atomic(injection: Injection, path: Path, tmp: Path, data: bytes) -> None:
    """Leave the wreckage the injected failure implies, then fail.

    ``torn``   — a crash after a partial write that still got renamed
                 into place (or a torn page after a power cut): the
                 *final* path holds a truncated payload.
    ``enospc`` — the write ran out of space mid-payload: an orphaned,
                 truncated temp file is left behind and ``OSError``
                 propagates (retryable).
    ``crash``  — half-written temp file, then the process dies.
    ``error``  — a clean simulated kill before any bytes land.
    """
    truncated = data[: max(0, int(len(data) * injection.keep_fraction))]
    if injection.action == "torn":
        tmp.write_bytes(truncated)
        os.replace(tmp, path)
    elif injection.action in ("enospc", "crash"):
        tmp.write_bytes(truncated)
    injection.raise_now()


def atomic_write_bytes(
    path: Path,
    data: bytes,
    *,
    site: str | None = None,
    fsync: bool = False,
    retries: RetryPolicy | None = None,
) -> None:
    """Write ``data`` to ``path`` via temp sibling + atomic rename.

    With ``fsync``: fsync the temp file, rename it, then fsync the
    directory, so both the bytes and the rename survive a power cut."""
    path = Path(path)

    def write_once() -> None:
        tmp = tmp_sibling(path)
        injection = faults.fire(site)
        if injection is not None:
            _inject_atomic(injection, path, tmp, data)
        tmp.write_bytes(data)
        if fsync:
            _fsync(tmp)
        os.replace(tmp, path)
        if fsync:
            _fsync(path.parent, directory=True)

    if retries is None:
        write_once()
    else:
        with_retries(write_once, policy=retries, seed_key=str(path))


def atomic_write_text(
    path: Path,
    text: str,
    *,
    site: str | None = None,
    fsync: bool = False,
    retries: RetryPolicy | None = None,
) -> None:
    atomic_write_bytes(
        Path(path), text.encode("utf-8"), site=site, fsync=fsync, retries=retries
    )


def fsync_append(path: Path, data: bytes, *, site: str | None = None) -> None:
    """Append ``data`` to ``path`` and fsync before returning.

    The journal-append discipline: a record is only *recorded* once it
    is on disk.  A ``torn`` injection fsyncs a truncated prefix of the
    record (the classic torn tail a digest-chained replay must detect);
    ``enospc`` appends nothing.
    """
    injection = faults.fire(site)
    with open(path, "ab") as handle:
        if injection is not None:
            if injection.action in ("torn", "crash"):
                handle.write(data[: max(0, int(len(data) * injection.keep_fraction))])
                handle.flush()
                os.fsync(handle.fileno())
            injection.raise_now()
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def exclusive_create(path: Path, *, site: str | None = None) -> int:
    """``O_CREAT | O_EXCL`` claim; returns the open fd.

    ``FileExistsError`` (the claim race) propagates untouched — it is an
    answer, not a failure.  A ``torn`` injection leaves a zero-byte
    claim file behind (the crash-after-create case a status scan must
    survive) before raising.
    """
    injection = faults.fire(site)
    if injection is not None:
        if injection.action == "torn":
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        injection.raise_now()
    return os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)


def write_text_with_faults(path: Path, text: str, *, site: str | None = None) -> None:
    """A plain (non-atomic) guarded write, for writers that rename later.

    A ``torn`` injection persists a truncated payload at ``path`` itself
    before raising.
    """
    data = text.encode("utf-8")
    injection = faults.fire(site)
    if injection is not None:
        if injection.action in ("torn", "enospc", "crash"):
            Path(path).write_bytes(data[: max(0, int(len(data) * injection.keep_fraction))])
        injection.raise_now()
    Path(path).write_bytes(data)


def guarded_os_call(
    operation: Callable[[], T],
    *,
    site: str | None = None,
    seed_key: str = "",
    retries: RetryPolicy | None = DEFAULT_RETRY,
) -> T:
    """Run a small OS call (utime, unlink, …) under failpoints + retry.

    Injections fire on every attempt, so a ``once``-armed ENOSPC is
    absorbed by the retry loop — exactly the transient-tolerance path —
    while ``always``-armed faults exhaust the budget and surface.
    """

    def attempt() -> T:
        injection = faults.fire(site)
        if injection is not None:
            injection.raise_now()
        return operation()

    if retries is None:
        return attempt()
    return with_retries(attempt, policy=retries, seed_key=seed_key)


# ------------------------------------------------------------- verification
#: The directory inside each store that scrub repairs move damage into.
QUARANTINE_DIR = "quarantine"

#: What a reader's damage message tells its caller to do (a scrub's
#: finding, which is that step, drops it).
_HINT = "; quarantine with fsck"


class ArtifactError(RuntimeError):
    """A durable artifact failed its reader's checks.

    ``status`` classifies the damage in fsck's vocabulary (``torn-tail``,
    ``digest-mismatch``, ``orphaned`` or ``corrupt``) and ``path`` names
    the damaged file, so a store's scrub records what its reader raised.
    """

    def __init__(self, message: str, status: str = "corrupt", path: Path | None = None):
        super().__init__(message)
        self.status = status
        self.path = path


def read_json_object(path: Path, error: type[ArtifactError] = ArtifactError) -> dict:
    """Parse a file holding one JSON object, raising ``error`` on damage.

    A zero-byte file is a ``torn-tail`` (its writer died before any byte
    landed); unreadable, unparseable or non-object content is ``corrupt``.
    A missing file raises :class:`FileNotFoundError`: absence is for the
    caller to judge, not damage.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path.name} is unreadable ({exc}){_HINT}", path=path) from exc
    if not data:
        raise error(f"{path.name} is torn: zero bytes{_HINT}", "torn-tail", path)
    try:
        payload = json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{path.name} is corrupt ({exc}){_HINT}", path=path) from exc
    if not isinstance(payload, dict):
        raise error(f"{path.name} is corrupt: not a JSON object{_HINT}", path=path)
    return payload


def load_npz(
    path: Path, names: Sequence[str], error: type[ArtifactError] = ArtifactError
) -> tuple[np.ndarray, ...]:
    """The named arrays of one ``.npz`` file, or ``error`` (``torn-tail``).

    Any failure counts as a file that does not load: damaged bytes can
    trip zipfile, zlib or numpy's header parser anywhere.
    """
    try:
        with np.load(path) as handle:
            return tuple(handle[name] for name in names)
    except Exception as exc:  # noqa: BLE001 - see above
        raise error(
            f"{Path(path).name} does not load ({exc!r}){_HINT}",
            "torn-tail",
            Path(path),
        ) from exc


@dataclass(frozen=True)
class Finding:
    """One artifact's classification (and what repair did, if asked)."""

    path: str  # relative to the scanned root
    store: str  # which store family the artifact belongs to
    kind: str  # artifact kind: shard, sidecar, fold, model, pointer, ...
    status: str  # ok, or the damage class an ArtifactError carries
    detail: str = ""
    repair: str = ""  # planned/applied remedy: quarantine, truncate, delete, rewrite
    repaired: bool = False

    def describe(self) -> str:
        parts = [f"{self.status:<15s} {self.path}"]
        if self.detail:
            parts.append(f"({self.detail})")
        if self.repaired:
            parts.append(f"[repaired: {self.repair}]")
        elif self.repair:
            parts.append(f"[repair: {self.repair}]")
        return " ".join(parts)


def _quarantine(path: Path, store_root: Path) -> Path | None:
    """Move one damaged artifact into the store's quarantine directory."""
    if not path.exists():
        return None
    target_dir = store_root / QUARANTINE_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / path.name
    counter = 0
    while target.exists():
        counter += 1
        target = target_dir / f"{path.name}.{counter}"
    path.rename(target)
    return target


class Scrub:
    """One store's scrub pass: its findings, each repair applied as noted.

    Paths are recorded relative to ``root`` and quarantined artifacts
    move into ``root``'s quarantine directory.  Nothing on disk changes
    unless ``repair`` is set.
    """

    def __init__(self, root: Path, store: str, repair: bool):
        self.root = Path(root)
        self.store = store
        self.repair = repair
        self.findings: list[Finding] = []

    def note(
        self,
        path: Path,
        kind: str,
        status: str = "ok",
        detail: str = "",
        repair: str = "",
        also: tuple[Path, ...] = (),
        fix: Callable[[], bool] | None = None,
    ) -> None:
        """Record one artifact's finding and, when repairing, its remedy.

        ``quarantine`` and ``delete`` act on ``path`` and its companions
        ``also`` (a shard's sidecar shares its fate); any other remedy is
        ``fix``, which applies it and returns whether it worked.
        """
        repaired = False
        if self.repair and status != "ok" and repair:
            try:
                if fix is not None:
                    repaired = bool(fix())
                else:
                    for target in (path, *also):
                        if repair == "quarantine":
                            _quarantine(target, self.root)
                        else:
                            target.unlink(missing_ok=True)
                    repaired = True
            except (OSError, ArtifactError):
                repaired = False
        try:
            relative = str(path.relative_to(self.root))
        except ValueError:
            relative = str(path)
        self.findings.append(
            Finding(relative, self.store, kind, status, detail, repair, repaired)
        )

    def damage(
        self, path: Path, kind: str, error: ArtifactError, repair: str, also: tuple[Path, ...] = ()
    ) -> None:
        """Record what a reader raised, at the path it blamed (else ``path``)."""
        detail = str(error).removesuffix(_HINT)
        self.note(error.path or path, kind, error.status, detail, repair, also)


__all__ = [
    "DEFAULT_RETRY",
    "FaultInjected",
    "NON_TRANSIENT_OSERRORS",
    "RetryPolicy",
    "atomic_write_bytes",
    "atomic_write_text",
    "exclusive_create",
    "fsync_append",
    "guarded_os_call",
    "is_transient",
    "tmp_sibling",
    "with_retries",
    "write_text_with_faults",
]
