"""The background protocol-job queue behind ``/jobs`` — restart-safe.

A :class:`JobManager` owns one daemon worker thread draining a FIFO of
protocol runs.  Each :class:`Job` accumulates an append-only event log —
``started``, one ``fold`` per checkpointed fold, then a terminal
``complete``/``failed`` — under a condition variable, so any number of
late-joining readers replay the full history and then block for live
events: exactly the contract ``GET /jobs/<id>/events`` streams as NDJSON.

With a ``root`` directory the manager is **persistent**: every job owns
an append-only, digest-chained NDJSON journal on disk (same rules as the
fold store's shards — atomic meta writes, content digests verified on
read, torn tails truncated rather than crashing), so a ``kill -9``'d
server restarts with every job's event history byte-identical and every
unfinished job re-enqueued.  A re-enqueued protocol run resumes from its
checkpointed fold store, so recovery re-simulates nothing::

    <root>/
        job-0001/
            meta.json        # {"format", "id", "params"}
            events.ndjson    # {"chain": <digest>, "event": {...}} per line

The chain digest of line *n* covers line *n-1*'s digest plus the event's
canonical JSON, so replay stops at the first torn or tampered line and
everything before it is known-good — an interrupted append costs at most
the event being written, never the history.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import re
import shutil
import threading
from pathlib import Path
from typing import Callable, Iterator

from repro.ioutil import (
    ArtifactError,
    Finding,
    Scrub,
    atomic_write_text,
    fsync_append,
    read_json_object,
)

#: Event types that end a job's stream.
TERMINAL_EVENTS = ("complete", "failed")

#: Journal schema version; bump on incompatible layout changes.
JOB_FORMAT = 1

_JOB_DIR = re.compile(r"^job-(\d{4,})$")


def jobs_root(cache_directory: str | Path | None = None) -> Path:
    """Where the default persistent job journals live under the cache root."""
    from repro.experiments.dataset import cache_dir

    return cache_dir(cache_directory) / "jobs"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _chain_seed(job_id: str) -> str:
    return hashlib.sha256(job_id.encode()).hexdigest()[:16]


def _chain_digest(previous: str, event: dict) -> str:
    """The rolling digest binding one event to everything before it."""
    return hashlib.sha256(
        (previous + _canonical(event)).encode()
    ).hexdigest()[:16]


class JobJournal:
    """One job's on-disk record: atomic meta plus the event journal."""

    META_NAME = "meta.json"
    EVENTS_NAME = "events.ndjson"

    def __init__(self, root: Path):
        self.root = Path(root)

    @classmethod
    def create(cls, root: Path, job_id: str, params: dict) -> "JobJournal":
        journal = cls(root)
        journal.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            journal.root / cls.META_NAME,
            json.dumps(
                {"format": JOB_FORMAT, "id": job_id, "params": dict(params)},
                indent=1,
            ),
            site="jobs.meta",
            fsync=True,
        )
        return journal

    def load_meta(self) -> dict | None:
        """The job's identity, or ``None`` when missing, torn, or foreign
        (a job id other than its directory's name)."""
        try:
            meta = read_json_object(self.root / self.META_NAME)
        except (OSError, ArtifactError):
            return None
        if meta.get("format") != JOB_FORMAT or meta.get("id") != self.root.name:
            return None
        return meta

    def load_events(self, job_id: str) -> tuple[list[dict], str]:
        """Replay the verified journal prefix and its final chain digest."""
        events, chain, _, _ = self.replay(job_id)
        return events, chain

    def replay(self, job_id: str) -> tuple[list[dict], str, int, int]:
        """:meth:`load_events` plus the journal's verified and total bytes.

        Replay stops at the first unparseable, newline-less (a kill mid
        append), or chain-breaking line: everything before it is verified
        append-order history, everything after is discarded as torn.
        """
        chain = _chain_seed(job_id)
        events: list[dict] = []
        verified = size = 0
        try:
            handle = open(self.root / self.EVENTS_NAME, "rb")
        except FileNotFoundError:
            return events, chain, verified, size
        with handle:
            size = os.fstat(handle.fileno()).st_size
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # torn tail: the append a kill interrupted
                try:
                    record = json.loads(line)
                except ValueError:  # JSONDecodeError and UnicodeDecodeError
                    break
                if not isinstance(record, dict) or not isinstance(
                    record.get("event"), dict
                ):
                    break
                expected = _chain_digest(chain, record["event"])
                if record.get("chain") != expected:
                    break  # tampered or out-of-order: distrust the rest
                events.append(record["event"])
                chain = expected
                verified += len(line)
        return events, chain, verified, size

    def truncate_events(self, length: int) -> bool:
        """Cut the journal back to its first ``length`` (verified) bytes."""
        path = self.root / self.EVENTS_NAME
        if length == 0:
            path.unlink()
        else:
            with open(path, "r+b") as handle:
                handle.truncate(length)
        return True

    def append(self, event: dict, chain: str) -> str:
        """Durably append one event line; returns the new chain digest."""
        new_chain = _chain_digest(chain, event)
        line = _canonical({"chain": new_chain, "event": event}) + "\n"
        fsync_append(self.root / self.EVENTS_NAME, line.encode(), site="jobs.append")
        return new_chain

    def destroy(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class Job:
    """One queued protocol run and its append-only event log.

    State and events live behind one condition variable and only change
    together through :meth:`transition`/:meth:`emit`, so a snapshot can
    never pair a stale state with a terminal event (a torn read the old
    bare ``self.state`` attribute allowed).
    """

    def __init__(
        self,
        job_id: str,
        params: dict,
        journal: JobJournal | None = None,
        events: list[dict] | None = None,
        chain: str | None = None,
    ):
        self.id = job_id
        self.params = dict(params)
        self._journal = journal
        self._events: list[dict] = [dict(event) for event in (events or [])]
        self._chain = chain if chain is not None else _chain_seed(job_id)
        self._condition = threading.Condition()
        last = self._events[-1] if self._events else None
        kind = last.get("event") if last else None
        if kind == "complete":
            self._state = "done"
        elif kind == "failed":
            self._state = "failed"
        else:
            self._state = "queued"

    @property
    def state(self) -> str:
        with self._condition:
            return self._state

    @property
    def done(self) -> bool:
        with self._condition:
            return self._state in ("done", "failed")

    @property
    def replayed(self) -> bool:
        """True when the job carries journal history from a prior process."""
        with self._condition:
            return bool(self._events) and self._state == "queued"

    def _append_locked(self, event: dict) -> None:
        event = dict(event)
        if self._journal is not None:
            self._chain = self._journal.append(event, self._chain)
        else:
            self._chain = _chain_digest(self._chain, event)
        self._events.append(event)

    def emit(self, event: dict) -> None:
        """Append one event and wake every waiting reader."""
        with self._condition:
            self._append_locked(event)
            self._condition.notify_all()

    def transition(self, state: str, event: dict | None = None) -> None:
        """Atomically flip the state and (optionally) append an event.

        The worker uses this for every lifecycle change, so readers see
        the state and the event land together — a snapshot taken between
        them cannot observe ``running`` next to a terminal event.
        """
        with self._condition:
            self._state = state
            if event is not None:
                self._append_locked(event)
            self._condition.notify_all()

    def snapshot(self) -> dict:
        """The job's current state for ``GET /jobs/<id>``."""
        with self._condition:
            return {
                "id": self.id,
                "state": self._state,
                "params": self.params,
                "events": len(self._events),
                "last_event": dict(self._events[-1]) if self._events else None,
            }

    def events(self, timeout: float | None = None) -> Iterator[dict]:
        """Replay every event so far, then block for new ones.

        The iterator ends after a terminal event; with ``timeout`` it
        also ends (mid-stream) if no new event arrives in time, so a
        disconnected-but-running job never wedges its reader forever.
        """
        index = 0
        while True:
            with self._condition:
                while index >= len(self._events):
                    if not self._condition.wait(timeout=timeout):
                        return
                event = self._events[index]
            index += 1
            yield event
            if event.get("event") in TERMINAL_EVENTS:
                return


class JobManager:
    """A FIFO of background jobs processed by one daemon worker thread.

    Jobs run strictly one at a time — concurrent protocol runs over the
    same session would contend for the same stores for no speedup (the
    pipeline itself parallelises over folds).

    With ``root`` the manager journals every job to disk and, at
    construction, recovers the previous process's jobs: finished jobs
    come back snapshot/replay-able, unfinished ones re-enter the queue
    (oldest first) and resume — their protocol runs pick up from the
    checkpointed fold store, so nothing is re-simulated.
    """

    #: Finished jobs kept for late snapshot/replay readers; older ones
    #: are pruned so a long-running server's memory stays bounded.
    KEEP_FINISHED = 32

    def __init__(self, runner: Callable[[Job], dict], root: str | Path | None = None):
        self._runner = runner
        self.root = Path(root) if root is not None else None
        self._jobs: dict[str, Job] = {}
        self._queue: "queue.Queue[Job]" = queue.Queue()
        self._lock = threading.Lock()
        self._counter = 0
        self._worker: threading.Thread | None = None
        #: Human-readable recovery problems (unreadable root, torn job
        #: metadata).  Surfaced by ``/healthz`` as a ``degraded`` status
        #: instead of crashing the service at construction.
        self.degraded_reasons: list[str] = []
        if self.root is not None:
            try:
                self._recover()
            except OSError as error:
                self.degraded_reasons.append(
                    f"job root {self.root} is unreadable: {error}"
                )

    # ------------------------------------------------------------- recovery
    def _recover(self) -> None:
        """Reload journalled jobs; unfinished ones re-enter the queue."""
        if not self.root.exists():
            return
        resumable: list[Job] = []
        for path in sorted(self.root.iterdir()):
            match = _JOB_DIR.match(path.name)
            if match is None or not path.is_dir():
                continue
            journal = JobJournal(path)
            meta = journal.load_meta()
            if meta is None:
                # Torn or foreign meta: not a recoverable job.  The job
                # directory stays untouched for fsck to quarantine, and
                # the manager reports itself degraded rather than
                # silently forgetting the job existed.
                self.degraded_reasons.append(
                    f"{path.name}: corrupt meta (quarantine with fsck)"
                )
                self._counter = max(self._counter, int(match.group(1)))
                continue
            events, chain, verified, size = journal.replay(meta["id"])
            if verified < size:
                # Cut the torn tail before the job can append: a resumed
                # job's first event would otherwise be glued onto it and
                # every later line lost to the next replay.
                journal.truncate_events(verified)
            job = Job(
                meta["id"],
                meta.get("params", {}),
                journal=journal,
                events=events,
                chain=chain,
            )
            self._jobs[job.id] = job
            self._counter = max(self._counter, int(match.group(1)))
            if not job.done:
                resumable.append(job)
        if resumable:
            with self._lock:
                self._ensure_worker_locked()
            for job in resumable:
                self._queue.put(job)

    @classmethod
    def scrub(cls, root: Path, repair: bool) -> list[Finding]:
        """Classify every job's meta and journal as recovery reads them.
        Read-only unless ``repair``: quarantine a job whose meta does not
        load, truncate a torn journal tail to its verified prefix, delete
        temp files and any other file a journal does not use."""
        scrub = Scrub(root, "jobs", repair)
        for path in sorted(root.iterdir()):
            if not path.is_dir() or _JOB_DIR.match(path.name) is None:
                continue
            journal = JobJournal(path)
            if journal.load_meta() is None:
                scrub.note(
                    path, "job", "corrupt", "unreadable or foreign job metadata", "quarantine"
                )
                continue
            scrub.note(path / JobJournal.META_NAME, "meta")
            events = path / JobJournal.EVENTS_NAME
            if events.exists():
                _, _, verified, size = journal.replay(path.name)
                if verified < size:
                    scrub.note(
                        events, "journal", "torn-tail",
                        f"verified prefix {verified} of {size} bytes; the tail does not replay",
                        "truncate", fix=lambda: journal.truncate_events(verified),
                    )
                else:
                    scrub.note(events, "journal")
            for stray in sorted(path.iterdir()):
                if stray.name in (JobJournal.META_NAME, JobJournal.EVENTS_NAME):
                    continue
                if stray.name.endswith(".tmp"):
                    scrub.note(stray, "tmp", "orphaned", "temp file from a killed writer", "delete")
                else:
                    scrub.note(
                        stray, "job-file", "orphaned",
                        "not a journal file (an older release's compacted history, say)",
                        "delete",
                    )
        return scrub.findings

    def _ensure_worker_locked(self) -> None:
        """Start the drain thread if needed; caller holds ``self._lock``
        (an unlocked check-then-start could spawn two workers and run
        two protocol jobs concurrently)."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._drain, name="repro-job-worker", daemon=True
            )
            self._worker.start()

    def _prune_locked(self) -> None:
        """Drop the oldest finished jobs (and journals) beyond the cap."""
        finished = [job_id for job_id, job in self._jobs.items() if job.done]
        for job_id in finished[: max(len(finished) - self.KEEP_FINISHED, 0)]:
            job = self._jobs.pop(job_id)
            if job._journal is not None:
                job._journal.destroy()

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            # A replayed job already journalled "started" (and maybe
            # folds) in its previous life; "resumed" marks the new one
            # while keeping the journal a byte-identical prefix.
            if job.replayed:
                job.transition("running", {"event": "resumed", "job": job.id})
            else:
                job.transition("running", {"event": "started", "job": job.id})
            try:
                # The runner returns the terminal event's extra payload;
                # the state flips atomically with the event, so a reader
                # that sees the terminal line also sees the final state.
                outcome = self._runner(job)
            except Exception as error:  # noqa: BLE001 - surfaced to the client
                job.transition(
                    "failed",
                    {"event": "failed", "job": job.id, "error": str(error)},
                )
            else:
                job.transition(
                    "done",
                    {"event": "complete", "job": job.id, **(outcome or {})},
                )

    def submit(self, params: dict) -> Job:
        """Enqueue one job; returns immediately with its handle."""
        with self._lock:
            self._counter += 1
            job_id = f"job-{self._counter:04d}"
            if self.root is not None:
                journal = JobJournal.create(
                    self.root / job_id, job_id, dict(params)
                )
                job = Job(job_id, params, journal=journal)
            else:
                job = Job(job_id, params)
            self._prune_locked()
            self._jobs[job.id] = job
            self._ensure_worker_locked()
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> list[dict]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [job.snapshot() for job in jobs]

    def counts(self) -> dict[str, int]:
        """Jobs per state, for ``/healthz``."""
        with self._lock:
            jobs = list(self._jobs.values())
        counts: dict[str, int] = {}
        for job in jobs:
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts
