"""The prediction service: the paper's deployable end product.

A :class:`PredictionService` fronts one :class:`~repro.api.Session` and
one :class:`~repro.api.ModelRegistry`: train once per microarchitecture
space, promote the model, then answer "which flag setting for this
program/machine?" from memory forever.  It is transport-agnostic — every
endpoint is a plain ``dict -> dict`` method the HTTP layer (and the
tests) call directly, serialised with :func:`canonical_json` so an HTTP
response and the in-process facet answer are bit-identical.

Production shape:

* **Multi-model routing** — requests carry an optional ``channel`` and
  are answered by that channel's promoted registry model; each request
  re-reads the channel's promotion pointer (one tiny JSON stat) and
  reloads only when it moved, so a ``promote``/``rollback`` from another
  process takes effect on the next request without a restart.
* **Request micro-batching** — concurrent single ``/predict`` requests
  coalesce (:class:`PredictBatcher`) into one batched ranking-kernel
  pass, with every per-request payload byte-identical to the unbatched
  answer.
* **Load shedding** — a bounded in-flight budget (:class:`LoadLimiter`)
  turns overload into immediate 429 + ``Retry-After`` instead of a
  pile-up, surfaced in ``/metrics``.
* **Persistent jobs** — ``POST /jobs`` journals to disk (when the
  session uses a disk cache), so job history and unfinished runs survive
  a server restart; see :mod:`repro.service.jobs`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import threading
import time
from typing import Iterator

from repro.api import ModelRegistry, RegistryError, Session
from repro.api.backends import resolve_backend
from repro.api.facets import profile_pairs, ranked_prediction_many
from repro.api.registry import DEFAULT_CHANNEL, validate_channel
from repro.compiler.flags import FlagSetting
from repro.evalrun import resolve_artifacts
from repro.experiments.config import preset
from repro.machine.params import MicroArch
from repro.service.jobs import Job, JobManager, jobs_root
from repro.sim.counters import COUNTER_NAMES, PerfCounters

#: Upper bound on ``top`` in /predict: the flag space holds ~4e14
#: settings, so an uncapped request could enumerate effectively forever.
MAX_TOP = 100

#: Upper bound on ``items`` in a batched /predict request.
MAX_BATCH_ITEMS = 256

#: Default bound on concurrently-served /predict + /evaluate requests;
#: arrivals beyond it are shed with 429 rather than queued.
DEFAULT_MAX_INFLIGHT = 64


def canonical_json(payload: dict) -> str:
    """The service's one serialisation: sorted keys, no whitespace.

    Floats emit their shortest round-tripping repr, so two payloads are
    byte-identical exactly when their values are bit-identical — the
    property the ``/predict`` contract (and its tests) rely on.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ServiceError(Exception):
    """A client-visible failure with an HTTP status code.

    ``retry_after`` (seconds) is set on load-shed 429s so the transport
    can emit a ``Retry-After`` header.
    """

    def __init__(
        self, message: str, status: int = 400, retry_after: float | None = None
    ):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServiceMetrics:
    """Per-endpoint and per-channel request counts and latency percentiles.

    Latencies are kept in a bounded window per key; percentiles are
    computed on read (nearest-rank), so recording stays O(1) per request.
    Endpoints and routing channels are separate key spaces of one table:
    ``/predict`` traffic lands in one endpoint bucket *and* in the bucket
    of the channel whose promoted model answered it, so a slow canary
    model is visible without un-mixing the shared endpoint window.
    """

    WINDOW = 1024

    def __init__(self):
        self._lock = threading.Lock()
        #: (space, key) -> [count, errors, latency window]; ``space`` is
        #: the snapshot section, "endpoints" or "channels".
        self._table: dict[tuple[str, str], list] = {}
        self._started = time.monotonic()

    def _record(self, space: str, key: str, seconds: float, error: bool) -> None:
        with self._lock:
            row = self._table.get((space, key))
            if row is None:
                row = self._table[space, key] = [0, 0, []]
            row[0] += 1
            row[1] += bool(error)
            window = row[2]
            window.append(seconds)
            if len(window) > self.WINDOW:
                del window[: len(window) - self.WINDOW]

    def observe(self, endpoint: str, seconds: float, error: bool = False) -> None:
        self._record("endpoints", endpoint, seconds, error)

    def observe_channel(
        self, channel: str, seconds: float, error: bool = False
    ) -> None:
        """Attribute one answered (or failed) request to a routing channel."""
        self._record("channels", channel, seconds, error)

    @staticmethod
    def _percentile(ordered: list[float], fraction: float) -> float:
        """Nearest-rank percentile: the ``ceil(fraction * N)``-th value.

        ``round()`` is wrong here — it banker's-rounds half-way ranks
        down, so p50 of a 5-sample window picked the 2nd value instead
        of the median.  Nearest-rank always ceils.
        """
        index = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
        return ordered[index]

    def snapshot(self) -> dict:
        with self._lock:
            rows = {
                space_key: (count, errors, list(window))
                for space_key, (count, errors, window) in self._table.items()
            }
            uptime = time.monotonic() - self._started
        snapshot = {"uptime_seconds": uptime, "endpoints": {}, "channels": {}}
        for (space, key), (count, errors, window) in sorted(rows.items()):
            summary = {"count": count, "errors": errors}
            if window:
                ordered = sorted(window)
                summary["latency_ms"] = {
                    "mean": sum(ordered) / len(ordered) * 1000.0,
                    "p50": self._percentile(ordered, 0.50) * 1000.0,
                    "p90": self._percentile(ordered, 0.90) * 1000.0,
                    "p99": self._percentile(ordered, 0.99) * 1000.0,
                    "max": ordered[-1] * 1000.0,
                }
            snapshot[space][key] = summary
        return snapshot


class LoadLimiter:
    """A bounded in-flight budget for the expensive endpoints.

    Admission is O(1) under one lock.  When the budget is exhausted the
    request is shed immediately with 429 + ``Retry-After`` instead of
    queueing, so overload degrades into fast, explicit backpressure
    rather than a thread pile-up behind the model lock.
    """

    def __init__(
        self,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        retry_after: float = 1.0,
    ):
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self._inflight = 0
        self._peak = 0
        self._shed = 0

    @contextlib.contextmanager
    def admit(self):
        """Hold one in-flight slot, or raise a 429 ``ServiceError``."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._shed += 1
                raise ServiceError(
                    f"server overloaded: {self._inflight} requests in flight "
                    f"(max {self.max_inflight})",
                    status=429,
                    retry_after=self.retry_after,
                )
            self._inflight += 1
            if self._inflight > self._peak:
                self._peak = self._inflight
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "peak_inflight": self._peak,
                "shed": self._shed,
            }


class _PendingPredict:
    """One caller's slot in the micro-batch queue."""

    __slots__ = ("payload", "response", "error", "done")

    def __init__(self, payload: dict):
        self.payload = payload
        self.response: dict | None = None
        self.error: BaseException | None = None
        self.done = False


class PredictBatcher:
    """Coalesce concurrent single ``/predict`` requests into one answer.

    Batching is contention-driven: the first thread to arrive becomes
    the dispatcher and drains everything queued behind it (up to
    :data:`MAX_BATCH_ITEMS`) without waiting to gather more.  Requests
    that arrive while a dispatch is in flight queue up and form the next
    batch, so under load batches grow naturally while an idle server
    adds no latency at all.

    Each drained batch is answered by
    :meth:`PredictionService._answer` once per routing channel — the
    routine the unbatched and ``items`` forms use too — so per-request
    responses are byte-identical to unbatched answers, including
    per-request errors, which are raised in the caller's own thread.
    A payload's error fails only that payload, except a profiling
    failure, which fails the payloads profiled on the same backend.
    """

    def __init__(self, service: "PredictionService"):
        self._service = service
        self._condition = threading.Condition()
        self._pending: list[_PendingPredict] = []
        self._dispatching = False
        self._batches = 0
        self._requests = 0
        self._max_batch = 0

    def snapshot(self) -> dict:
        with self._condition:
            return {
                "enabled": True,
                "max_items": MAX_BATCH_ITEMS,
                "batches": self._batches,
                "requests": self._requests,
                "max_batch": self._max_batch,
            }

    def submit(self, payload: dict) -> dict:
        """Answer one single-predict payload, possibly batched with peers."""
        request = _PendingPredict(payload)
        with self._condition:
            self._pending.append(request)
        while True:
            with self._condition:
                if request.done:
                    break
                if self._dispatching:
                    self._condition.wait()
                    continue
                self._dispatching = True
                batch = self._pending[:MAX_BATCH_ITEMS]
                del self._pending[: len(batch)]
                if batch:
                    self._batches += 1
                    self._requests += len(batch)
                    self._max_batch = max(self._max_batch, len(batch))
            try:
                self._dispatch(batch)
            finally:
                with self._condition:
                    self._dispatching = False
                    for member in batch:
                        member.done = True
                    self._condition.notify_all()
        if request.error is not None:
            raise request.error
        assert request.response is not None
        return request.response

    def _dispatch(self, batch: list[_PendingPredict]) -> None:
        """Answer a drained batch, one :meth:`_answer` call per channel."""
        groups: dict[str | None, list[_PendingPredict]] = {}
        for member in batch:
            try:
                channel = _channel_from(member.payload)
            except ServiceError as error:
                member.error = error
                continue
            groups.setdefault(channel, []).append(member)
        for channel, members in groups.items():
            try:
                answers = self._service._answer(
                    channel, [member.payload for member in members]
                )
            except BaseException as error:
                answers = [error] * len(members)
            for member, answer in zip(members, answers):
                if isinstance(answer, BaseException):
                    member.error = answer
                else:
                    member.response = answer


# ------------------------------------------------------------ payload codecs
def _channel_from(payload: dict) -> str | None:
    """The request's routing channel, validated (``None`` = service default)."""
    channel = payload.get("channel")
    if channel is None:
        return None
    try:
        return validate_channel(channel)
    except RegistryError as error:
        raise ServiceError(str(error))



def _machine_from(payload: dict) -> MicroArch:
    fields = payload.get("machine")
    if not isinstance(fields, dict):
        raise ServiceError("request needs a 'machine' object of MicroArch fields")
    try:
        return MicroArch(**fields)
    except TypeError as error:
        raise ServiceError(f"bad machine: {error}")


def _counters_from(payload: dict) -> PerfCounters:
    raw = payload["counters"]
    if isinstance(raw, dict):
        missing = [name for name in COUNTER_NAMES if name not in raw]
        if missing:
            raise ServiceError(f"counters missing {missing}")
        values = [raw[name] for name in COUNTER_NAMES]
    elif isinstance(raw, (list, tuple)):
        values = list(raw)
    else:
        raise ServiceError("'counters' must be an object or an 11-value array")
    if len(values) != len(COUNTER_NAMES):
        raise ServiceError(
            f"counters need exactly {len(COUNTER_NAMES)} values, got {len(values)}"
        )
    try:
        return PerfCounters(*(float(value) for value in values))
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad counters: {error}")


def _setting_from(payload: dict) -> FlagSetting | None:
    raw = payload.get("setting")
    if raw is None:
        return None
    try:
        if isinstance(raw, dict) and "indices" in raw:
            return FlagSetting.from_indices(raw["indices"])
        if isinstance(raw, dict) and "flags" in raw:
            return FlagSetting(raw["flags"])
        if isinstance(raw, (list, tuple)):
            return FlagSetting.from_indices(raw)
    except (TypeError, ValueError, KeyError) as error:
        raise ServiceError(f"bad setting: {error}")
    raise ServiceError(
        "'setting' must be an index array, {'indices': [...]}, or {'flags': {...}}"
    )


class PredictionService:
    """Registry-backed prediction, evaluation, and protocol jobs."""

    def __init__(
        self,
        session: Session,
        registry: ModelRegistry | None = None,
        *,
        channel: str = DEFAULT_CHANNEL,
        batching: bool = True,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        jobs_dir=None,
        persist_jobs: bool = True,
    ):
        self.session = session
        self.registry = (
            registry if registry is not None else session.models.registry()
        )
        try:
            self.channel = validate_channel(channel)
        except RegistryError as error:
            raise ValueError(str(error))
        self.metrics = ServiceMetrics()
        self.limiter = LoadLimiter(max_inflight=max_inflight)
        self.batcher = PredictBatcher(self) if batching else None
        if jobs_dir is None and persist_jobs and session.use_disk_cache:
            jobs_dir = jobs_root(session.cache_dir)
        self.jobs = JobManager(self._run_job, root=jobs_dir)
        self._model_lock = threading.Lock()
        #: Loaded (predictor, provenance) per registry version.  Versions
        #: are immutable, so entries are valid forever (even across
        #: channels); only the newest few are kept to bound memory.
        self._models: dict[int, tuple[object, dict]] = {}
        self._MODEL_CACHE = 4

    # -------------------------------------------------------------- the model
    def _promoted_model(self, channel: str | None = None) -> tuple[object, dict]:
        """The channel's promoted predictor plus provenance, from the cache.

        Re-checks the channel's promotion pointer per request (one tiny
        JSON read) and loads a version at most once — the cache is keyed
        by registry version, which is immutable, so it is shared across
        channels.  The returned pair is immutable too: a request keeps
        ranking with the model it started with even if a concurrent
        ``promote``/``rollback`` moves the pointer mid-flight.
        """
        channel = self.channel if channel is None else channel
        try:
            promoted = self.registry.promoted_version(channel)
        except RegistryError as error:
            raise ServiceError(str(error), status=503)
        if promoted is None:
            try:
                live = sorted(self.registry.channels())
            except RegistryError:
                live = []
            hint = (
                f"channels with a promoted model: {', '.join(live)}"
                if live
                else "train one with: repro-experiments train"
            )
            raise ServiceError(
                f"no promoted model on channel {channel!r} in registry "
                f"{self.registry.root}; {hint}",
                status=503,
            )
        with self._model_lock:
            cached = self._models.get(promoted)
            if cached is None:
                try:
                    predictor, entry = self.registry.load(
                        promoted, space=self.session.flag_space
                    )
                except RegistryError as error:
                    raise ServiceError(str(error), status=503)
                info = {
                    "version": entry.version,
                    "digest": entry.digest,
                    "fingerprint": entry.fingerprint,
                }
                cached = (predictor, info)
                self._models[promoted] = cached
                while len(self._models) > self._MODEL_CACHE:
                    self._models.pop(next(iter(self._models)))
            return cached

    def model_info(self) -> dict | None:
        """Provenance of the served model (``None`` before promotion)."""
        try:
            _, info = self._promoted_model()
        except ServiceError:
            return None
        return info

    # -------------------------------------------------------------- endpoints
    def health(self) -> dict:
        """``GET /healthz``: liveness plus a damage report.

        Durable-state damage (an unreadable promotion pointer, a torn
        job journal found at recovery) degrades the service — it keeps
        answering with whatever still works and says why — rather than
        crashing it.  ``status`` is ``"ok"`` with no reasons,
        ``"degraded"`` with them.
        """
        reasons: list[str] = []
        try:
            channels = self.registry.channels()
        except RegistryError as error:
            channels = {}
            reasons.append(f"registry pointer unreadable: {error}")
        reasons.extend(self.jobs.degraded_reasons)
        payload = {
            "status": "degraded" if reasons else "ok",
            "scale": self.session.scale.name,
            "registry": str(self.registry.root),
            "channel": self.channel,
            "channels": channels,
            "model": self.model_info(),
            "jobs": self.jobs.counts(),
        }
        if reasons:
            payload["reasons"] = reasons
        return payload

    def metrics_snapshot(self) -> dict:
        """``GET /metrics``: request stats plus load/batching gauges."""
        snapshot = self.metrics.snapshot()
        snapshot["load"] = self.limiter.snapshot()
        snapshot["batching"] = (
            self.batcher.snapshot()
            if self.batcher is not None
            else {"enabled": False}
        )
        return snapshot

    def predict(self, payload: dict) -> dict:
        """``POST /predict``: features or program-spec in, ranked settings out.

        Every form is answered by :meth:`_answer`, so the ranked list is
        exactly what ``session.models.rank(...)`` /
        ``rank_counters(...)`` produce on the promoted model, serialised
        bit-for-bit.  A single payload goes through the micro-batcher
        (when enabled), which answers concurrent requests together, or
        else alone in the caller's thread.  A payload with an ``items``
        array is a batch: its elements are single-predict payloads,
        answered in order under ``results``, each byte-identical to the
        single request.

        Every request is also attributed to its routing channel in the
        metrics (``self.channel`` when the payload names none), so
        ``/metrics`` can show a slow or failing canary separately from
        stable traffic.  Batched requests time the whole call — queue
        wait included — because that is the latency the caller saw.
        """
        channel = _channel_from(payload)  # malformed channels fail pre-metrics
        name = self.channel if channel is None else channel
        started = time.perf_counter()
        try:
            if "items" in payload:
                response = self._predict_items(channel, payload)
            elif self.batcher is not None:
                response = self.batcher.submit(payload)
            else:
                (response,) = self._answer(channel, [payload])
                if isinstance(response, Exception):
                    raise response
        except BaseException:
            self.metrics.observe_channel(
                name, time.perf_counter() - started, error=True
            )
            raise
        self.metrics.observe_channel(name, time.perf_counter() - started)
        return response

    def _predict_items(self, channel: str | None, payload: dict) -> dict:
        """The ``items`` form: the lowest-index failing item fails the
        whole request, its message prefixed with ``items[i]:``."""
        items = payload["items"]
        if not isinstance(items, list) or not items:
            raise ServiceError("'items' must be a non-empty array of predict payloads")
        if len(items) > MAX_BATCH_ITEMS:
            raise ServiceError(
                f"batch too large: {len(items)} items (max {MAX_BATCH_ITEMS})"
            )
        answers = self._answer(channel, items, payload.get("top", 5))
        for index, answer in enumerate(answers):
            if isinstance(answer, ServiceError):
                raise ServiceError(f"items[{index}]: {answer}", status=answer.status)
            if isinstance(answer, Exception):
                raise answer
        return {
            "model": answers[0]["model"],
            "results": [
                {key: value for key, value in answer.items() if key != "model"}
                for answer in answers
            ],
        }

    def _answer(
        self, channel: str | None, payloads: list, default_top: int = 5
    ) -> list[dict | Exception]:
        """Answer single-predict payloads routed to one channel: the one
        ``/predict`` path, in order, a response or an exception each.

        The promoted model is read once, so every answer names the
        version that produced it.  Program-spec payloads are profiled
        together per backend (:func:`~repro.api.facets.profile_pairs`)
        and all valid payloads are ranked in one
        :func:`~repro.api.facets.ranked_prediction_many` call; only if
        that raises ``ValueError`` are they re-ranked one by one, to pin
        the 400 on the payloads that caused it.  A backend whose profiling
        raises fails only its own payloads, with that exception.
        """
        model, info = self._promoted_model(channel)
        answers: list = [None] * len(payloads)
        entries: dict[int, dict] = {}
        for index, payload in enumerate(payloads):
            try:
                entries[index] = self._parse_predict_entry(payload, default_top)
            except ServiceError as error:
                answers[index] = error

        by_backend: dict[object, list[int]] = {}
        for index, entry in entries.items():
            if entry["binary"] is not None:
                by_backend.setdefault(entry["backend"], []).append(index)
        for backend, indices in by_backend.items():
            try:
                profiles = profile_pairs(
                    model,
                    backend,
                    [(entries[i]["binary"], entries[i]["machine"]) for i in indices],
                )
            except Exception as error:
                for index in indices:
                    answers[index] = error
                    del entries[index]
                continue
            for index, (profile, code_features) in zip(indices, profiles):
                entries[index]["counters"] = profile.counters
                entries[index]["code_features"] = code_features

        try:
            ranked = ranked_prediction_many(model, list(entries.values()))
        except ValueError:
            ranked = []
            for entry in entries.values():
                try:
                    ranked.extend(ranked_prediction_many(model, [entry]))
                except ValueError as error:
                    ranked.append(ServiceError(str(error)))
        for index, prediction in zip(entries, ranked):
            answers[index] = (
                prediction
                if isinstance(prediction, ServiceError)
                else {"model": info, **prediction.payload()}
            )
        return answers

    def _parse_predict_entry(self, item: dict, default_top: int = 5) -> dict:
        """Validate one predict payload into a ranking-ready entry.

        Program-spec entries come back with ``binary``/``backend`` set
        and ``counters`` still to be profiled.
        """
        if not isinstance(item, dict):
            raise ServiceError("must be an object")
        machine = _machine_from(item)
        top = item.get("top", default_top)
        if not isinstance(top, int) or not 1 <= top <= MAX_TOP:
            raise ServiceError(f"'top' must be an integer in [1, {MAX_TOP}]")
        entry = {
            "machine": machine,
            "top": top,
            "program": None,
            "counters": None,
            "code_features": None,
            "binary": None,
            "backend": None,
        }
        program_name = item.get("program")
        if "counters" in item:
            entry["counters"] = _counters_from(item)
            entry["program"] = program_name
        elif program_name is not None:
            try:
                entry["binary"] = self.session.compile(
                    self.session.program(program_name)
                )
            except ValueError as error:
                raise ServiceError(str(error), status=404)
            entry["program"] = entry["binary"].program_name
            try:
                entry["backend"] = (
                    self.session.backend
                    if item.get("backend") is None
                    else resolve_backend(item["backend"])
                )
            except (ValueError, TypeError) as error:
                raise ServiceError(f"bad backend: {error}")
        else:
            raise ServiceError("needs 'program' or 'counters'")
        return entry

    def evaluate(self, payload: dict) -> dict:
        """``POST /evaluate``: compile-and-simulate one triple."""
        try:
            program = self.session.program(payload.get("program", ""))
        except ValueError as error:
            raise ServiceError(str(error), status=404)
        machine = _machine_from(payload)
        setting = _setting_from(payload)
        backend = payload.get("backend")
        try:
            resolve_backend(backend if backend is not None else "analytic")
        except (KeyError, ValueError, TypeError) as error:
            raise ServiceError(f"bad backend: {error}")
        result = self.session.eval.evaluate(
            program, machine, setting=setting, backend=backend
        )
        return {
            "program": result.program,
            "machine": dataclasses.asdict(result.machine),
            "setting": list(result.setting.as_indices()),
            "backend": result.backend,
            "runtime_seconds": result.runtime,
            "cycles": result.cycles,
            "energy_nj": result.energy_nj,
            "counters": dict(zip(COUNTER_NAMES, result.counters.vector())),
        }

    # ------------------------------------------------------------------- jobs
    def submit_job(self, payload: dict) -> dict:
        """``POST /jobs``: validate, then queue a background protocol run.

        Every parameter is checked at submit time — an unknown scale,
        artifact, or field answers 400 immediately instead of enqueueing
        a job that fails minutes into its run.
        """
        allowed = ("scale", "only", "max_folds")
        unknown = sorted(set(payload) - set(allowed))
        if unknown:
            raise ServiceError(
                f"unknown job fields {unknown}; allowed fields: {list(allowed)}"
            )
        scale = payload.get("scale")
        if scale is not None:
            if not isinstance(scale, str):
                raise ServiceError("'scale' must be a scale preset name")
            try:
                preset(scale)
            except ValueError as error:
                raise ServiceError(str(error))
        only = payload.get("only")
        if only is not None:
            if not (
                isinstance(only, str)
                or (
                    isinstance(only, list)
                    and all(isinstance(name, str) for name in only)
                )
            ):
                raise ServiceError(
                    "'only' must be an artifact name (or comma-joined names) "
                    "or an array of artifact names"
                )
            try:
                resolve_artifacts(only)
            except ValueError as error:
                raise ServiceError(str(error))
        max_folds = payload.get("max_folds")
        if max_folds is not None and (not isinstance(max_folds, int) or max_folds < 1):
            raise ServiceError("'max_folds' must be a positive integer")
        job = self.jobs.submit(
            {"scale": scale, "only": only, "max_folds": max_folds}
        )
        return job.snapshot()

    def _run_job(self, job: Job) -> dict:
        """Worker-thread body: one protocol run streaming fold events."""

        def on_fold(key, completed, total):
            job.emit(
                {
                    "event": "fold",
                    "job": job.id,
                    "fold": key.stem(),
                    "variant": key.variant,
                    "program": key.program,
                    "completed": completed,
                    "total": total,
                }
            )

        outcome = self.session.protocol.run(
            scale=job.params.get("scale"),
            only=job.params.get("only"),
            max_folds=job.params.get("max_folds"),
            on_fold=on_fold,
        )
        result = {
            "protocol_complete": outcome.complete,
            "folds_computed": outcome.stats.folds_computed,
            "folds_skipped": outcome.stats.folds_skipped,
        }
        if outcome.report is not None:
            result["report_fingerprint"] = outcome.report.fingerprint
        return result

    def job_snapshot(self, job_id: str) -> dict:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job {job_id!r}", status=404)
        return job.snapshot()

    def job_events(
        self, job_id: str, timeout: float | None = None
    ) -> Iterator[dict]:
        job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(f"no such job {job_id!r}", status=404)
        return job.events(timeout=timeout)
