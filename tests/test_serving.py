"""Tests for the hardened serving tier: persistent jobs, micro-batching,
promotion channels, load shedding, and the latent service bug fixes
(percentile rounding, torn job snapshots, submit-time validation, 404
metrics, truncated bodies)."""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.machine.xscale import xscale
from repro.service import (
    JobJournal,
    JobManager,
    LoadLimiter,
    PredictionService,
    ServiceError,
    ServiceMetrics,
    canonical_json,
    make_server,
)
from repro.service.jobs import Job, _chain_seed
from repro.sim.counters import COUNTER_NAMES


@pytest.fixture(scope="module")
def deployment(tmp_path_factory, tiny_data):
    """A tiny-trained registry with v1 on 'default' and v2 on 'fast'."""
    cache = tmp_path_factory.mktemp("serving-cache")
    trainer = Session("tiny", cache_dir=cache)
    trainer.models.fit(tiny_data.training)
    trainer.models.register(promote=True)
    trainer.models.register(promote=True, channel="fast")
    return Session("tiny", cache_dir=cache, use_disk_cache=False)


@pytest.fixture(scope="module")
def service(deployment):
    """The default serving stack: micro-batching on."""
    return PredictionService(deployment)


@pytest.fixture(scope="module")
def plain_service(deployment):
    """Ground truth for byte-identity: no batcher at all."""
    return PredictionService(deployment, batching=False)


@pytest.fixture(scope="module")
def server(service):
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _counters_payload(deployment, top=3, **extra):
    profile = deployment.eval.evaluate("sha", xscale())
    return {
        "counters": dict(zip(COUNTER_NAMES, profile.counters.vector())),
        "machine": dataclasses.asdict(xscale()),
        "top": top,
        "program": "sha",
        **extra,
    }


class TestPercentileRounding:
    def test_p50_of_odd_window_is_the_median(self):
        """round() banker's-rounds rank 2.5 down to the 2nd value; the
        nearest-rank definition ceils to the 3rd (the median)."""
        window = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert ServiceMetrics._percentile(window, 0.50) == 3.0

    def test_other_ranks_unchanged(self):
        window = [float(value) for value in range(1, 11)]
        assert ServiceMetrics._percentile(window, 0.50) == 5.0
        assert ServiceMetrics._percentile(window, 0.90) == 9.0
        assert ServiceMetrics._percentile(window, 0.99) == 10.0
        assert ServiceMetrics._percentile([7.0], 0.50) == 7.0

    def test_snapshot_reports_the_median(self):
        metrics = ServiceMetrics()
        for seconds in (0.001, 0.002, 0.003, 0.004, 0.005):
            metrics.observe("/x", seconds)
        snapshot = metrics.snapshot()
        assert snapshot["endpoints"]["/x"]["latency_ms"]["p50"] == pytest.approx(3.0)


class TestJobSnapshotBarrier:
    def test_snapshot_never_pairs_running_with_terminal_event(self):
        """Hammer transition() against snapshot(): the state flip and the
        terminal event land atomically, so no interleaving can show
        'running' next to a 'complete' last_event."""
        for _ in range(200):
            job = Job("job-barrier", {})
            seen = []

            def reader():
                while True:
                    snap = job.snapshot()
                    seen.append(snap)
                    if snap["state"] in ("done", "failed"):
                        return

            thread = threading.Thread(target=reader)
            thread.start()
            job.transition("running", {"event": "started", "job": job.id})
            job.transition("done", {"event": "complete", "job": job.id})
            thread.join(timeout=10)
            assert not thread.is_alive()
            for snap in seen:
                last = snap["last_event"]
                if last is not None and last["event"] == "complete":
                    assert snap["state"] == "done"
                if snap["state"] == "done":
                    assert last is not None and last["event"] == "complete"

    def test_terminal_transition_is_atomic_in_snapshot(self):
        job = Job("job-atomic", {})
        job.transition("running", {"event": "started", "job": job.id})
        job.transition("failed", {"event": "failed", "job": job.id, "error": "x"})
        snap = job.snapshot()
        assert snap["state"] == "failed"
        assert snap["last_event"]["event"] == "failed"


class TestSubmitValidation:
    @pytest.fixture()
    def bare(self, tmp_path):
        return PredictionService(
            Session("tiny", cache_dir=tmp_path, use_disk_cache=False)
        )

    def test_unknown_scale_rejected_at_submit(self, bare):
        with pytest.raises(ServiceError, match="unknown scale") as excinfo:
            bare.submit_job({"scale": "galactic"})
        assert excinfo.value.status == 400

    def test_non_string_scale_rejected(self, bare):
        with pytest.raises(ServiceError, match="'scale' must be"):
            bare.submit_job({"scale": 7})

    def test_unknown_artifact_rejected_at_submit(self, bare):
        with pytest.raises(ServiceError) as excinfo:
            bare.submit_job({"only": "figure99"})
        assert excinfo.value.status == 400

    def test_malformed_only_rejected(self, bare):
        with pytest.raises(ServiceError, match="'only' must be"):
            bare.submit_job({"only": 123})
        with pytest.raises(ServiceError, match="'only' must be"):
            bare.submit_job({"only": ["fig5", 3]})

    def test_unknown_field_rejected(self, bare):
        with pytest.raises(ServiceError, match="unknown job fields"):
            bare.submit_job({"scake": "tiny"})

    def test_bad_max_folds_rejected(self, bare):
        with pytest.raises(ServiceError, match="'max_folds'"):
            bare.submit_job({"max_folds": 0})

    def test_nothing_was_enqueued(self, bare):
        for payload in ({"scale": "galactic"}, {"only": 1}, {"oops": 1}):
            with pytest.raises(ServiceError):
                bare.submit_job(payload)
        assert bare.jobs.counts() == {}


class TestJobJournal:
    EVENTS = [
        {"event": "started", "job": "job-0001"},
        {"event": "fold", "job": "job-0001", "completed": 1, "total": 2},
        {"event": "complete", "job": "job-0001", "folds_computed": 2},
    ]

    def _write(self, root):
        journal = JobJournal.create(root / "job-0001", "job-0001", {"scale": "tiny"})
        chain = _chain_seed("job-0001")
        for event in self.EVENTS:
            chain = journal.append(event, chain)
        return journal, chain

    def test_roundtrip_is_byte_identical(self, tmp_path):
        journal, chain = self._write(tmp_path)
        events, final = journal.load_events("job-0001")
        assert events == self.EVENTS
        assert final == chain
        meta = journal.load_meta()
        assert meta["id"] == "job-0001"
        assert meta["params"] == {"scale": "tiny"}

    def test_torn_tail_is_truncated(self, tmp_path):
        """A kill -9 mid-append leaves a newline-less tail; replay keeps
        everything before it."""
        journal, _ = self._write(tmp_path)
        with open(journal.root / JobJournal.EVENTS_NAME, "ab") as handle:
            handle.write(b'{"chain": "dead", "event"')
        events, _ = journal.load_events("job-0001")
        assert events == self.EVENTS

    def test_tampered_line_distrusts_the_rest(self, tmp_path):
        journal, _ = self._write(tmp_path)
        path = journal.root / JobJournal.EVENTS_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["event"]["completed"] = 999  # chain digest no longer matches
        lines[1] = (json.dumps(record) + "\n").encode()
        path.write_bytes(b"".join(lines))
        events, _ = journal.load_events("job-0001")
        assert events == self.EVENTS[:1]

    def test_torn_meta_is_not_recovered(self, tmp_path):
        journal, _ = self._write(tmp_path)
        (journal.root / JobJournal.META_NAME).write_text('{"format":')
        assert journal.load_meta() is None


def _wait_done(job, timeout=30.0):
    for _ in job.events(timeout=timeout):
        pass
    assert job.done


class TestPersistentJobManager:
    @staticmethod
    def _runner(job):
        job.emit({"event": "fold", "job": job.id, "completed": 1, "total": 1})
        return {"folds_computed": 1}

    def test_history_survives_restart_byte_identical(self, tmp_path):
        manager = JobManager(self._runner, root=tmp_path)
        job = manager.submit({"scale": "tiny"})
        _wait_done(job)
        before = [canonical_json(event) for event in job.events(timeout=1.0)]
        assert [json.loads(line)["event"] for line in before] == [
            "started",
            "fold",
            "complete",
        ]

        revived = JobManager(self._runner, root=tmp_path)
        replayed = revived.get(job.id)
        assert replayed is not None and replayed.done
        after = [canonical_json(event) for event in replayed.events(timeout=1.0)]
        assert after == before
        assert replayed.snapshot() == job.snapshot()

    def test_counter_resumes_past_recovered_jobs(self, tmp_path):
        manager = JobManager(self._runner, root=tmp_path)
        first = manager.submit({})
        _wait_done(first)
        revived = JobManager(self._runner, root=tmp_path)
        second = revived.submit({})
        assert first.id == "job-0001"
        assert second.id == "job-0002"

    def test_unfinished_job_resumes_with_prefix_intact(self, tmp_path):
        """A journal that ends mid-run (as after kill -9) re-enqueues on
        recovery: the replayed prefix is byte-identical and the run
        continues with a 'resumed' marker instead of re-simulating."""
        journal = JobJournal.create(tmp_path / "job-0001", "job-0001", {})
        chain = _chain_seed("job-0001")
        prefix = [
            {"event": "started", "job": "job-0001"},
            {"event": "fold", "job": "job-0001", "completed": 1, "total": 2},
        ]
        for event in prefix:
            chain = journal.append(event, chain)
        prefix_bytes = [canonical_json(event) for event in prefix]

        calls = []

        def runner(job):
            calls.append(job.id)
            return {"folds_computed": 0, "folds_skipped": 2}

        manager = JobManager(runner, root=tmp_path)
        job = manager.get("job-0001")
        assert job is not None
        _wait_done(job)
        events = list(job.events(timeout=1.0))
        assert [canonical_json(e) for e in events[:2]] == prefix_bytes
        assert [e["event"] for e in events] == [
            "started",
            "fold",
            "resumed",
            "complete",
        ]
        assert calls == ["job-0001"]

    def test_resume_after_torn_tail_survives_the_next_restart(self, tmp_path):
        """Recovery cuts a torn journal tail before the resumed job
        appends, so the events journalled after one restart still
        replay after the next (and the finished job stays finished)."""
        journal = JobJournal.create(tmp_path / "job-0001", "job-0001", {})
        chain = _chain_seed("job-0001")
        for event in (
            {"event": "started", "job": "job-0001"},
            {"event": "fold", "job": "job-0001", "completed": 1, "total": 2},
        ):
            chain = journal.append(event, chain)
        with open(journal.root / JobJournal.EVENTS_NAME, "ab") as handle:
            handle.write(b'{"chain": "torn')  # a kill mid append

        job = JobManager(self._runner, root=tmp_path).get("job-0001")
        _wait_done(job)
        expected = ["started", "fold", "resumed", "fold", "complete"]
        assert [e["event"] for e in job.events(timeout=1.0)] == expected

        revived = JobManager(self._runner, root=tmp_path).get("job-0001")
        assert revived.done
        assert [e["event"] for e in revived.events(timeout=1.0)] == expected

    def test_in_memory_manager_still_works(self):
        manager = JobManager(self._runner)
        job = manager.submit({})
        _wait_done(job)
        assert [e["event"] for e in job.events(timeout=1.0)] == [
            "started",
            "fold",
            "complete",
        ]

    def test_prune_destroys_journals(self, tmp_path):
        manager = JobManager(self._runner, root=tmp_path)
        manager.KEEP_FINISHED = 1
        jobs = [manager.submit({}) for _ in range(3)]
        for job in jobs:
            _wait_done(job)
        manager.submit({"scale": None})  # triggers the prune
        surviving = {path.name for path in tmp_path.iterdir()}
        assert "job-0001" not in surviving


class TestMicroBatching:
    def test_concurrent_predicts_byte_identical_to_unbatched(
        self, service, plain_service, deployment
    ):
        payloads = [
            _counters_payload(deployment, top=top) for top in (1, 2, 3, 4, 5, 6)
        ]
        expected = [canonical_json(plain_service.predict(p)) for p in payloads]
        results = [None] * len(payloads)

        def call(index):
            results[index] = canonical_json(service.predict(payloads[index]))

        threads = [
            threading.Thread(target=call, args=(index,))
            for index in range(len(payloads))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results == expected
        snapshot = service.batcher.snapshot()
        assert snapshot["requests"] >= len(payloads)

    def test_queued_requests_coalesce_into_one_dispatch(self, deployment):
        from repro.service.service import _PendingPredict

        coalesced = PredictionService(deployment)
        batcher = coalesced.batcher
        payload = _counters_payload(deployment)
        waiting = [_PendingPredict(dict(payload)) for _ in range(3)]
        batcher._pending.extend(waiting)
        answer = batcher.submit(dict(payload))
        snapshot = batcher.snapshot()
        assert snapshot["batches"] == 1
        assert snapshot["requests"] == 4
        assert snapshot["max_batch"] == 4
        for member in waiting:
            assert member.done and member.error is None
            assert canonical_json(member.response) == canonical_json(answer)

    def test_batched_errors_stay_per_request(self, deployment):
        from repro.service.service import _PendingPredict

        isolated = PredictionService(deployment)
        batcher = isolated.batcher
        bad = _PendingPredict({"machine": {"bogus": 1}})
        batcher._pending.append(bad)
        good = batcher.submit(_counters_payload(deployment))
        assert good["settings"]
        assert isinstance(bad.error, ServiceError)
        assert "bad machine" in str(bad.error)

    def test_profiling_failure_fails_only_its_backend(self, deployment, monkeypatch):
        from repro.service import service as service_module
        from repro.service.service import _PendingPredict

        class BrokenBackend:
            def run(self, binary, machine):
                raise RuntimeError("simulator down")

        monkeypatch.setattr(
            service_module, "resolve_backend", lambda name: BrokenBackend()
        )
        payload = _counters_payload(deployment)
        expected = canonical_json(
            PredictionService(deployment, batching=False).predict(payload)
        )
        isolated = PredictionService(deployment)
        broken = _PendingPredict(
            {
                "program": "sha",
                "machine": dataclasses.asdict(xscale()),
                "backend": "broken",
            }
        )
        isolated.batcher._pending.append(broken)
        answer = isolated.batcher.submit(dict(payload))
        assert canonical_json(answer) == expected
        assert isolated.batcher.snapshot()["max_batch"] == 2
        assert isinstance(broken.error, RuntimeError)
        assert "simulator down" in str(broken.error)

    def test_batching_can_be_disabled(self, plain_service, deployment):
        assert plain_service.batcher is None
        answer = plain_service.predict(_counters_payload(deployment))
        assert answer["settings"]


@pytest.fixture(scope="module")
def code_deployment(tmp_path_factory, tiny_data):
    """A registry whose promoted model ranks with static code features,
    so a counters-only request fails inside the ranking kernel."""
    cache = tmp_path_factory.mktemp("code-cache")
    trainer = Session("tiny", cache_dir=cache)
    trainer.models.fit(tiny_data.training, feature_mode="with_code")
    trainer.models.register(promote=True)
    return Session("tiny", cache_dir=cache, use_disk_cache=False)


class TestRankingErrors:
    """A ``ValueError`` from the ranking kernel is a 400 for the request
    that caused it, in every request form, and spares its batch peers."""

    @staticmethod
    def _program_payload():
        return {"program": "sha", "machine": dataclasses.asdict(xscale()), "top": 3}

    def test_unbatched_request_names_the_code_features(self, code_deployment):
        svc = PredictionService(code_deployment, batching=False)
        with pytest.raises(ServiceError, match="code features") as excinfo:
            svc.predict(_counters_payload(code_deployment))
        assert excinfo.value.status == 400

    def test_micro_batch_peer_answers_as_if_alone(self, code_deployment):
        from repro.service.service import _PendingPredict

        expected = canonical_json(
            PredictionService(code_deployment, batching=False).predict(
                self._program_payload()
            )
        )
        batched = PredictionService(code_deployment)
        failing = _PendingPredict(_counters_payload(code_deployment))
        batched.batcher._pending.append(failing)
        answer = batched.batcher.submit(self._program_payload())
        assert canonical_json(answer) == expected
        assert batched.batcher.snapshot()["max_batch"] == 2
        assert isinstance(failing.error, ServiceError)
        assert failing.error.status == 400
        assert "code features" in str(failing.error)

    def test_items_form_names_the_failing_item(self, code_deployment):
        svc = PredictionService(code_deployment, batching=False)
        items = [_counters_payload(code_deployment), self._program_payload()]
        with pytest.raises(
            ServiceError, match=r"^items\[0\]: .*code features"
        ) as excinfo:
            svc.predict({"items": items})
        assert excinfo.value.status == 400


class TestChannels:
    def test_requests_route_to_the_channel_model(self, service, deployment):
        payload = _counters_payload(deployment)
        default = service.predict(dict(payload))
        fast = service.predict({**payload, "channel": "fast"})
        assert default["model"]["version"] == 1
        assert fast["model"]["version"] == 2
        assert fast["settings"]  # same predictor state, real answer

    def test_batch_form_routes_too(self, service, deployment):
        payload = _counters_payload(deployment)
        batched = service.predict(
            {"items": [dict(payload)], "channel": "fast"}
        )
        assert batched["model"]["version"] == 2

    def test_health_lists_channels(self, service):
        health = service.health()
        assert health["channel"] == "default"
        assert health["channels"] == {"default": 1, "fast": 2}

    def test_unknown_channel_is_503(self, service, deployment):
        with pytest.raises(ServiceError) as excinfo:
            service.predict(
                {**_counters_payload(deployment), "channel": "staging"}
            )
        assert excinfo.value.status == 503
        assert "fast" in str(excinfo.value)  # hints at live channels

    def test_invalid_channel_name_is_400(self, service, deployment):
        with pytest.raises(ServiceError) as excinfo:
            service.predict(
                {**_counters_payload(deployment), "channel": "no spaces!"}
            )
        assert excinfo.value.status == 400

    def test_service_can_default_to_a_channel(self, deployment):
        pinned = PredictionService(deployment, channel="fast", batching=False)
        answer = pinned.predict(_counters_payload(deployment))
        assert answer["model"]["version"] == 2


class TestLoadShedding:
    def test_limiter_sheds_past_the_budget(self):
        limiter = LoadLimiter(max_inflight=1, retry_after=2.0)
        with limiter.admit():
            with pytest.raises(ServiceError) as excinfo:
                with limiter.admit():
                    pass
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 2.0
        snapshot = limiter.snapshot()
        assert snapshot["shed"] == 1
        assert snapshot["peak_inflight"] == 1
        with limiter.admit():  # the slot was released
            pass

    def test_http_sheds_with_retry_after(self, deployment):
        shedding = PredictionService(deployment, max_inflight=0)
        server = make_server(shedding, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            request = urllib.request.Request(
                f"http://{host}:{port}/predict",
                data=json.dumps(
                    _counters_payload(deployment)
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "1"
            assert shedding.metrics_snapshot()["load"]["shed"] == 1
        finally:
            server.shutdown()
            server.server_close()


class TestHttpSatellites:
    def test_unknown_routes_count_in_metrics(self, base_url):
        for path, method in (("/nope", "GET"), ("/nor-this", "POST")):
            request = urllib.request.Request(
                base_url + path, data=b"{}" if method == "POST" else None
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 404
        # A request is counted once its reply is written, so the second
        # 404 may be counted just after a /metrics read: poll for it.
        deadline = time.monotonic() + 30
        while True:
            with urllib.request.urlopen(base_url + "/metrics", timeout=30) as response:
                bucket = json.loads(response.read())["endpoints"].get("404", {})
            if bucket.get("count", 0) >= 2 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert bucket["count"] >= 2
        assert bucket["errors"] >= 2

    def test_truncated_body_is_a_distinct_400(self, server, base_url):
        """A client that dies mid-body gets 'truncated body', not a
        misleading bad-JSON complaint about its half-payload."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /predict HTTP/1.0\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 512\r\n"
                b"\r\n"
                b'{"program": "sha", '  # 19 of the declared 512 bytes
            )
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n", 1)[0]
        assert b"truncated body" in body
        assert b"bad JSON" not in body

    def test_metrics_surface_load_and_batching(self, base_url):
        with urllib.request.urlopen(base_url + "/metrics", timeout=30) as response:
            metrics = json.loads(response.read())
        assert metrics["load"]["max_inflight"] > 0
        assert metrics["batching"]["enabled"] is True

class TestChannelMetrics:
    def test_observe_channel_has_its_own_buckets(self):
        metrics = ServiceMetrics()
        metrics.observe("/predict", 0.001)
        for seconds in (0.001, 0.002, 0.003):
            metrics.observe_channel("fast", seconds)
        metrics.observe_channel("default", 0.004, error=True)
        snapshot = metrics.snapshot()
        assert snapshot["endpoints"]["/predict"]["count"] == 1
        assert set(snapshot["channels"]) == {"fast", "default"}
        fast = snapshot["channels"]["fast"]
        assert fast["count"] == 3 and fast["errors"] == 0
        assert fast["latency_ms"]["p50"] == pytest.approx(2.0)
        assert snapshot["channels"]["default"]["errors"] == 1

    def test_predict_attributes_requests_to_channels(self, deployment):
        svc = PredictionService(deployment, batching=False)
        payload = _counters_payload(deployment)
        svc.predict(dict(payload))  # defaults to the service channel
        svc.predict({**payload, "channel": "fast"})
        svc.predict({"items": [dict(payload)], "channel": "fast"})
        channels = svc.metrics_snapshot()["channels"]
        assert channels[svc.channel]["count"] == 1
        assert channels["fast"]["count"] == 2

    def test_channel_errors_are_attributed(self, deployment):
        svc = PredictionService(deployment, batching=False)
        with pytest.raises(ServiceError):
            svc.predict(
                {**_counters_payload(deployment), "channel": "staging"}
            )
        channels = svc.metrics_snapshot()["channels"]
        assert channels["staging"]["count"] == 1
        assert channels["staging"]["errors"] == 1

    def test_batched_requests_count_toward_channels(self, deployment):
        svc = PredictionService(deployment)  # micro-batcher on
        payload = _counters_payload(deployment)
        svc.predict(dict(payload))
        channels = svc.metrics_snapshot()["channels"]
        assert channels[svc.channel]["count"] == 1
