"""Tests for the prediction service: endpoints, HTTP layer, job streaming."""

from __future__ import annotations

import dataclasses
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.machine.xscale import xscale
from repro.service import (
    PredictionService,
    ServiceError,
    canonical_json,
    make_server,
)
from repro.sim.counters import COUNTER_NAMES


@pytest.fixture(scope="module")
def deployment(tmp_path_factory, tiny_data):
    """A tiny-trained, promoted registry plus the session serving it."""
    cache = tmp_path_factory.mktemp("service-cache")
    trainer = Session("tiny", cache_dir=cache)
    trainer.models.fit(tiny_data.training)
    trainer.models.register(promote=True)
    return Session("tiny", cache_dir=cache, use_disk_cache=False)


@pytest.fixture(scope="module")
def service(deployment):
    return PredictionService(deployment)


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


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode()


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, response.read().decode()


class TestServiceCore:
    def test_health_names_the_promoted_model(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["model"]["version"] == 1
        assert health["model"]["fingerprint"] is not None

    def test_predict_needs_program_or_counters(self, service):
        with pytest.raises(ServiceError, match="'program' or 'counters'"):
            service.predict({"machine": dataclasses.asdict(xscale())})

    def test_predict_unknown_program_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.predict(
                {"program": "nope", "machine": dataclasses.asdict(xscale())}
            )
        assert excinfo.value.status == 404

    def test_predict_bad_machine_is_400(self, service):
        with pytest.raises(ServiceError, match="bad machine"):
            service.predict({"program": "sha", "machine": {"bogus_field": 1}})

    def test_predict_caps_top(self, service):
        """'top' is bounded: the flag space is ~4e14 settings, so an
        uncapped request could enumerate effectively forever."""
        machine = dataclasses.asdict(xscale())
        for bad in (0, -1, 10**9, "5"):
            with pytest.raises(ServiceError, match="'top' must be"):
                service.predict(
                    {"program": "sha", "machine": machine, "top": bad}
                )

    def test_predict_from_counters_matches_program_flow(self, service, deployment):
        machine = xscale()
        by_program = service.predict(
            {"program": "sha", "machine": dataclasses.asdict(machine), "top": 3}
        )
        profile = deployment.eval.evaluate("sha", machine)
        by_counters = service.predict(
            {
                "counters": dict(zip(COUNTER_NAMES, profile.counters.vector())),
                "machine": dataclasses.asdict(machine),
                "top": 3,
                "program": "sha",
            }
        )
        assert by_program["settings"] == by_counters["settings"]

    def test_no_promoted_model_is_503(self, tmp_path):
        bare = PredictionService(
            Session("tiny", cache_dir=tmp_path, use_disk_cache=False)
        )
        with pytest.raises(ServiceError) as excinfo:
            bare.predict({"program": "sha", "machine": dataclasses.asdict(xscale())})
        assert excinfo.value.status == 503

    def test_evaluate_round_trips_a_setting(self, service, deployment):
        machine = xscale()
        predicted = service.predict(
            {"program": "sha", "machine": dataclasses.asdict(machine), "top": 1}
        )
        indices = predicted["settings"][0]["indices"]
        evaluated = service.evaluate(
            {
                "program": "sha",
                "machine": dataclasses.asdict(machine),
                "setting": {"indices": indices},
            }
        )
        assert evaluated["runtime_seconds"] > 0
        assert set(evaluated["counters"]) == set(COUNTER_NAMES)

    @pytest.mark.parametrize("bad", [-1, 2, 1.5], ids=repr)
    def test_evaluate_rejects_bad_indices_with_400(self, service, bad):
        machine = dataclasses.asdict(xscale())
        for setting in ({"indices": [bad] * 39}, [bad] * 39):
            with pytest.raises(ServiceError, match="bad setting") as excinfo:
                service.evaluate(
                    {"program": "sha", "machine": machine, "setting": setting}
                )
            assert excinfo.value.status == 400

    def test_promotion_takes_effect_without_restart(self, service, deployment):
        machine = dataclasses.asdict(xscale())
        before = service.predict({"program": "sha", "machine": machine})
        registry = service.registry
        # Register a deliberately different model (k=1) and promote it.
        trainer = Session("tiny", use_disk_cache=False)
        trainer.models.fit(k=1)
        second = trainer.models.register(registry=registry, promote=True)
        after = service.predict({"program": "sha", "machine": machine})
        assert after["model"]["version"] == second.version
        assert after["model"]["digest"] != before["model"]["digest"]
        registry.rollback()
        rolled = service.predict({"program": "sha", "machine": machine})
        assert rolled["model"] == before["model"]
        assert rolled["settings"] == before["settings"]


class TestHttpLayer:
    def test_healthz(self, base_url):
        status, body = _get(base_url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_unknown_route_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base_url + "/nope")
        assert excinfo.value.code == 404

    def test_bad_json_body_is_400(self, base_url):
        request = urllib.request.Request(
            base_url + "/predict", data=b"not json {"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def _raw_post(self, base_url: str, content_length: str, body: bytes = b""):
        """POST /predict with an explicit (possibly malformed) Content-Length
        — urllib would refuse to send one, so drop to http.client."""
        import http.client
        from urllib.parse import urlsplit

        host = urlsplit(base_url).netloc
        connection = http.client.HTTPConnection(host, timeout=30)
        try:
            connection.putrequest("POST", "/predict")
            connection.putheader("Content-Length", content_length)
            connection.endheaders()
            if body:
                connection.send(body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize("header", ["banana", "12abc", "1.5", "-5"])
    def test_malformed_content_length_is_400(self, base_url, header):
        """Regression: a non-integer or negative Content-Length used to
        escape as ValueError and surface as a 500 internal error."""
        status, body = self._raw_post(base_url, header)
        assert status == 400
        assert b"bad Content-Length" in body

    def test_oversized_content_length_is_413(self, base_url):
        from repro.service.server import MAX_BODY_BYTES

        status, body = self._raw_post(base_url, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert b"too large" in body

    def test_empty_content_length_still_means_no_body(self, base_url):
        """The pre-fix behaviour for an absent/empty header is preserved:
        an empty body parses as {} and fails validation, not framing."""
        status, body = self._raw_post(base_url, "")
        assert status == 400
        assert b"Content-Length" not in body

    def test_predict_http_is_bit_identical_to_facet(
        self, base_url, deployment
    ):
        """The ISSUE acceptance check: POST /predict == in-process facet."""
        machine = deployment.machines(1, seed=99)[0]
        payload = {
            "program": "sha",
            "machine": dataclasses.asdict(machine),
            "top": 5,
        }
        status, body = _post(base_url + "/predict", payload)
        assert status == 200

        # Rebuild the exact expected bytes from a *fresh* session loading
        # the same promoted registry model through the facets.
        fresh = Session("tiny", use_disk_cache=False)
        entry = fresh.models.load_registered(
            registry=deployment.models.registry()
        )
        ranked = fresh.models.rank("sha", machine, top=5)
        expected = canonical_json(
            {
                "model": {
                    "version": entry.version,
                    "digest": entry.digest,
                    "fingerprint": entry.fingerprint,
                },
                **ranked.payload(),
            }
        )
        assert body == expected
        # And rank 1 is what models.predict would deploy.
        predicted = fresh.models.predict("sha", machine, evaluate=False)
        assert json.loads(body)["settings"][0]["indices"] == list(
            predicted.setting.as_indices()
        )

    def test_metrics_accumulate(self, base_url):
        _get(base_url + "/healthz")
        status, body = _get(base_url + "/metrics")
        assert status == 200
        metrics = json.loads(body)
        health = metrics["endpoints"]["/healthz"]
        assert health["count"] >= 1
        latency = health["latency_ms"]
        assert 0 <= latency["p50"] <= latency["p90"] <= latency["p99"] <= latency["max"]

    def test_job_streams_fold_events_before_completion(self, base_url):
        """The ISSUE acceptance check: a capped run_protocol job streams
        >= 1 fold-completion event over /jobs/<id>/events before it ends."""
        status, body = _post(
            base_url + "/jobs",
            {"scale": "tiny", "only": "headline", "max_folds": 2},
        )
        assert status == 202
        job = json.loads(body)
        assert job["state"] in ("queued", "running")

        events = []
        with urllib.request.urlopen(
            f"{base_url}/jobs/{job['id']}/events", timeout=300
        ) as stream:
            for line in stream:
                events.append(json.loads(line))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "started"
        assert kinds[-1] == "complete"
        folds = [event for event in events if event["event"] == "fold"]
        assert len(folds) >= 1  # streamed before the job finished
        assert folds[0]["completed"] >= 1
        assert folds[0]["total"] > 0
        assert "--" in folds[0]["fold"]  # variant--program stem

        # A late joiner replays the full history from the job snapshot.
        status, body = _get(f"{base_url}/jobs/{job['id']}")
        snapshot = json.loads(body)
        assert snapshot["state"] == "done"
        assert snapshot["events"] == len(events)

    def test_finished_jobs_are_pruned_beyond_cap(self):
        """A long-running server must not hoard every finished job's
        event log; only the newest KEEP_FINISHED terminal jobs survive."""
        from repro.service.jobs import JobManager

        manager = JobManager(lambda job: {})
        manager.KEEP_FINISHED = 3
        jobs = [manager.submit({"n": n}) for n in range(6)]
        for job in jobs:
            for _ in job.events(timeout=30):
                pass
        # One more submission triggers the prune of the oldest finished.
        manager.submit({"n": 99})
        retained = {snapshot["id"] for snapshot in manager.list()}
        assert jobs[0].id not in retained
        assert jobs[-1].id in retained
        assert len(retained) <= manager.KEEP_FINISHED + 1  # + the live one

    def test_job_listing_and_missing_job(self, base_url):
        status, body = _get(base_url + "/jobs")
        assert status == 200
        assert isinstance(json.loads(body)["jobs"], list)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base_url + "/jobs/job-9999/events")
        assert excinfo.value.code == 404


class TestBatchPredict:
    """The ``items`` form of /predict: many queries, one vectorised pass."""

    def test_batch_items_match_single_requests_bit_for_bit(self, service):
        machines = [
            dataclasses.asdict(m)
            for m in Session("tiny", use_disk_cache=False).machines(2, seed=77)
        ]
        items = [
            {"program": "sha", "machine": machines[0], "top": 3},
            {"program": "crc", "machine": machines[1], "top": 2},
            {"program": "sha", "machine": machines[1], "top": 3},
        ]
        batch = service.predict({"items": items})
        singles = [service.predict(item) for item in items]
        assert len(batch["results"]) == len(items)
        for got, single in zip(batch["results"], singles):
            want = {key: value for key, value in single.items() if key != "model"}
            assert canonical_json(got) == canonical_json(want)
        assert batch["model"] == singles[0]["model"]

    def test_batch_mixes_counters_and_program_items(self, service, deployment):
        machine = xscale()
        profile = deployment.eval.evaluate("sha", machine)
        items = [
            {
                "counters": dict(zip(COUNTER_NAMES, profile.counters.vector())),
                "machine": dataclasses.asdict(machine),
                "top": 3,
                "program": "sha",
            },
            {"program": "sha", "machine": dataclasses.asdict(machine), "top": 3},
        ]
        batch = service.predict({"items": items})
        assert batch["results"][0]["settings"] == batch["results"][1]["settings"]
        assert batch["results"][0]["program"] == "sha"

    def test_batch_default_top_and_per_item_override(self, service):
        machine = dataclasses.asdict(xscale())
        batch = service.predict(
            {
                "top": 2,
                "items": [
                    {"program": "sha", "machine": machine},
                    {"program": "sha", "machine": machine, "top": 4},
                ],
            }
        )
        assert len(batch["results"][0]["settings"]) == 2
        assert len(batch["results"][1]["settings"]) == 4

    def test_batch_item_errors_name_the_item(self, service):
        machine = dataclasses.asdict(xscale())
        with pytest.raises(ServiceError, match=r"items\[1\]"):
            service.predict(
                {
                    "items": [
                        {"program": "sha", "machine": machine},
                        {"machine": machine},
                    ]
                }
            )
        with pytest.raises(ServiceError, match=r"items\[0\].*unknown program") as exc:
            service.predict({"items": [{"program": "nope", "machine": machine}]})
        assert exc.value.status == 404

    def test_batch_rejects_bad_shapes(self, service):
        with pytest.raises(ServiceError, match="non-empty array"):
            service.predict({"items": []})
        with pytest.raises(ServiceError, match="non-empty array"):
            service.predict({"items": "sha"})
        from repro.service.service import MAX_BATCH_ITEMS

        machine = dataclasses.asdict(xscale())
        too_many = [{"program": "sha", "machine": machine}] * (MAX_BATCH_ITEMS + 1)
        with pytest.raises(ServiceError, match="batch too large"):
            service.predict({"items": too_many})

    def test_batch_over_http_matches_in_process(self, base_url, service):
        machine = dataclasses.asdict(xscale())
        payload = {
            "items": [
                {"program": "sha", "machine": machine, "top": 2},
                {"program": "crc", "machine": machine, "top": 2},
            ]
        }
        status, body = _post(base_url + "/predict", payload)
        assert status == 200
        assert body == canonical_json(service.predict(payload))
