"""Server launcher for the ``serve`` workload.

Starts the prediction service the way ``repro-experiments serve`` does
(a session, the registry's promoted model loaded at start-up, a
``ThreadingHTTPServer`` from ``repro.service.make_server``), timing its
set-up stages with host probes between them.  In traced mode the layer
wrappers are installed here, before the server exists.

Protocol: one JSON line on stdout when ready (port, set-up segments,
probes); then commands on stdin, one per line:

* ``probe`` — run the host probe here and answer its ``[start, end,
  seconds]`` (sent only while no request is in flight; the client
  probes after the answer, as both processes share one CPU);
* ``trace`` — start recording spans (the traced rounds begin);
* ``stats`` — answer one JSON line: peak RSS, batcher and limiter
  snapshots, and the recorded spans;
* ``quit`` (or end of input) — stop the server and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--registry", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    from host import HostClock, probe
    from report import peak_rss_mb
    from spans import SpanRecorder, install
    from workloads import Stages

    clock = HostClock()
    stages = Stages(clock, args.spawned_at)
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.api import Session
    from repro.api.registry import ModelRegistry
    from repro.service import PredictionService, make_server

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
        recorder.enabled = True
    stages.mark()  # imports

    session = Session("tiny", use_disk_cache=False)
    service = PredictionService(session, registry=ModelRegistry(args.registry))
    if service.model_info() is None:  # loads the promoted model now
        print("no promoted model in the registry", file=sys.stderr)
        return 1
    stages.mark()  # session, service, promoted model loaded
    server = make_server(service, port=0)
    if recorder is not None:
        _tag_requests(server, recorder)
    stages.mark()  # socket bound
    if recorder is not None:
        recorder.enabled = False

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({
        "port": server.server_address[1],
        "segments": stages.segments,
        "probes": clock.records(),
    }), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace" and recorder is not None:
                recorder.phase = "round"
                recorder.enabled = True
            elif command == "probe":
                start = time.perf_counter()
                seconds = probe()
                print(json.dumps([start, time.perf_counter(), seconds]), flush=True)
            elif command == "stats":
                print(json.dumps({
                    "rss_mb": peak_rss_mb(),
                    "batching": service.metrics_snapshot()["batching"],
                    "load": service.limiter.snapshot(),
                    "spans": recorder.export() if recorder is not None else None,
                }), flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


def _tag_requests(server, recorder) -> None:
    """Record the server's whole handling of each connection (reading the
    request, answering it, closing) as a top-level ``service.http`` span
    with the layer spans inside it, tagged with the client's request id
    once the headers are read.  A request's coverage is then the server's
    share of its client latency."""
    from spans import wrap

    server.finish_request = wrap(recorder, server.finish_request, "service.http")
    handler = server.RequestHandlerClass
    do_post = handler.do_POST

    def tagged(self):
        recorder.tag_request(self.headers.get("X-Request-Id"))
        do_post(self)

    handler.do_POST = tagged


if __name__ == "__main__":
    sys.exit(main())
