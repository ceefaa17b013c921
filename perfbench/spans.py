"""Span recorder for the traced run, and the layer wrappers that feed it.

Tracing wraps the public functions of each ``repro`` layer from outside
the package (``src/`` is never edited).  A span records its name, start,
end, parent span and request id; counters are recorded at the same
boundaries.  Everything stays in memory until the run ends.

The wrappers are installed only in traced mode, and record only while
``SpanRecorder.enabled`` is set, so untraced rounds of a traced run
measure the tracing overhead against the same process.
"""

from __future__ import annotations

import bisect
import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

#: Span names whose time counts as compile or simulate work inside an
#: autotuning strategy (subtracted to get ``autotune.strategy_self.ms``).
_PRICING_LAYERS = ("compiler.", "sim.")


class SpanRecorder:
    """In-memory spans and counters, grouped by phase (``setup``/``round``)."""

    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        #: [name, start, end, parent index, request id, phase]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tag_request(self, request_id: str) -> None:
        """Set this thread's request id, on the spans open in it too."""
        self._local.request = request_id
        for index in self._stack():
            self.spans[index][4] = request_id

    def open(self, name: str) -> int:
        stack = self._stack()
        record = [
            name,
            time.perf_counter(),
            None,
            stack[-1] if stack else None,
            getattr(self._local, "request", None),
            self.phase,
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def parent_name(self, index: int) -> str | None:
        parent = self.spans[index][3]
        return None if parent is None else self.spans[parent][0]

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += value

    # ------------------------------------------------------------- export
    def export(self) -> dict:
        return {
            "spans": [span for span in self.spans if span[2] is not None],
            "counts": [[p, n, v] for (p, n), v in self.counts.items()],
        }

    def merge(self, exported: dict) -> None:
        """Add spans/counts recorded in another process (same clock)."""
        offset = len(self.spans)
        for name, start, end, parent, request, phase in exported["spans"]:
            self.spans.append(
                [name, start, end,
                 None if parent is None else parent + offset, request, phase]
            )
        for phase, name, value in exported["counts"]:
            self.counts[(phase, name)] += value


def wrap(
    recorder: SpanRecorder,
    function: Callable,
    name: str,
    counts: Callable | None = None,
) -> Callable:
    """A span-recording wrapper; ``counts(span, args, kwargs, result)``
    may add counters when the call returns."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if counts is not None:
            counts(span, args, kwargs, result)
        return result

    return wrapper


def _patch_method(recorder, cls, attribute, name, counts=None) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute, classmethod(wrap(recorder, raw.__func__, name, counts)))
    else:
        setattr(cls, attribute, wrap(recorder, raw, name, counts))


def _patch_function(recorder, function, name, counts=None) -> None:
    """Replace ``function`` in every loaded ``repro`` module that holds it."""
    wrapper = wrap(recorder, function, name, counts)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                setattr(module, attribute, wrapper)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every traced ``repro`` layer."""
    import repro.api.facets  # noqa: F401 - loads the modules patched below
    import repro.autotune.tournament  # noqa: F401
    import repro.evalrun.pipeline  # noqa: F401
    import repro.service.service  # noqa: F401
    from repro import ioutil
    from repro.api.registry import ModelRegistry
    from repro.autotune import core as autotune_core
    from repro.autotune.scorer import BatchScorer
    from repro.compiler import binary as compiler_binary
    from repro.compiler.ir import Program
    from repro.compiler.passes.base import Pass
    from repro.compiler.pipeline import Compiler, default_pass_order
    from repro.core.distribution import IIDDistribution
    from repro.core.predictor import OptimisationPredictor
    from repro.evalrun import pipeline as evalrun_pipeline
    from repro.evalrun import report as evalrun_report
    from repro.evalrun.foldstore import FoldStore
    from repro.evalrun.oracle import RuntimeOracle
    from repro.programs import generator
    from repro.service.service import PredictionService
    from repro.sim import analytic, vector
    from repro.store.store import ExperimentStore

    def count(name, value_of=lambda *a: 1):
        def counts(span, args, kwargs, result):
            recorder.count(name, value_of(args, kwargs, result))
        return counts

    _patch_function(recorder, generator.build_program, "programs.build_program")

    _patch_method(recorder, Compiler, "compile", "compiler.compile")
    _patch_method(recorder, Program, "clone", "compiler.clone")
    _patch_function(recorder, compiler_binary.finalize, "compiler.finalize")
    # Every pass inherits Pass.apply; each class gets its own wrapper.
    apply = Pass.__dict__["apply"]
    for optimisation in default_pass_order():
        cls = type(optimisation)
        setattr(cls, "apply", wrap(recorder, apply, f"compiler.pass.{cls.__name__}"))

    _patch_method(recorder, vector.BinarySignature, "from_binary", "sim.signature")
    _patch_method(recorder, vector.MachineMatrix, "from_machines", "sim.machine_matrix")
    _patch_function(
        recorder, vector.simulate_many, "sim.simulate_many",
        count("sim.simulate_many.cells",
              lambda args, kwargs, result: len(args[0]) * len(args[1])),
    )
    _patch_function(recorder, analytic.simulate_analytic, "sim.simulate_analytic")

    def shard_bytes(span, args, kwargs, result):
        size = len(args[1])
        recorder.count("ioutil.atomic_write.bytes", size)
        if recorder.parent_name(span) == "store.write_shard":
            recorder.count("store.write_shard.bytes", size)

    _patch_method(recorder, ExperimentStore, "write_shard", "store.write_shard")
    _patch_method(recorder, ExperimentStore, "read_shard", "store.read_shard")
    _patch_method(recorder, ExperimentStore, "assemble", "store.assemble")
    _patch_function(recorder, ioutil.atomic_write_bytes, "ioutil.atomic_write", shard_bytes)

    _patch_method(recorder, OptimisationPredictor, "fit", "core.fit")
    _patch_method(
        recorder, OptimisationPredictor, "predict_distribution_many", "core.predict_many",
        count("core.predict_many.queries", lambda args, kwargs, result: len(result)),
    )
    _patch_method(recorder, IIDDistribution, "top_settings", "core.top_settings")

    _patch_function(recorder, evalrun_pipeline.compute_fold, "evalrun.compute_fold")
    _patch_method(recorder, FoldStore, "write_fold", "evalrun.write_fold")
    _patch_function(recorder, evalrun_report.render_report, "evalrun.render_report")
    _install_oracle_counters(recorder, RuntimeOracle)

    def trace_counts(span, args, kwargs, result):
        recorder.count("autotune.evaluations", result.evaluations)
        recorder.count("autotune.simulations", result.simulations)

    _patch_function(recorder, autotune_core.run_traced, "autotune.strategy", trace_counts)
    _patch_method(recorder, BatchScorer, "score", "autotune.score")

    _patch_method(recorder, PredictionService, "predict", "service.predict")
    _patch_method(recorder, ModelRegistry, "load", "api.registry_load")


def _install_oracle_counters(recorder: SpanRecorder, oracle_cls) -> None:
    """Count oracle lookups, store hits and fallback simulations.

    The oracle keeps its own hit/simulation counters; the wrappers add
    the deltas each call produced."""
    for attribute, lookups in (
        ("runtime", lambda args: 1),
        ("runtime_many", lambda args: len(args[2])),
    ):
        function = oracle_cls.__dict__[attribute]

        def make(function=function, lookups=lookups):
            @functools.wraps(function)
            def wrapper(self, *args, **kwargs):
                if not recorder.enabled:
                    return function(self, *args, **kwargs)
                hits, sims = self.store_hits, self.simulation_calls
                span = recorder.open("evalrun.oracle")
                try:
                    result = function(self, *args, **kwargs)
                finally:
                    recorder.close(span)
                recorder.count("evalrun.oracle.calls", lookups((self, *args)))
                recorder.count("evalrun.oracle.store_hits", self.store_hits - hits)
                recorder.count(
                    "evalrun.oracle.fallback_simulations",
                    self.simulation_calls - sims,
                )
                return result
            return wrapper

        setattr(oracle_cls, attribute, make())


# ------------------------------------------------------------------ summary
def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def coverage(
    spans: list[list], ops: Iterable[tuple[float, float, str | None]]
) -> float:
    """Share of the operations' wall time covered by top-level spans.

    An operation with a request id is covered only by spans of that
    request; one without by any top-level span inside it."""
    top = sorted(
        (start, end, request)
        for _, start, end, parent, request, _ in spans
        if parent is None
    )
    by_request: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for start, end, request in top:
        if request is not None:
            by_request[request].append((start, end))
    starts = [start for start, _, _ in top]

    total = covered = 0.0
    for op_start, op_end, request in ops:
        total += op_end - op_start
        if request is not None:
            candidates = by_request.get(request, [])
        else:
            first = max(0, bisect.bisect_left(starts, op_start) - 1)
            last = bisect.bisect_right(starts, op_end)
            candidates = [(s, e) for s, e, _ in top[first:last]]
        # Union of the covering spans, clipped to the operation.
        reach = op_start
        for start, end in sorted(candidates):
            start, end = max(start, reach), min(end, op_end)
            if end > start:
                covered += end - start
                reach = end
    return covered / total if total > 0 else 0.0


def strategy_self(spans: list[list]) -> list[tuple[float, float, str]]:
    """``(start, seconds, phase)`` per strategy run: its time minus the
    compile and simulate spans inside it."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)

    def pricing(index: int) -> float:
        total = 0.0
        for child in children.get(index, ()):
            name, start, end = spans[child][:3]
            if name.startswith(_PRICING_LAYERS):
                total += end - start
            else:
                total += pricing(child)
        return total

    return [
        (start, (end - start) - pricing(index), phase)
        for index, (name, start, end, _, _, phase) in enumerate(spans)
        if name == "autotune.strategy"
    ]
