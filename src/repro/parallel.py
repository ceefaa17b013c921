"""Executor strategies for embarrassingly parallel batches.

Compile-and-simulate of independent (program, setting, machine) triples
has no shared state, so a batch can run serially or on a process pool.
Everything here guarantees *order preservation and result equality*:
whichever strategy runs, item ``i`` of the output is the result of item
``i`` of the input, computed by the same deterministic function — so
parallel output is bit-identical to serial output.

Process workers must be able to pickle the work function and its items;
callers pass a module-level function for that reason.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Recognised executor strategies.
EXECUTORS = ("auto", "serial", "process")

#: The lease-coordinated distributed strategy of :mod:`repro.cluster`.
#: Not a batch strategy: a cluster run claims units through the shared
#: lease table instead of fanning a fixed batch over a pool, so only the
#: store runner and protocol pipeline accept it — the plain batch
#: helpers below do not.
CLUSTER = "cluster"

#: Executor names the runner/pipeline layers accept.
RUNNER_EXECUTORS = EXECUTORS + (CLUSTER,)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` knob: None/0 → 1, negative → all cores."""
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return os.cpu_count() or 1
    return int(jobs)


def resolve_strategy(
    jobs: int | None, executor: str, n_items: int | None = None
) -> tuple[int, str]:
    """Validate an executor name and resolve the effective strategy.

    The single home of the ``auto`` policy (process when more than one
    worker, else serial) and of the worker-count clamp.  Returns
    ``(workers, executor)``; ``executor`` is ``"process"`` only when
    ``workers > 1``, and ``"serial"`` otherwise.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )
    workers = resolve_jobs(jobs)
    if n_items is not None:
        workers = min(workers, max(n_items, 1))
    if executor == "auto" or workers <= 1:
        executor = "process" if workers > 1 else "serial"
    return workers, executor


def run_batch(
    function: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    jobs: int | None = 1,
    executor: str = "auto",
) -> list[R]:
    """Apply ``function`` to every item, preserving order.

    The order-restoring view of :func:`run_batch_completed`.

    Args:
        function: deterministic per-item work; must be picklable (a
            module-level function) for the process strategy.
        items: the work items.
        jobs: worker count; 1 (or None/0) forces serial, negative uses
            every core.
        executor: ``serial``, ``process``, or ``auto`` (process when
            ``jobs > 1``, else serial).
    """
    items = list(items)
    results: list = [None] * len(items)
    for index, result in run_batch_completed(function, items, jobs, executor):
        results[index] = result
    return results


def run_batch_completed(
    function: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    jobs: int | None = 1,
    executor: str = "auto",
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> Iterator[tuple[int, R]]:
    """Apply ``function`` to every item, yielding ``(index, result)`` pairs
    as each one finishes.

    Unlike :func:`run_batch`, results arrive in *completion* order, so a
    caller that checkpoints each result (e.g. :func:`repro.cluster.drain`)
    never holds more than the in-flight items un-persisted.  The
    item/function contract is the same as :func:`run_batch`; item ``i``'s
    result is always paired with index ``i``, whatever order it arrives.

    ``initializer(*initargs)`` runs once per pool worker before any item,
    the standard way to ship one large shared payload (e.g. a training
    matrix) to process workers instead of pickling it into every item.
    It is called once inline for the serial path, so worker-state set-up
    behaves identically across strategies.
    """
    items = list(items)
    workers, executor = resolve_strategy(jobs, executor, len(items))
    if executor == "serial":
        if initializer is not None:
            initializer(*initargs)
        for index, item in enumerate(items):
            yield index, function(item)
        return
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    )
    try:
        futures = {
            pool.submit(function, item): index
            for index, item in enumerate(items)
        }
        for future in as_completed(futures):
            yield futures[future], future.result()
    finally:
        # On failure (or the consumer closing the generator) drop every
        # not-yet-started item instead of computing results nobody will
        # consume; only genuinely in-flight work is waited for.
        pool.shutdown(wait=True, cancel_futures=True)
