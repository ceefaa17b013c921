"""Shared fixtures for the reproduction benches.

Every bench uses the same (disk-cached) dataset at the scale chosen by
``REPRO_BENCH_SCALE`` (default ``quick``; use ``default`` for all 35
programs or ``paper`` for the full §4 protocol).  The leave-one-out
benches read the paper protocol's checkpointed folds from the same
cache, so ``repro-experiments report`` and the benches share them.
Results print with ``pytest benchmarks/ --benchmark-only -s``.
"""

import os

import pytest

from repro.api import Session
from repro.experiments import load_or_build, preset


def bench_scale():
    return preset(os.environ.get("REPRO_BENCH_SCALE", "quick"))


@pytest.fixture(scope="session")
def data():
    scale = bench_scale()
    return load_or_build(scale)


@pytest.fixture(scope="session")
def extended_data():
    scale = bench_scale().with_extended()
    return load_or_build(scale)


def run_protocol(scale, only=None):
    """The scale's paper protocol (resumed from the disk-cached fold
    store) as a :class:`~repro.evalrun.pipeline.ProtocolResult`."""
    return Session(scale).protocol.run(only=only).report.protocol


@pytest.fixture(scope="session")
def protocol(data):
    """Every variant's leave-one-out folds at the bench scale."""
    return run_protocol(data.scale)


@pytest.fixture(scope="session")
def extended_protocol(extended_data):
    """The paper model's folds on the extended machine space."""
    return run_protocol(extended_data.scale, only="fig6")


def emit(result) -> None:
    """Print a rendered experiment result beneath the bench output."""
    print()
    print(result.render())
