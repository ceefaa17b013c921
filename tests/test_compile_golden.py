"""Golden pins for the compiler's output on every MiBench program.

Each program is compiled under a fixed list of settings and every field
of every resulting :class:`~repro.compiler.binary.CompiledBinary` —
including ``stall_profile``, ``loops`` and ``stats`` — is folded into one
fingerprint per program, pinned in ``tests/golden/compile_golden.json``.
The settings are -O3, the six settings of the ``build`` benchmark grid
(``sample_many(6, 7)``), and the eight ``fschedule_insns`` ×
``fno_sched_interblock`` × ``fno_sched_spec`` variants of -O3.  The
TINY goldens reach the compiler only through simulated runtimes of a few
programs; this pin fails on any byte of drift in any program.

If a change is *intentional*, regenerate the fixture and commit the diff::

    PYTHONPATH=src:tests python -c "import test_compile_golden as t; t.write_golden()"
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, o3_setting
from repro.compiler.pipeline import Compiler
from repro.programs.mibench import MIBENCH_ORDER, mibench_program

GOLDEN_PATH = Path(__file__).parent / "golden" / "compile_golden.json"


def golden_settings() -> list[FlagSetting]:
    o3 = o3_setting()
    variants = [
        o3.with_values(
            fschedule_insns=schedule,
            fno_sched_interblock=no_interblock,
            fno_sched_spec=no_spec,
        )
        for schedule, no_interblock, no_spec in itertools.product(
            (False, True), repeat=3
        )
    ]
    return [o3, *DEFAULT_SPACE.sample_many(6, 7), *variants]


def _canonical(value):
    """A JSON-ready form of a binary field that loses no bits."""
    if isinstance(value, FlagSetting):
        return list(value.as_indices())
    if dataclasses.is_dataclass(value):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        items = [[_canonical(key), _canonical(item)] for key, item in value.items()]
        return sorted(items, key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return value


def program_fingerprint(name: str) -> str:
    compiler = Compiler(cache=False)
    program = mibench_program(name)
    digest = hashlib.sha256()
    for setting in golden_settings():
        binary = compiler.compile(program, setting)
        digest.update(json.dumps(_canonical(binary), sort_keys=True).encode())
    return digest.hexdigest()[:16]


def write_golden() -> None:
    golden = {name: program_fingerprint(name) for name in MIBENCH_ORDER}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_program(golden):
    assert list(golden) == list(MIBENCH_ORDER)
    assert len(golden) == 35


@pytest.mark.parametrize("name", MIBENCH_ORDER)
def test_compiled_binaries_pinned(name, golden):
    assert program_fingerprint(name) == golden[name]
