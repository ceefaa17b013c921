"""Tests for the versioned model registry: lifecycle, integrity, concurrency."""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.api import ModelRegistry, RegistryError, Session
from repro.machine.xscale import xscale


@pytest.fixture(scope="module")
def fitted_session(tiny_data):
    session = Session("tiny", use_disk_cache=False)
    session.models.fit(tiny_data.training)
    return session


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestLifecycle:
    def test_register_assigns_sequential_versions(self, fitted_session, registry):
        first = fitted_session.models.register(registry=registry)
        second = fitted_session.models.register(registry=registry)
        assert (first.version, second.version) == (1, 2)
        assert registry.versions() == [1, 2]
        # Identical models share a content digest across versions.
        assert first.digest == second.digest
        assert first.fingerprint == fitted_session.models.fingerprint

    def test_nothing_promoted_until_asked(self, fitted_session, registry):
        fitted_session.models.register(registry=registry)
        assert registry.promoted_version() is None
        with pytest.raises(RegistryError, match="no promoted model"):
            registry.load()

    def test_register_with_promote_flips_pointer(self, fitted_session, registry):
        entry = fitted_session.models.register(registry=registry, promote=True)
        assert entry.promoted
        assert registry.promoted_version() == entry.version

    def test_promote_then_rollback(self, fitted_session, registry):
        fitted_session.models.register(registry=registry, promote=True)
        second = fitted_session.models.register(registry=registry, promote=True)
        assert registry.promoted_version() == second.version == 2
        rolled = registry.rollback()
        assert rolled.version == 1
        assert registry.promoted_version() == 1
        with pytest.raises(RegistryError, match="history is empty"):
            registry.rollback()

    def test_promote_unknown_version_rejected(self, registry):
        with pytest.raises(RegistryError, match="no model v0042"):
            registry.promote(42)

    def test_loaded_model_predicts_bit_identically(
        self, fitted_session, registry
    ):
        entry = fitted_session.models.register(registry=registry, promote=True)
        fresh = Session("tiny", use_disk_cache=False)
        loaded = fresh.models.load_registered(registry=registry)
        assert loaded.version == entry.version
        assert fresh.models.fingerprint == fitted_session.models.fingerprint
        machine = xscale()
        original = fitted_session.models.rank("sha", machine, top=3)
        restored = fresh.models.rank("sha", machine, top=3)
        assert original.payload() == restored.payload()

    def test_list_marks_promoted(self, fitted_session, registry):
        fitted_session.models.register(registry=registry)
        fitted_session.models.register(registry=registry, promote=True)
        entries = registry.list()
        assert [entry.promoted for entry in entries] == [False, True]
        assert "*promoted*" in registry.render()

    def test_metadata_carries_scale(self, fitted_session, registry):
        entry = fitted_session.models.register(
            registry=registry, metadata={"note": "pinned"}
        )
        assert entry.metadata["scale"] == "tiny"
        assert entry.metadata["note"] == "pinned"


class TestIntegrity:
    def test_corrupt_model_file_detected(self, fitted_session, registry):
        entry = fitted_session.models.register(registry=registry, promote=True)
        path = registry._model_path(entry.version)
        payload = json.loads(path.read_text())
        payload["model"]["params"]["k"] = 99  # tamper with the weights
        path.write_text(json.dumps(payload))
        with pytest.raises(RegistryError, match="digest mismatch"):
            registry.load()

    def test_foreign_format_rejected(self, fitted_session, registry):
        entry = fitted_session.models.register(registry=registry)
        path = registry._model_path(entry.version)
        payload = json.loads(path.read_text())
        payload["format"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(RegistryError, match="format"):
            registry.load(entry.version)

    def test_malformed_entry_shapes_raise_registry_error(self, fitted_session, registry):
        entry = fitted_session.models.register(registry=registry, promote=True)
        path = registry._model_path(entry.version)
        payload = json.loads(path.read_text())
        del payload["model"]
        for content in ("[]", json.dumps(payload)):
            path.write_text(content)
            with pytest.raises(RegistryError):
                registry.load()

    def test_malformed_pointer_shapes_raise_registry_error(self, fitted_session, registry):
        fitted_session.models.register(registry=registry, promote=True)
        pointer = registry.root / ModelRegistry.PROMOTED_NAME
        for content in (
            "[]",
            '{"format": 1, "current": 1, "history": ["x"]}',
            '{"format": 1, "current": "one", "history": []}',
            '{"format": 1, "channels": {"default": [1]}}',
            '{"format": 1, "channels": []}',
        ):
            pointer.write_text(content)
            with pytest.raises(RegistryError):
                registry.channels()

    def test_registered_files_never_rewritten(self, fitted_session, registry):
        entry = fitted_session.models.register(registry=registry)
        path = registry._model_path(entry.version)
        before = path.read_text()
        fitted_session.models.register(registry=registry)
        assert path.read_text() == before


def _promote_worker(args):
    """Promote one already-registered version from a separate process."""
    registry_root, version = args
    from repro.api import ModelRegistry

    ModelRegistry(registry_root).promote(version)
    return version


def _register_worker(args):
    """Register (and promote) one model from a separate process."""
    registry_root, model_path, worker = args
    from repro.api import ModelRegistry, Session

    session = Session("tiny", use_disk_cache=False)
    session.models.load(model_path)
    registry = ModelRegistry(registry_root)
    entry = session.models.register(
        registry=registry, metadata={"worker": worker}, promote=True
    )
    return entry.version


class TestConcurrentAccess:
    """Two sessions against one registry dir must never corrupt anything.

    Mirrors the experiment store's append-only guarantees: every
    registration lands under a unique version, every file stays
    digest-valid, and the promotion pointer is always readable.
    """

    N_WORKERS = 8

    def test_concurrent_register_and_promote(
        self, fitted_session, tmp_path
    ):
        model_path = tmp_path / "model.json"
        fitted_session.models.save(model_path)
        registry_root = tmp_path / "registry"
        with multiprocessing.get_context("spawn").Pool(4) as pool:
            versions = pool.map(
                _register_worker,
                [
                    (str(registry_root), str(model_path), worker)
                    for worker in range(self.N_WORKERS)
                ],
            )
        # Every worker got its own version; none were lost or duplicated.
        assert sorted(versions) == list(range(1, self.N_WORKERS + 1))
        registry = ModelRegistry(registry_root)
        assert registry.versions() == sorted(versions)
        # No temp-file debris and no torn writes: every entry verifies.
        entries = registry.list()
        assert len(entries) == self.N_WORKERS
        assert not list(Path(registry_root).rglob("*.tmp"))
        # The promotion pointer is valid JSON pointing at a real version,
        # whoever won the promote race.
        promoted = registry.promoted_version()
        assert promoted in versions
        predictor, entry = registry.load()
        assert entry.version == promoted
        assert predictor.is_fitted

    def test_concurrent_promotions_lose_no_history(
        self, fitted_session, tmp_path
    ):
        """N concurrent promotes serialise: every version ends up either
        current or in the rollback history — none vanish."""
        registry = ModelRegistry(tmp_path / "registry")
        versions = [
            fitted_session.models.register(registry=registry).version
            for _ in range(6)
        ]
        with multiprocessing.get_context("spawn").Pool(3) as pool:
            pool.map(
                _promote_worker,
                [(str(registry.root), version) for version in versions],
            )
        state = json.loads((registry.root / "promoted.json").read_text())
        assert state["current"] in versions
        assert len(state["history"]) == len(versions) - 1
        assert sorted(state["history"] + [state["current"]]) == versions

    def test_interleaved_promote_rollback_stays_consistent(
        self, fitted_session, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        versions = [
            fitted_session.models.register(registry=registry).version
            for _ in range(3)
        ]
        registry.promote(versions[0])
        registry.promote(versions[1])
        registry.promote(versions[2])
        assert registry.promoted_version() == versions[2]
        assert registry.rollback().version == versions[1]
        assert registry.rollback().version == versions[0]
        # The pointer file survived every flip as valid JSON.
        state = json.loads((registry.root / "promoted.json").read_text())
        assert state["current"] == versions[0]
        assert state["history"] == []
