"""Golden-regression pins: silent model drift must fail CI.

The smoke-scale (TINY) training set's content fingerprint, the
headline best-vs-O3 speedup and the sha256 of the fitted default model's
canonical JSON state are pinned to the committed fixture
``tests/golden/tiny_golden.json``.  Every layer feeds these two numbers —
program specs, every compiler pass, the analytic simulator, the machine
and flag samplers, and the store/assembly path — so an unintended change
anywhere shows up here even when all behavioural tests still pass.

If a change is *intentional*, regenerate the fixture and commit the diff::

    PYTHONPATH=src python - <<'EOF'
    import hashlib, json
    from repro.api import Session
    from repro.core.predictor import OptimisationPredictor
    from repro.experiments.config import TINY
    from repro.experiments.dataset import load_or_build
    from repro.experiments.tables import headline

    data = load_or_build(TINY, use_disk_cache=False)
    run = Session("tiny", use_disk_cache=False).protocol.run(only="headline")
    result = headline(data, run.report.protocol.base)
    state = OptimisationPredictor().fit(data.training).get_state()
    print(json.dumps({
        "scale": "tiny",
        "training_fingerprint": data.training.fingerprint(),
        "headline_mean_best_speedup": result.mean_best_speedup,
        "headline_mean_model_speedup": result.mean_model_speedup,
        "model_state_sha": hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()
        ).hexdigest(),
    }, indent=2))
    EOF
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.predictor import OptimisationPredictor
from repro.experiments.tables import headline

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenRegression:
    def test_training_set_fingerprint_pinned(self, tiny_data, golden):
        """The content digest covers programs, machines, settings, and
        every measured runtime bit-for-bit."""
        assert tiny_data.training.fingerprint() == golden["training_fingerprint"]

    def test_headline_best_speedup_pinned(self, tiny_data, tiny_protocol, golden):
        result = headline(tiny_data, tiny_protocol.report.protocol.base)
        assert result.mean_best_speedup == pytest.approx(
            golden["headline_mean_best_speedup"], rel=1e-12
        )
        assert result.mean_model_speedup == pytest.approx(
            golden["headline_mean_model_speedup"], rel=1e-12
        )

    def test_fitted_model_state_pinned(self, tiny_data, golden):
        """Every θ bit of every training pair, the normaliser and the
        feature mask, as the registry serialises them."""
        state = OptimisationPredictor().fit(tiny_data.training).get_state()
        digest = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()
        ).hexdigest()
        assert digest == golden["model_state_sha"]

    def test_golden_fixture_is_committed_and_sane(self, golden):
        assert golden["scale"] == "tiny"
        assert len(golden["training_fingerprint"]) == 16
        # Best-over-O3 is a maximum over settings that include -O3-like
        # points, so it can never be a slowdown.
        assert golden["headline_mean_best_speedup"] >= 1.0
