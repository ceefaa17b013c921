"""The one compile-and-price path: :class:`repro.search.evaluator.Pricer`.

* a pricer compiles each distinct canonical setting once per call, runs
  each distinct (setting, machine) pair once, and its ``seconds`` memo
  never runs a pair twice;
* every consumer that compiles and prices outside shard builds — the
  search evaluator, ``session.eval``, ``models.predict(evaluate=True)``,
  Figure 1, Table 1 and the protocol's fold path — rejects a binary its
  compiler swapped.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Session
from repro.compiler.flags import DEFAULT_SPACE, o3_setting
from repro.compiler.pipeline import Compiler
from repro.evalrun import RuntimeOracle, protocol_variants
from repro.evalrun.pipeline import compute_fold
from repro.experiments.figures import figure1
from repro.experiments.tables import table1
from repro.machine.xscale import xscale, xscale_small_icache
from repro.programs import mibench_program
from repro.search.evaluator import Evaluator, OracleError, Pricer
from repro.sim.analytic import simulate_analytic


class _SwappingCompiler(Compiler):
    """Hands back another program's binary, or one compiled under other
    flags, from the batch entry every compile goes through."""

    def __init__(self, swap: str):
        super().__init__(cache=False)
        self.swap = swap

    def compile_many(self, program, settings):
        if self.swap == "program":
            other = mibench_program("sha" if program.name == "crc" else "crc")
            return super().compile_many(other, settings)
        flipped = [
            setting.with_values(funroll_loops=not setting["funroll_loops"])
            for setting in settings
        ]
        return super().compile_many(program, flipped)


class _FixedPredictor:
    """A duck-typed predictor that proposes one setting everywhere."""

    def __init__(self, setting):
        self.setting = setting

    def predict(self, counters, machine, **_):
        return self.setting


def _swapped_session(tiny_data, compiler):
    session = Session("tiny", use_disk_cache=False, compiler=compiler)
    session.models.fit(tiny_data.training)
    return session


def _fold(tiny_data, compiler):
    training = tiny_data.training
    oracle = RuntimeOracle(training, tiny_data.programs, compiler=compiler)
    variant = protocol_variants(with_code=training.code_features is not None)[0]
    predictor = _FixedPredictor(o3_setting().with_values(funroll_loops=True))
    compute_fold(training, variant, training.program_names[0], oracle, predictor)


#: Every consumer of the pricer, driven through a given compiler.
CONSUMERS = {
    "evaluator": lambda data, compiler: Evaluator(
        mibench_program("sha"), xscale(), compiler=compiler
    ).evaluate_many([o3_setting(), DEFAULT_SPACE.sample_many(1, seed=7)[0]]),
    "eval.evaluate": lambda data, compiler: Session(
        "tiny", use_disk_cache=False, compiler=compiler
    ).eval.evaluate("sha", xscale()),
    "eval.batch": lambda data, compiler: Session(
        "tiny", use_disk_cache=False, compiler=compiler
    ).eval.batch([("sha", xscale()), ("crc", xscale())], jobs=1),
    "models.predict": lambda data, compiler: _swapped_session(
        data, compiler
    ).models.predict("sha", xscale(), evaluate=True),
    "figure1": lambda data, compiler: figure1(
        dataclasses.replace(data, compiler=compiler)
    ),
    "table1": lambda data, compiler: table1(
        dataclasses.replace(data, compiler=compiler)
    ),
    "fold": _fold,
}


@pytest.mark.parametrize("swap", ["program", "setting"])
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_every_consumer_rejects_a_swapped_binary(tiny_data, consumer, swap):
    with pytest.raises(OracleError, match="binary swap"):
        CONSUMERS[consumer](tiny_data, _SwappingCompiler(swap))


class TestPricer:
    def test_price_runs_each_distinct_pair_once(self):
        compiler = Compiler()
        program = mibench_program("crc")
        unrolled = o3_setting().with_values(funroll_loops=True)
        machines = [xscale(), xscale_small_icache()]
        calls = []

        def run(binary, machine):
            calls.append((binary.setting.canonical(), machine))
            return simulate_analytic(binary, machine)

        pricer = Pricer(program, compiler, run)
        settings = [o3_setting(), unrolled, o3_setting(), o3_setting()]
        paired = [machines[0], machines[0], machines[0], machines[1]]
        results = pricer.price(settings, paired)
        assert len(calls) == pricer.simulations == 3
        assert [result.seconds for result in results] == [
            simulate_analytic(compiler.compile(program, setting), machine).seconds
            for setting, machine in zip(settings, paired)
        ]

    def test_seconds_memoises_per_canonical_pair(self):
        pricer = Pricer(mibench_program("crc"), Compiler())
        aliased = o3_setting().with_values(param_max_unroll_times=16)
        first = pricer.seconds([o3_setting()], [xscale()])
        assert pricer.simulations == 1
        assert pricer.is_cached(aliased, xscale())
        assert not pricer.is_cached(o3_setting(), xscale_small_icache())
        assert pricer.seconds([aliased, o3_setting()], [xscale()] * 2) == first * 2
        assert pricer.simulations == 1

    def test_pairs_must_line_up(self):
        with pytest.raises(ValueError):
            Pricer(mibench_program("crc"), Compiler()).seconds([o3_setting()], [])

    def test_default_run_is_looked_up_at_call_time(self, monkeypatch):
        import repro.search.evaluator as pricer_module

        pricer = Pricer(mibench_program("crc"), Compiler())
        seen = []

        def recording(binary, machine):
            seen.append(machine)
            return simulate_analytic(binary, machine)

        monkeypatch.setattr(pricer_module, "simulate_analytic", recording)
        pricer.price([o3_setting()], [xscale()])
        assert seen == [xscale()]
