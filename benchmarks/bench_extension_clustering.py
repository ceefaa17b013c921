"""§9 extension: training-set reduction by k-medoids clustering.

The paper's future work proposes clustering to "dramatically reduce the
amount of training data needed"; this bench measures the model-quality
cost of training on medoid pairs only.
"""

from repro.core.clustering import reduce_training_set, training_cost
from repro.core.crossval import CrossValResult
from repro.core.predictor import OptimisationPredictor
from repro.evalrun.oracle import RuntimeOracle
from repro.evalrun.pipeline import compute_fold, fold_outcomes
from repro.evalrun.variants import BASE_VARIANT


def test_clustered_training_reduction(benchmark, data, protocol):
    training = data.training
    full_cost = training_cost(training)
    pair_count = len(training.program_names) * len(training.machines)
    oracle = RuntimeOracle(training, data.programs, compiler=data.compiler)

    def crossval(predictor) -> CrossValResult:
        """Leave-one-out over the *full* pair grid: one fold per program."""
        return CrossValResult(
            outcomes=[
                outcome
                for name in training.program_names
                for outcome in fold_outcomes(
                    compute_fold(training, BASE_VARIANT, name, oracle, predictor),
                    training,
                )
            ]
        )

    def run():
        # The full-training reference row is the protocol's paper model.
        full = protocol.base
        rows = [(pair_count, 1.0, full.mean_speedup(), full.fraction_of_best())]
        for k in (max(pair_count // 8, 2), max(pair_count // 3, 3)):
            reduced = reduce_training_set(training, k=k)
            predictor = OptimisationPredictor(extended=data.scale.extended).fit(
                reduced
            )
            result = crossval(predictor)
            rows.append(
                (
                    k,
                    training_cost(reduced) / full_cost,
                    result.mean_speedup(),
                    result.fraction_of_best(),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Extension: k-medoids training reduction (§9 future work)")
    print(f"{'medoids':>8s} {'train cost':>11s} {'mean speedup':>13s} "
          f"{'frac of best':>13s}")
    for k, cost, speedup, fraction in rows:
        print(f"{k:8d} {cost:11.1%} {speedup:13.3f} {fraction:13.2%}")
    assert rows[-1][2] > 1.0
