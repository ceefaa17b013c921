"""The paper's contribution: the portable optimisation model (§3),
plus its stated future-work extensions (§9): training-set reduction by
clustering and static code features."""

from repro.core.clustering import (
    ClusteringResult,
    k_medoids,
    pair_feature_matrix,
    reduce_training_set,
    training_cost,
)
from repro.core.code_features import CODE_FEATURE_NAMES, static_code_features
from repro.core.crossval import CrossValResult, PairOutcome
from repro.core.distribution import IIDDistribution, good_settings_by_runtime
from repro.core.features import (
    FeatureNormaliser,
    feature_mask,
    feature_names,
    feature_vector,
    split_feature_vector,
)
from repro.core.mutual_information import (
    entropy,
    feature_best_flag_mi,
    flag_speedup_mi,
    hinton_feature_columns,
    hinton_rows,
    mutual_information,
    normalised_mutual_information,
    quartile_bins,
)
from repro.core.predictor import (
    DEFAULT_BETA,
    DEFAULT_K,
    DEFAULT_QUANTILE,
    OptimisationPredictor,
)
from repro.core.training import TrainingSet, generate_training_set

__all__ = [
    "CODE_FEATURE_NAMES",
    "ClusteringResult",
    "CrossValResult",
    "DEFAULT_BETA",
    "k_medoids",
    "pair_feature_matrix",
    "reduce_training_set",
    "static_code_features",
    "training_cost",
    "DEFAULT_K",
    "DEFAULT_QUANTILE",
    "FeatureNormaliser",
    "IIDDistribution",
    "OptimisationPredictor",
    "PairOutcome",
    "TrainingSet",
    "entropy",
    "feature_best_flag_mi",
    "feature_mask",
    "feature_names",
    "feature_vector",
    "flag_speedup_mi",
    "generate_training_set",
    "good_settings_by_runtime",
    "hinton_feature_columns",
    "hinton_rows",
    "mutual_information",
    "normalised_mutual_information",
    "quartile_bins",
    "split_feature_vector",
]
