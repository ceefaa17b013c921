"""The predictor-variant axis of the protocol grid.

The paper evaluates one model (K = 7, β = 1, top-5 % good set, (c, d)
features, IID factorisation) and argues its design choices are
insensitive; the ablations measure those claims by re-running
leave-one-out with one choice varied.  Each axis is one :class:`Sweep`
here — its values, the paper's default, and the format of its variant
keys and table labels — and each distinct predictor configuration is one
:class:`VariantSpec`.  The sweep rows that coincide with the paper's
defaults all map to the single ``base`` variant, so the pipeline never
computes the same fold twice under two names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.predictor import (
    DEFAULT_BETA,
    DEFAULT_K,
    DEFAULT_QUANTILE,
    OptimisationPredictor,
)
from repro.core.training import TrainingSet


@dataclass(frozen=True)
class VariantSpec:
    """One predictor configuration of the protocol grid.

    ``key`` is the stable identity used in fold filenames and manifests;
    ``params`` is a value-level description sufficient to rebuild the
    predictor, so the manifest alone pins the variant.
    """

    key: str
    kind: str  # "paper" | "knn" | "beta" | "quantile" | "features" | "joint"
    label: str
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def param(self, name: str, default: object = None) -> object:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> dict:
        """Manifest entry: everything needed to reproduce the variant."""
        return {
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "params": [[name, value] for name, value in self.params],
        }


@dataclass(frozen=True)
class Sweep:
    """One ablation axis: its values, the paper's choice, and their names.

    ``key`` and ``label`` are format strings applied to a swept value.
    The value equal to ``default`` is the paper's model, so its row reads
    the ``base`` variant; every other value is a variant of its own.  An
    ``extension`` value (a §9 future-work option) exists only when the
    data carries static code features.
    """

    kind: str
    param: str
    values: tuple
    default: object
    key: str
    label: str
    extension: object = None

    def _values(self, with_code: bool) -> tuple:
        return tuple(
            value
            for value in self.values
            if with_code or value != self.extension
        )

    def variants(self, with_code: bool = True) -> list[VariantSpec]:
        """The non-default sweep points as protocol variants."""
        return [
            VariantSpec(
                key=self.key.format(value),
                kind=self.kind,
                label=self.label.format(value),
                params=((self.param, value),),
            )
            for value in self._values(with_code)
            if value != self.default
        ]

    def rows(self, with_code: bool = True) -> list[tuple[str, str]]:
        """(variant key, ablation-table row label) per value, in order."""
        rows = []
        for value in self._values(with_code):
            label = self.label.format(value)
            if value == self.default:
                rows.append(("base", label + "  (paper)"))
            elif value == self.extension:
                rows.append((self.key.format(value), label + "  (§9 extension)"))
            else:
                rows.append((self.key.format(value), label))
        return rows


#: The four hyper-parameter sweeps, by variant kind, in grid order.
SWEEPS: dict[str, Sweep] = {
    sweep.kind: sweep
    for sweep in (
        Sweep("knn", "k", (1, 3, 5, 7, 11, 15), DEFAULT_K, "k-{}", "K = {}"),
        Sweep(
            "beta", "beta", (0.25, 1.0, 4.0, 16.0), DEFAULT_BETA,
            "beta-{:g}", "beta = {:g}",
        ),
        Sweep(
            "quantile", "quantile", (0.01, 0.05, 0.10, 0.25), DEFAULT_QUANTILE,
            "quantile-{:g}", "top {:.0%}",
        ),
        Sweep(
            "features", "feature_mode",
            ("both", "counters", "descriptors", "with_code"), "both",
            "features-{}", "{}", extension="with_code",
        ),
    )
}


BASE_VARIANT = VariantSpec(key="base", kind="paper", label="paper model")
JOINT_VARIANT = VariantSpec(key="joint", kind="joint", label="joint vote")


def protocol_variants(with_code: bool = True) -> list[VariantSpec]:
    """Every variant of the full protocol, ``base`` first, deduplicated.

    Sweep points equal to the paper's defaults (K = 7, β = 1, top 5 %,
    ``both`` features, IID mode) all resolve to ``base``.
    """
    variants: list[VariantSpec] = [BASE_VARIANT]
    for sweep in SWEEPS.values():
        variants.extend(sweep.variants(with_code=with_code))
    variants.append(JOINT_VARIANT)
    return variants


def variant_by_key(key: str, with_code: bool = True) -> VariantSpec:
    for variant in protocol_variants(with_code=with_code):
        if variant.key == key:
            return variant
    raise KeyError(f"unknown protocol variant {key!r}")


def make_predictor(variant: VariantSpec, training: TrainingSet):
    """Build (unfitted) the predictor a variant describes."""
    extended = training.extended
    if variant.kind == "joint":
        from repro.experiments.ablations import JointVotePredictor

        return JointVotePredictor(extended=extended)
    return OptimisationPredictor(
        k=int(variant.param("k", DEFAULT_K)),
        beta=float(variant.param("beta", DEFAULT_BETA)),
        quantile=float(variant.param("quantile", DEFAULT_QUANTILE)),
        feature_mode=str(variant.param("feature_mode", "both")),
        extended=extended,
    )


def protocol_fingerprint(
    training: TrainingSet, variants: list[VariantSpec]
) -> str:
    """Identity of one protocol: the data plus every variant definition.

    Any change to the training matrix (and therefore to the grid that
    produced it) or to the variant set starts a fresh fold store rather
    than resuming a stale one.
    """
    digest = hashlib.sha256()
    digest.update(training.fingerprint().encode())
    for variant in variants:
        digest.update(repr(variant).encode())
    return digest.hexdigest()[:16]
