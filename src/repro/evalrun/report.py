"""Render the complete paper artifact from checkpointed protocol output.

One registry maps every artifact of the paper's evaluation — figures,
tables, headline numbers, ablations — to the protocol variants it needs
and a builder that renders it.  The figure/table builders are the
:mod:`repro.experiments` reproductions, fed the pipeline's checkpointed
cross-validation; the ablation tables are assembled from the protocol's
variant results, one row per sweep value of
:data:`~repro.evalrun.variants.SWEEPS`.  The CLI's figure, table and
ablation subcommands print these same renders.

Everything rendered here is a pure function of the training matrix and
the checkpointed folds: no timestamps, no environment — so a report from
a killed-and-resumed run is byte-identical to a single-shot one, and the
per-artifact fingerprints can be pinned by golden tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.evalrun.pipeline import ProtocolResult
from repro.evalrun.variants import SWEEPS

#: Report schema version (covers the markdown layout and JSON payload).
REPORT_FORMAT = 1


@dataclass(frozen=True)
class ArtifactSpec:
    """One entry of the paper artifact: what it needs and how to build it."""

    name: str
    description: str
    #: protocol variant keys whose folds must be checkpointed first;
    #: empty for artifacts derived from the training matrix alone.
    variants: tuple[str, ...]
    #: (data, protocol) -> result object with ``render()``.
    build: Callable


def _ablation_rows(protocol: ProtocolResult, entries) -> list:
    from repro.experiments.ablations import AblationRow

    rows = []
    for variant_key, label in entries:
        result = protocol.result(variant_key)
        rows.append(
            AblationRow(
                label=label,
                mean_speedup=result.mean_speedup(),
                fraction_of_best=result.fraction_of_best(),
                correlation=result.correlation_with_best(),
            )
        )
    return rows


def _ablation(title: str, entries_for):
    def build(data, protocol: ProtocolResult):
        from repro.experiments.ablations import AblationResult

        with_code = data.training.code_features is not None
        entries = entries_for(with_code)
        return AblationResult(
            title=title, rows=_ablation_rows(protocol, entries)
        )

    return build


def _base(build_with_crossval: Callable):
    def build(data, protocol: ProtocolResult):
        return build_with_crossval(data, protocol.base)

    return build


def _data_only(builder: Callable):
    return lambda data, protocol: builder(data)


def _static(builder: Callable):
    return lambda data, protocol: builder()


def _artifact_registry() -> dict[str, ArtifactSpec]:
    from repro.experiments import figures, tables

    def spec(name, description, variants, build):
        return ArtifactSpec(name, description, tuple(variants), build)

    def sweep(kind, name, description, title):
        variants = ("base",) + tuple(v.key for v in SWEEPS[kind].variants())
        return spec(name, description, variants,
                    _ablation(title, SWEEPS[kind].rows))

    base = ("base",)
    return {
        spec.name: spec
        for spec in (
            spec("table1", "the 11 performance counters", (), _data_only(tables.table1)),
            spec("table2", "the microarchitecture space", (), _static(tables.table2)),
            spec("fig1", "best passes per program/machine", (), _data_only(figures.figure1)),
            spec("fig3", "the optimisation space census", (), _static(figures.figure3)),
            spec("fig4", "best speedup available per program", (), _data_only(figures.figure4)),
            spec("fig5", "best vs predicted speedup surfaces", base, _base(figures.figure5)),
            spec("fig6", "per-program model vs best speedup", base, _base(figures.figure6)),
            spec("fig7", "per-machine model vs best speedup", base, _base(figures.figure7)),
            spec("fig8", "MI(optimisation; speedup) Hinton diagram", (), _data_only(figures.figure8)),
            spec("fig9", "MI(feature; best value) Hinton diagram", (), _data_only(figures.figure9)),
            spec("headline", "the paper's headline numbers", base, _base(tables.headline)),
            spec("iterations", "search evaluations to match the model", base, _base(tables.iterations_to_match)),
            sweep("knn", "ablate-k", "KNN neighbourhood-size sweep",
                  "Ablation: KNN neighbourhood size"),
            sweep("beta", "ablate-beta", "softmax sharpness sweep",
                  "Ablation: softmax sharpness beta"),
            sweep("quantile", "ablate-quantile", "good-settings quantile sweep",
                  "Ablation: good-settings quantile"),
            sweep("features", "ablate-features", "feature-source sweep",
                  "Ablation: feature sources"),
            spec("ablate-iid", "IID factorisation vs joint voting", ("base", "joint"),
                 _ablation("Ablation: factorised (IID) vs dependence-aware prediction",
                           lambda wc: [("base", "IID mode  (paper)"), ("joint", "joint vote")])),
        )
    }


ARTIFACTS: dict[str, ArtifactSpec] = _artifact_registry()

#: Everything the `repro report` command renders by default (the full
#: paper artifact; fig10's extended-space re-run needs a second dataset
#: and stays behind the dedicated `fig10` experiment command).
DEFAULT_ARTIFACTS: tuple[str, ...] = tuple(ARTIFACTS)


def resolve_artifacts(only: str | Sequence[str] | None) -> list[str]:
    """Validate an ``--only`` selection into registry order.

    Accepts the registry names plus the paper's spellings
    (``figure5`` → ``fig5``); ``None`` means the full artifact.
    """
    if only is None:
        return list(DEFAULT_ARTIFACTS)
    if isinstance(only, str):
        only = [part for part in only.split(",") if part.strip()]
    requested = set()
    for name in only:
        name = name.strip().lower()
        if name.startswith("figure"):
            name = "fig" + name[len("figure"):]
        if name not in ARTIFACTS:
            raise ValueError(
                f"unknown artifact {name!r}; choose from {', '.join(ARTIFACTS)}"
            )
        requested.add(name)
    return [name for name in ARTIFACTS if name in requested]


def variants_for_artifacts(names: Sequence[str], with_code: bool = True) -> list[str]:
    """The protocol variant keys a set of artifacts needs, in grid order.

    Artifacts built from the training matrix alone contribute nothing,
    so a ``--only fig4,table2`` report runs zero folds.
    """
    needed = set()
    for name in names:
        needed.update(ARTIFACTS[name].variants)
    if not with_code:
        needed.discard("features-with_code")
    from repro.evalrun.variants import protocol_variants

    return [
        variant.key
        for variant in protocol_variants(with_code=with_code)
        if variant.key in needed
    ]


#: Renderable report formats; ``svg`` is the headline figure and needs
#: the protocol's ``base`` variant folds.
REPORT_FORMATS = ("md", "json", "svg")


@dataclass
class ProtocolReport:
    """The rendered paper artifact: markdown + JSON (+ optional SVG).

    ``svg`` is populated when ``render_report`` was asked for the
    ``"svg"`` format; it is a sibling artifact with its own fingerprint
    and never enters :attr:`fingerprint`, so the golden markdown/JSON
    pins are unaffected by figure-file rendering.
    """

    scale: str
    artifacts: list[str]
    markdown: str
    payload: dict
    artifact_fingerprints: dict[str, str] = field(default_factory=dict)
    protocol: ProtocolResult | None = None
    svg: str | None = None

    def json_text(self) -> str:
        """Deterministic JSON serialisation of the payload."""
        return json.dumps(self.payload, indent=1, sort_keys=True) + "\n"

    @property
    def fingerprint(self) -> str:
        """Digest of the whole report (markdown + JSON bytes)."""
        digest = hashlib.sha256()
        digest.update(self.markdown.encode())
        digest.update(self.json_text().encode())
        return digest.hexdigest()[:16]

    @property
    def svg_fingerprint(self) -> str | None:
        """Digest of the rendered SVG figure (``None`` when not rendered)."""
        if self.svg is None:
            return None
        return _render_fingerprint(self.svg)


def _render_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def render_report(
    data,
    protocol: ProtocolResult,
    only: str | Sequence[str] | None = None,
    formats: Sequence[str] = ("md", "json"),
) -> ProtocolReport:
    """Render the requested artifacts from checkpointed protocol output.

    ``protocol`` must hold every variant the selection needs (the
    pipeline's ``variants_for_artifacts`` set); artifacts that need no
    folds render from the training matrix alone.

    ``formats`` selects the output representations: markdown and JSON
    are always built (the report fingerprint is defined over them);
    adding ``"svg"`` renders the headline speedup figure, which needs
    the ``base`` variant's folds.
    """
    unknown = [name for name in formats if name not in REPORT_FORMATS]
    if unknown:
        raise ValueError(
            f"unknown report formats {unknown}; choose from {REPORT_FORMATS}"
        )
    names = resolve_artifacts(only)
    available = set(protocol.results)
    scale = data.scale
    sections = []
    fingerprints: dict[str, str] = {}
    payload_artifacts: dict[str, dict] = {}
    for name in names:
        spec = ARTIFACTS[name]
        missing = [key for key in spec.variants if key not in available]
        if name == "ablate-features" and data.training.code_features is None:
            missing = [key for key in missing if key != "features-with_code"]
        if missing:
            raise ValueError(
                f"artifact {name!r} needs protocol variants {missing} "
                "that were not run"
            )
        rendered = spec.build(data, protocol).render()
        fingerprints[name] = _render_fingerprint(rendered)
        sections.append(
            f"## {name} — {spec.description}\n\n```\n{rendered}\n```\n"
        )
        payload_artifacts[name] = {
            "description": spec.description,
            "fingerprint": fingerprints[name],
            "render": rendered,
        }

    base = protocol.results.get("base")
    header = [
        f"# Paper protocol report — scale `{scale.name}`",
        "",
        f"- dataset: {len(scale.programs)} programs × {scale.n_machines} "
        f"machines × {scale.n_settings} settings",
        f"- training fingerprint: `{data.training.fingerprint()}`",
        f"- protocol fingerprint: `{protocol.protocol_fingerprint}`",
        f"- fold fingerprint: `{protocol.fold_fingerprint}`",
    ]
    if base is not None:
        header.append(
            f"- headline: model {base.mean_speedup():.3f}x vs best "
            f"{base.mean_best_speedup():.3f}x over -O3 "
            f"({base.fraction_of_best():.1%} of the iterative gain, "
            f"correlation {base.correlation_with_best():.3f})"
        )
    header.append("")
    markdown = "\n".join(header) + "\n" + "\n".join(sections)

    payload = {
        "format": REPORT_FORMAT,
        "scale": scale.name,
        "grid": {
            "programs": list(scale.programs),
            "n_machines": scale.n_machines,
            "n_settings": scale.n_settings,
            "extended": scale.extended,
        },
        "fingerprints": {
            "training": data.training.fingerprint(),
            "protocol": protocol.protocol_fingerprint,
            "folds": protocol.fold_fingerprint,
        },
        "headline": (
            {
                "mean_model_speedup": base.mean_speedup(),
                "mean_best_speedup": base.mean_best_speedup(),
                "fraction_of_best": base.fraction_of_best(),
                "correlation": base.correlation_with_best(),
            }
            if base is not None
            else None
        ),
        "artifacts": payload_artifacts,
    }
    svg = None
    if "svg" in formats:
        from repro.evalrun.svg import headline_svg

        svg = headline_svg(data, protocol)

    return ProtocolReport(
        scale=scale.name,
        artifacts=names,
        markdown=markdown,
        payload=payload,
        artifact_fingerprints=fingerprints,
        protocol=protocol,
        svg=svg,
    )
