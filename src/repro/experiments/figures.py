"""Reproduction of every figure in the paper's evaluation.

Each ``figureN`` function takes the experiment data and returns a result
dataclass with the numbers behind the paper's plot plus a ``render()``
producing the same series as text.  Figures 5–7 also take the
leave-one-out outcomes: the ``base`` variant of the checkpointed
protocol (:mod:`repro.evalrun`), which is the only place they are
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.flags import DEFAULT_SPACE, FlagSetting
from repro.core.crossval import CrossValResult
from repro.core.mutual_information import (
    feature_best_flag_mi,
    flag_speedup_mi,
    hinton_feature_columns,
    hinton_rows,
)
from repro.experiments.dataset import ExperimentData
from repro.machine.params import MicroArch
from repro.machine.xscale import (
    xscale,
    xscale_small_both_caches,
    xscale_small_icache,
)
from repro.sim.analytic import simulate_analytic

#: Figure 1's five headline passes, in the paper's legend order.
FIGURE1_PASSES: tuple[str, ...] = (
    "freorder_blocks",
    "funroll_loops",
    "finline_functions",
    "fschedule_insns",
    "fgcse",
)

FIGURE1_PROGRAMS: tuple[str, ...] = ("rijndael_e", "untoast", "madplay")

def _bar(value: float, scale: float, width: int = 10) -> str:
    filled = 0 if scale <= 0 else int(round(width * min(value / scale, 1.0)))
    return "#" * filled + "." * (width - filled)


# --------------------------------------------------------------------- fig 1
@dataclass
class Figure1Result:
    """Best-pass segment diagram for 3 programs × 3 microarchitectures."""

    machines: list[MicroArch]
    machine_labels: list[str]
    programs: list[str]
    #: segments[(program, machine_label)][pass_name] -> enabled?
    segments: dict[tuple[str, str], dict[str, bool]]

    def render(self) -> str:
        lines = ["Figure 1: best passes per program/microarchitecture"]
        header = f"{'pair':28s} " + " ".join(
            f"{name[:12]:>12s}" for name in FIGURE1_PASSES
        )
        lines.append(header)
        for (program, label), passes in self.segments.items():
            cells = " ".join(
                f"{'ON' if passes[name] else '--':>12s}" for name in FIGURE1_PASSES
            )
            lines.append(f"{program + ' @ ' + label:28s} {cells}")
        return "\n".join(lines)


def figure1(data: ExperimentData) -> Figure1Result:
    """Best-of-sample pass choices on the three illustrative machines."""
    machines = [xscale(), xscale_small_icache(), xscale_small_both_caches()]
    labels = ["A:XScale", "B:small-I$", "C:small-I$+D$"]
    by_name = {program.name: program for program in data.programs}
    segments: dict[tuple[str, str], dict[str, bool]] = {}
    for name in FIGURE1_PROGRAMS:
        program = by_name.get(name)
        if program is None:
            continue
        for machine, label in zip(machines, labels):
            best_setting, _ = _best_on_machine(data, program, machine)
            segments[(name, label)] = {
                pass_name: bool(best_setting.enabled(pass_name))
                for pass_name in FIGURE1_PASSES
            }
    return Figure1Result(
        machines=machines,
        machine_labels=labels,
        programs=list(FIGURE1_PROGRAMS),
        segments=segments,
    )


def _best_on_machine(
    data: ExperimentData, program, machine: MicroArch
) -> tuple[FlagSetting, float]:
    best_setting = None
    best_runtime = float("inf")
    for setting in data.training.settings:
        binary = data.compiler.compile(program, setting)
        runtime = simulate_analytic(binary, machine).seconds
        if runtime < best_runtime:
            best_runtime = runtime
            best_setting = setting
    return best_setting, best_runtime


# --------------------------------------------------------------------- fig 4
@dataclass
class Figure4Result:
    """Distribution of the maximum speedup per program (box plot data)."""

    programs: list[str]
    minimum: np.ndarray
    q25: np.ndarray
    median: np.ndarray
    q75: np.ndarray
    maximum: np.ndarray
    mean: np.ndarray

    @property
    def overall_mean(self) -> float:
        """The paper's right-most AVERAGE entry (1.23x in the paper)."""
        return float(self.mean.mean())

    def rows(self) -> list[tuple]:
        return [
            (
                name,
                float(self.minimum[index]),
                float(self.q25[index]),
                float(self.median[index]),
                float(self.q75[index]),
                float(self.maximum[index]),
                float(self.mean[index]),
            )
            for index, name in enumerate(self.programs)
        ]

    def render(self) -> str:
        lines = [
            "Figure 4: max speedup available per program across microarchitectures",
            f"{'program':12s} {'min':>5s} {'q25':>5s} {'med':>5s} {'q75':>5s} "
            f"{'max':>5s} {'mean':>5s}",
        ]
        for name, mn, q25, med, q75, mx, mean in self.rows():
            lines.append(
                f"{name:12s} {mn:5.2f} {q25:5.2f} {med:5.2f} {q75:5.2f} "
                f"{mx:5.2f} {mean:5.2f}  {_bar(mean - 1.0, 1.0)}"
            )
        lines.append(f"{'AVERAGE':12s} {'':23s} mean {self.overall_mean:5.2f}")
        return "\n".join(lines)


def figure4(data: ExperimentData) -> Figure4Result:
    speedups = data.training.speedups()  # [P, S, M]
    best = speedups.max(axis=1)  # [P, M]
    return Figure4Result(
        programs=list(data.training.program_names),
        minimum=best.min(axis=1),
        q25=np.quantile(best, 0.25, axis=1),
        median=np.median(best, axis=1),
        q75=np.quantile(best, 0.75, axis=1),
        maximum=best.max(axis=1),
        mean=best.mean(axis=1),
    )


# --------------------------------------------------------------------- fig 5
@dataclass
class Figure5Result:
    """Best vs predicted speedup surfaces over the joint space."""

    programs: list[str]
    machines: list[MicroArch]
    best: np.ndarray  # [P, M]
    predicted: np.ndarray  # [P, M]

    @property
    def correlation(self) -> float:
        """Pearson correlation over the joint space (paper: 0.93)."""
        flat_best = self.best.ravel()
        flat_pred = self.predicted.ravel()
        if flat_best.std() < 1e-12 or flat_pred.std() < 1e-12:
            return 1.0
        return float(np.corrcoef(flat_best, flat_pred)[0, 1])

    @property
    def peak_best(self) -> float:
        return float(self.best.max())

    @property
    def peak_predicted(self) -> float:
        return float(self.predicted.max())

    def render(self) -> str:
        lines = [
            "Figure 5: best (a) vs predicted (b) speedup per pair",
            f"correlation over joint space: {self.correlation:.3f}",
            f"peak best {self.peak_best:.2f}x; peak predicted "
            f"{self.peak_predicted:.2f}x",
            f"{'program':12s} {'best-mean':>9s} {'pred-mean':>9s}",
        ]
        for index, name in enumerate(self.programs):
            lines.append(
                f"{name:12s} {self.best[index].mean():9.3f} "
                f"{self.predicted[index].mean():9.3f}"
            )
        return "\n".join(lines)


def figure5(data: ExperimentData, crossval: CrossValResult) -> Figure5Result:
    P = len(data.training.program_names)
    M = len(data.training.machines)
    best = np.empty((P, M))
    predicted = np.empty((P, M))
    index = {
        (name, machine): (p, m)
        for p, name in enumerate(data.training.program_names)
        for m, machine in enumerate(data.training.machines)
    }
    for outcome in crossval.outcomes:
        p, m = index[(outcome.program, outcome.machine)]
        best[p, m] = outcome.best_speedup
        predicted[p, m] = outcome.speedup
    return Figure5Result(
        programs=list(data.training.program_names),
        machines=list(data.training.machines),
        best=best,
        predicted=predicted,
    )


# --------------------------------------------------------------------- fig 6
@dataclass
class Figure6Result:
    """Per-program model vs best speedup, averaged over machines."""

    programs: list[str]
    model: np.ndarray
    best: np.ndarray

    @property
    def mean_model(self) -> float:
        """Paper: 1.16x."""
        return float(self.model.mean())

    @property
    def mean_best(self) -> float:
        """Paper: 1.23x."""
        return float(self.best.mean())

    def rows(self) -> list[tuple[str, float, float]]:
        return [
            (name, float(self.model[index]), float(self.best[index]))
            for index, name in enumerate(self.programs)
        ]

    def render(self) -> str:
        lines = [
            "Figure 6: per-program speedup over -O3 (mean across microarchs)",
            f"{'program':12s} {'model':>6s} {'best':>6s}",
        ]
        for name, model, best in self.rows():
            lines.append(
                f"{name:12s} {model:6.3f} {best:6.3f}  {_bar(model - 1.0, 1.0)}"
            )
        lines.append(
            f"{'AVERAGE':12s} {self.mean_model:6.3f} {self.mean_best:6.3f}"
        )
        return "\n".join(lines)


def figure6(data: ExperimentData, crossval: CrossValResult) -> Figure6Result:
    by_program = crossval.by_program()
    programs = list(data.training.program_names)
    model = np.array(
        [
            np.mean([outcome.speedup for outcome in by_program[name]])
            for name in programs
        ]
    )
    best = np.array(
        [
            np.mean([outcome.best_speedup for outcome in by_program[name]])
            for name in programs
        ]
    )
    return Figure6Result(programs=programs, model=model, best=best)


# --------------------------------------------------------------------- fig 7
@dataclass
class Figure7Result:
    """Per-microarchitecture model vs best speedup, sorted by best."""

    machines: list[MicroArch]
    model: np.ndarray  # sorted by best
    best: np.ndarray

    @property
    def model_range(self) -> tuple[float, float]:
        """Paper: 1.08x to 1.35x."""
        return float(self.model.min()), float(self.model.max())

    @property
    def mean_model(self) -> float:
        return float(self.model.mean())

    def regions(self) -> dict[str, tuple[float, float]]:
        """Mean (model, best) of the low/middle/high thirds of the order —
        the paper's three-region reading of the figure."""
        count = len(self.machines)
        lo, hi = count // 3, (2 * count) // 3
        return {
            "low-headroom": (
                float(self.model[:lo].mean()) if lo else float("nan"),
                float(self.best[:lo].mean()) if lo else float("nan"),
            ),
            "middle": (
                float(self.model[lo:hi].mean()),
                float(self.best[lo:hi].mean()),
            ),
            "high-headroom": (float(self.model[hi:].mean()), float(self.best[hi:].mean())),
        }

    def render(self) -> str:
        low, high = self.model_range
        lines = [
            "Figure 7: per-microarchitecture speedup (sorted by best available)",
            f"model range {low:.2f}x..{high:.2f}x, mean {self.mean_model:.3f}",
        ]
        for label, (model, best) in self.regions().items():
            lines.append(f"  {label:14s} model {model:5.2f}  best {best:5.2f}")
        lines.append(f"{'machine':42s} {'model':>6s} {'best':>6s}")
        for index, machine in enumerate(self.machines):
            lines.append(
                f"{machine.label():42s} {self.model[index]:6.3f} "
                f"{self.best[index]:6.3f}"
            )
        return "\n".join(lines)


def figure7(data: ExperimentData, crossval: CrossValResult) -> Figure7Result:
    by_machine = crossval.by_machine()
    machines = list(data.training.machines)
    model = np.array(
        [
            np.mean([outcome.speedup for outcome in by_machine[machine]])
            for machine in machines
        ]
    )
    best = np.array(
        [
            np.mean([outcome.best_speedup for outcome in by_machine[machine]])
            for machine in machines
        ]
    )
    order = np.argsort(best, kind="stable")
    return Figure7Result(
        machines=[machines[int(i)] for i in order],
        model=model[order],
        best=best[order],
    )


# ----------------------------------------------------------------- fig 8 / 9
@dataclass
class HintonResult:
    """A Hinton diagram: |MI| matrix with row/column labels."""

    title: str
    rows: list[str]
    columns: list[str]
    matrix: np.ndarray  # [row, column]

    SHADES = " .:-=+*#%@"

    def render(self) -> str:
        peak = float(self.matrix.max()) or 1.0
        lines = [self.title]
        width = max(len(row) for row in self.rows) + 1
        for r, row_name in enumerate(self.rows):
            cells = "".join(
                self.SHADES[
                    min(
                        int(self.matrix[r, c] / peak * (len(self.SHADES) - 1)),
                        len(self.SHADES) - 1,
                    )
                ]
                for c in range(len(self.columns))
            )
            lines.append(f"{row_name:>{width}s} {cells}")
        lines.append(f"{'':>{width}s} columns: {', '.join(self.columns)}")
        return "\n".join(lines)

    def top_cells(self, count: int = 10) -> list[tuple[str, str, float]]:
        flat = [
            (self.rows[r], self.columns[c], float(self.matrix[r, c]))
            for r in range(len(self.rows))
            for c in range(len(self.columns))
        ]
        flat.sort(key=lambda item: -item[2])
        return flat[:count]


def figure8(data: ExperimentData) -> HintonResult:
    """MI between each optimisation and the speedups, per program."""
    matrix = flag_speedup_mi(data.training)
    return HintonResult(
        title="Figure 8: MI(optimisation; speedup) per program",
        rows=hinton_rows(data.training),
        columns=list(data.training.program_names),
        matrix=matrix,
    )


def figure9(data: ExperimentData) -> HintonResult:
    """MI between each feature and each optimisation's best value."""
    matrix = feature_best_flag_mi(data.training)
    return HintonResult(
        title="Figure 9: MI(feature; best optimisation value)",
        rows=hinton_rows(data.training),
        columns=hinton_feature_columns(data.training),
        matrix=matrix,
    )


# -------------------------------------------------------------------- fig 10
@dataclass
class Figure10Result:
    """Figure 6 re-run on the extended (frequency × width) space: one
    protocol run per space, built by the ``fig10`` command."""

    base: Figure6Result
    extended: Figure6Result

    def render(self) -> str:
        lines = [
            "Figure 10: extended microarchitecture space (§7)",
            f"base space:     model {self.base.mean_model:.3f}  "
            f"best {self.base.mean_best:.3f}",
            f"extended space: model {self.extended.mean_model:.3f}  "
            f"best {self.extended.mean_best:.3f}",
            "",
            self.extended.render(),
        ]
        return "\n".join(lines)


# ------------------------------------------------------------------- helpers
@dataclass
class FlagSpaceSummary:
    """Figure 3's optimisation-space accounting."""

    dimensions: int = field(default=0)
    booleans: int = 0
    raw_boolean_size: int = 0
    raw_size: int = 0
    distinct_boolean_size: int = 0
    distinct_size: int = 0

    def render(self) -> str:
        return "\n".join(
            [
                "Figure 3: the optimisation space",
                f"dimensions: {self.dimensions} ({self.booleans} boolean)",
                f"on/off combinations: {self.raw_boolean_size:.3e} raw, "
                f"{self.distinct_boolean_size:.3e} behaviourally distinct "
                f"(paper: 6.42e8)",
                f"full space: {self.raw_size:.3e} raw, "
                f"{self.distinct_size:.3e} distinct (paper: 1.69e17)",
            ]
        )


def figure3() -> FlagSpaceSummary:
    space = DEFAULT_SPACE
    return FlagSpaceSummary(
        dimensions=len(space),
        booleans=sum(1 for spec in space.specs if spec.is_boolean),
        raw_boolean_size=space.raw_boolean_size(),
        raw_size=space.raw_size(),
        distinct_boolean_size=space.distinct_size(booleans_only=True),
        distinct_size=space.distinct_size(),
    )
