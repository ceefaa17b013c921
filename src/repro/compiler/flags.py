"""The compiler optimisation space of the paper's Figure 3.

The space has 39 dimensions: 30 boolean pass toggles plus 9 multi-valued
parameters, exactly the gcc 4.2 flags and params the paper varies (they are
also the row labels of the paper's Figures 8 and 9).  Some dimensions are
*gated*: a sub-flag such as ``fgcse_sm`` only has an effect when its parent
``fgcse`` is enabled, mirroring gcc's behaviour.  Gating matters when
counting distinct optimisations (the paper's "642 million" on/off combos and
"1.69e17" full space) and when canonicalising settings.

A point in the space is a :class:`FlagSetting` — an immutable mapping from
dimension name to value.  The reference point :func:`o3_setting` models
gcc 4.2's ``-O3``: everything O3 enables is on at default parameter values;
``funroll_loops`` and the non-default gcse sub-flags are off, as in gcc.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class FlagSpec:
    """One dimension of the optimisation space.

    Attributes:
        name: gcc-style flag or parameter name.
        values: allowed values, in ascending "aggressiveness" order.
        o3: the value gcc's -O3 would use.
        parent: name of the boolean flag gating this dimension, if any.
    """

    name: str
    values: tuple
    o3: object
    parent: str | None = None

    def __post_init__(self) -> None:
        if self.o3 not in self.values:
            raise ValueError(f"{self.name}: O3 value {self.o3!r} not in values")

    @property
    def is_boolean(self) -> bool:
        return self.values == (False, True)

    @property
    def cardinality(self) -> int:
        return len(self.values)


def _flag(name: str, o3: bool, parent: str | None = None) -> FlagSpec:
    return FlagSpec(name=name, values=(False, True), o3=o3, parent=parent)


#: The 39 dimensions, in the order of the paper's Figure 8 y-axis (bottom-up).
FLAG_SPECS: tuple[FlagSpec, ...] = (
    _flag("fthread_jumps", o3=True),
    _flag("fcrossjumping", o3=True),
    _flag("foptimize_sibling_calls", o3=True),
    _flag("fcse_follow_jumps", o3=True),
    _flag("fcse_skip_blocks", o3=True),
    _flag("fexpensive_optimizations", o3=True),
    _flag("fstrength_reduce", o3=True),
    _flag("fre_run_cse_after_loop", o3=True),
    _flag("frerun_loop_opt", o3=True),
    _flag("fcaller_saves", o3=True),
    _flag("fpeephole2", o3=True),
    _flag("fregmove", o3=True),
    _flag("freorder_blocks", o3=True),
    _flag("falign_functions", o3=True),
    _flag("falign_jumps", o3=True),
    _flag("falign_loops", o3=True),
    _flag("falign_labels", o3=True),
    _flag("ftree_vrp", o3=True),
    _flag("ftree_pre", o3=True),
    _flag("funswitch_loops", o3=True),
    _flag("fgcse", o3=True),
    # gcc spells the load-motion flag negatively: -fno-gcse-lm disables the
    # (default on) load motion.  True here means "load motion disabled".
    _flag("fno_gcse_lm", o3=False, parent="fgcse"),
    _flag("fgcse_sm", o3=False, parent="fgcse"),
    _flag("fgcse_las", o3=False, parent="fgcse"),
    _flag("fgcse_after_reload", o3=True, parent="fgcse"),
    FlagSpec(
        "param_max_gcse_passes", values=(1, 2, 3, 4), o3=1, parent="fgcse"
    ),
    _flag("fschedule_insns", o3=True),
    # Negative sub-flags again: True disables the sub-behaviour.
    _flag("fno_sched_interblock", o3=False, parent="fschedule_insns"),
    _flag("fno_sched_spec", o3=False, parent="fschedule_insns"),
    _flag("finline_functions", o3=True),
    FlagSpec(
        "param_max_inline_insns_auto",
        values=(30, 60, 90, 180, 360, 720),
        o3=90,
        parent="finline_functions",
    ),
    FlagSpec(
        "param_large_function_insns",
        values=(675, 1350, 2700, 5400),
        o3=2700,
        parent="finline_functions",
    ),
    FlagSpec(
        "param_large_function_growth",
        values=(25, 50, 100, 200),
        o3=100,
        parent="finline_functions",
    ),
    FlagSpec(
        "param_large_unit_insns",
        values=(5000, 10000, 20000, 40000),
        o3=10000,
        parent="finline_functions",
    ),
    FlagSpec(
        "param_inline_unit_growth",
        values=(25, 50, 100, 200),
        o3=50,
        parent="finline_functions",
    ),
    FlagSpec(
        "param_inline_call_cost",
        values=(4, 8, 16, 32),
        o3=16,
        parent="finline_functions",
    ),
    _flag("funroll_loops", o3=False),
    FlagSpec(
        "param_max_unroll_times",
        values=(2, 4, 8, 16),
        o3=8,
        parent="funroll_loops",
    ),
    FlagSpec(
        "param_max_unrolled_insns",
        values=(50, 100, 200, 400),
        o3=200,
        parent="funroll_loops",
    ),
)

FLAG_NAMES: tuple[str, ...] = tuple(spec.name for spec in FLAG_SPECS)
_SPEC_BY_NAME: dict[str, FlagSpec] = {spec.name: spec for spec in FLAG_SPECS}


#: ``FlagSetting._canonical`` of a setting that is its own canonical
#: form.  Pointing the setting at itself would be a reference cycle, which
#: only the cyclic GC frees; ``True`` also survives pickling as itself.
_IS_CANONICAL = True


class FlagSetting(Mapping):
    """An immutable, hashable point in the optimisation space.

    Instances behave like a read-only mapping from flag name to value and
    can be used as dictionary keys (e.g. for compilation caches).
    """

    __slots__ = ("_values", "_hash", "_indices", "_canonical")

    def __init__(self, values: Mapping[str, object]):
        missing = set(FLAG_NAMES) - set(values)
        if missing:
            raise ValueError(f"missing flags: {sorted(missing)}")
        unknown = set(values) - set(FLAG_NAMES)
        if unknown:
            raise ValueError(f"unknown flags: {sorted(unknown)}")
        for name, value in values.items():
            if value not in _SPEC_BY_NAME[name].values:
                raise ValueError(f"{name}: invalid value {value!r}")
        self._values = tuple(values[name] for name in FLAG_NAMES)
        self._hash = hash(self._values)
        self._indices = None
        self._canonical = None

    # Mapping interface -----------------------------------------------------
    def __getitem__(self, name: str) -> object:
        return self._values[_INDEX_BY_NAME[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(FLAG_NAMES)

    def __len__(self) -> int:
        return len(FLAG_NAMES)

    def values(self) -> tuple:
        """The values in :data:`FLAG_NAMES` order, as the stored tuple."""
        return self._values

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlagSetting):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        enabled = [
            name
            for name, spec in _SPEC_BY_NAME.items()
            if spec.is_boolean and self[name]
        ]
        return f"FlagSetting({len(enabled)} passes on)"

    # Convenience -----------------------------------------------------------
    def enabled(self, name: str) -> bool:
        """Whether a dimension is *effectively* active (gating applied)."""
        spec = _SPEC_BY_NAME[name]
        if spec.parent is not None and not self[spec.parent]:
            return False
        return bool(self[name]) if spec.is_boolean else True

    def with_values(self, **overrides: object) -> "FlagSetting":
        """A copy with some dimensions replaced; only those are checked."""
        unknown = set(overrides) - _INDEX_BY_NAME.keys()
        if unknown:
            raise ValueError(f"unknown flags: {sorted(unknown)}")
        values = list(self._values)
        for name, value in overrides.items():
            index = _INDEX_BY_NAME[name]
            if value not in _VALUES[index]:
                raise ValueError(f"{name}: invalid value {value!r}")
            values[index] = value
        return FlagSetting._from_values(tuple(values))

    def canonical(self) -> "FlagSetting":
        """Collapse gated-off dimensions to their O3 value.

        Two settings that differ only in dimensions masked by a disabled
        parent produce identical binaries; canonicalisation makes them
        compare equal, which tightens compilation caches.  The result is
        computed once per instance, and a canonical setting is its own
        canonical form.
        """
        canonical = self._canonical
        if canonical is _IS_CANONICAL:
            return self
        if canonical is None:
            values = self._values
            collapsed = tuple(
                o3 if parent is not None and not values[parent] else value
                for value, o3, parent in zip(values, _O3_VALUES, _PARENT_INDEX)
            )
            if collapsed == values:
                self._canonical = _IS_CANONICAL
                return self
            canonical = FlagSetting._from_values(collapsed)
            canonical._canonical = _IS_CANONICAL
            self._canonical = canonical
        return canonical

    def as_indices(self) -> tuple[int, ...]:
        """Encode as per-dimension value indices (for the ML model)."""
        if self._indices is None:
            self._indices = tuple(
                spec.values.index(value)
                for spec, value in zip(FLAG_SPECS, self._values)
            )
        return self._indices

    @staticmethod
    def from_indices(indices: Sequence[int]) -> "FlagSetting":
        """The setting taking value ``indices[d]`` of dimension ``d``; an
        index that is not an integer in ``[0, cardinality)`` raises
        :class:`ValueError`.  Spec values need none of ``__init__``'s checks."""
        if len(indices) != len(FLAG_SPECS):
            raise ValueError("wrong number of dimensions")
        try:
            checked = tuple(map(operator.index, indices))
            if min(checked) < 0:
                raise IndexError
            values = tuple(map(tuple.__getitem__, _VALUES, checked))
        except (TypeError, IndexError):
            raise ValueError(
                f"indices must be integers in [0, cardinality): {indices!r}"
            ) from None
        setting = FlagSetting._from_values(values)
        setting._indices = checked
        return setting

    @staticmethod
    def _from_values(values: tuple) -> "FlagSetting":
        """A setting over an already-valid value tuple, unchecked."""
        setting = FlagSetting.__new__(FlagSetting)
        setting._values = values
        setting._hash = hash(values)
        setting._indices = None
        setting._canonical = None
        return setting


_VALUES = tuple(spec.values for spec in FLAG_SPECS)
_INDEX_BY_NAME = {name: index for index, name in enumerate(FLAG_NAMES)}
_O3_VALUES = tuple(spec.o3 for spec in FLAG_SPECS)
#: Per dimension, the index of its gating parent (``None`` if ungated).
_PARENT_INDEX = tuple(
    None if spec.parent is None else _INDEX_BY_NAME[spec.parent]
    for spec in FLAG_SPECS
)


class FlagSpace:
    """The full optimisation space: enumeration sizes and uniform sampling."""

    def __init__(self, specs: Sequence[FlagSpec] = FLAG_SPECS):
        self.specs = tuple(specs)
        self._by_name = {spec.name: spec for spec in self.specs}
        # ``specs`` is immutable, so its per-dimension views are too.
        self.names: tuple[str, ...] = tuple(spec.name for spec in self.specs)
        self._cardinalities = tuple(spec.cardinality for spec in self.specs)
        #: ``[D, Vmax]``, read-only: where a zero-padded θ table has support.
        cardinalities = np.array(self._cardinalities)[:, None]
        self.value_mask = np.arange(cardinalities.max()) < cardinalities
        self.value_mask.flags.writeable = False

    def __len__(self) -> int:
        return len(self.specs)

    def spec(self, name: str) -> FlagSpec:
        return self._by_name[name]

    def cardinalities(self) -> tuple[int, ...]:
        return self._cardinalities

    def raw_size(self) -> int:
        """Cartesian-product size, ignoring gating (the paper's 1.69e17)."""
        return math.prod(self._cardinalities)

    def raw_boolean_size(self) -> int:
        """On/off-only cartesian size (the paper's '642 million' figure
        counts pass toggles only, i.e. boolean dimensions)."""
        return 2 ** sum(spec.is_boolean for spec in self.specs)

    def distinct_size(self, booleans_only: bool = False) -> int:
        """Number of *behaviourally distinct* settings, honouring gating.

        A child dimension contributes choices only when its parent is on, so
        the count is a product over parent groups of
        ``(1 + children_product)`` rather than a plain cartesian product.
        """
        children: dict[str, list[FlagSpec]] = {}
        top_level: list[FlagSpec] = []
        for spec in self.specs:
            if spec.parent is None:
                top_level.append(spec)
            else:
                children.setdefault(spec.parent, []).append(spec)

        def dim_card(spec: FlagSpec) -> int:
            if booleans_only and not spec.is_boolean:
                return 1
            return spec.cardinality

        size = 1
        for spec in top_level:
            if spec.name in children:
                sub = 1
                for child in children[spec.name]:
                    sub *= dim_card(child)
                # parent off (1 behaviour) or on (sub behaviours)
                size *= 1 + sub
            else:
                size *= dim_card(spec)
        return size

    def sample(self, rng: random.Random) -> FlagSetting:
        """Draw one setting uniformly at random (per dimension)."""
        values = {spec.name: rng.choice(spec.values) for spec in self.specs}
        return FlagSetting(values)

    def sample_many(self, count: int, seed: int) -> list[FlagSetting]:
        """Draw ``count`` distinct settings deterministically from ``seed``.

        This is the paper's §4.3 protocol: iterative compilation evaluates
        1000 uniform-random points of the space.
        """
        return self.sample_distinct(count, random.Random(seed))

    def sample_distinct(
        self, count: int, rng: random.Random
    ) -> list[FlagSetting]:
        """Draw ``count`` distinct settings from an existing RNG stream.

        Consumes exactly the draws :meth:`sample_many` would for the
        same stream state, so a search strategy threading one seeded
        ``rng`` through its whole run reproduces the legacy seed-fresh
        behaviour bit for bit.
        """
        seen: set[FlagSetting] = set()
        settings: list[FlagSetting] = []
        # The space is astronomically larger than any request, so rejection
        # sampling terminates almost immediately.
        while len(settings) < count:
            setting = self.sample(rng)
            if setting not in seen:
                seen.add(setting)
                settings.append(setting)
        return settings

    def neighbours(self, setting: FlagSetting) -> Iterator[FlagSetting]:
        """All settings at Hamming distance one (for hill climbing)."""
        for spec in self.specs:
            for value in spec.values:
                if value != setting[spec.name]:
                    yield setting.with_values(**{spec.name: value})


def o3_setting() -> FlagSetting:
    """gcc 4.2's -O3: the paper's baseline that all speedups are relative to."""
    return FlagSetting({spec.name: spec.o3 for spec in FLAG_SPECS})


def o0_setting() -> FlagSetting:
    """Everything off, parameters at their least aggressive values."""
    values = {}
    for spec in FLAG_SPECS:
        values[spec.name] = False if spec.is_boolean else spec.values[0]
    return FlagSetting(values)


DEFAULT_SPACE = FlagSpace()
