"""The memoised ``FlagSetting.canonical`` against the dict-built original.

``canonical()`` computes a setting's canonical form once, straight from
its value tuple, and a canonical setting is its own canonical form.  A
memo must never serve a stale answer, so the property tests compare it
with :func:`reference_canonical` — the original body, which built a
value dict and re-ran ``__init__``'s validation on every call — on
random settings (roughly half of all gating parents are off), after
``with_values`` derives a new setting from a canonical one, and through
pickling and copying.
"""

from __future__ import annotations

import copy
import gc
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import FLAG_NAMES, FLAG_SPECS, FlagSetting, o3_setting

index_vectors = st.tuples(
    *(st.integers(0, spec.cardinality - 1) for spec in FLAG_SPECS)
)


def reference_canonical(setting: FlagSetting) -> FlagSetting:
    """The dict-built canonical form the memo replaced."""
    values = {}
    for spec in FLAG_SPECS:
        if spec.parent is not None and not setting[spec.parent]:
            values[spec.name] = spec.o3
        else:
            values[spec.name] = setting[spec.name]
    return FlagSetting(values)


def assert_same_setting(left: FlagSetting, right: FlagSetting) -> None:
    assert left == right
    assert hash(left) == hash(right)
    assert left.as_indices() == right.as_indices()
    assert dict(left) == dict(right)


def assert_canonical_of(setting: FlagSetting) -> None:
    """``setting.canonical()`` is right, stable and its own canonical."""
    canonical = setting.canonical()
    assert_same_setting(canonical, reference_canonical(setting))
    assert setting.canonical() is canonical
    assert canonical.canonical() is canonical
    if canonical == setting:
        assert canonical is setting


class TestCanonicalMemo:
    @settings(max_examples=300, deadline=None)
    @given(indices=index_vectors)
    def test_equals_dict_built_reference(self, indices):
        built = FlagSetting.from_indices(indices)
        mapped = FlagSetting(dict(built))
        assert_canonical_of(built)
        assert_canonical_of(mapped)
        assert_same_setting(built.canonical(), mapped.canonical())

    @settings(max_examples=300, deadline=None)
    @given(indices=index_vectors, data=st.data())
    def test_with_values_on_canonical_recomputes(self, indices, data):
        canonical = FlagSetting.from_indices(indices).canonical()
        dimension = data.draw(st.integers(0, len(FLAG_SPECS) - 1))
        spec = FLAG_SPECS[dimension]
        value = data.draw(st.sampled_from(spec.values))
        derived = canonical.with_values(**{spec.name: value})
        assert_canonical_of(derived)

    @settings(max_examples=200, deadline=None)
    @given(indices=index_vectors, computed=st.booleans())
    def test_pickle_and_copy_keep_equality_and_hash(self, indices, computed):
        setting = FlagSetting(dict(FlagSetting.from_indices(indices)))
        if computed:
            setting.canonical()
        for original in (setting, setting.canonical()):
            for restored in (
                pickle.loads(pickle.dumps(original)),
                copy.copy(original),
                copy.deepcopy(original),
            ):
                assert_same_setting(restored, original)
                assert_same_setting(
                    restored.canonical(), reference_canonical(original)
                )
                assert restored.canonical().canonical() == restored.canonical()

    def test_canonical_settings_die_by_refcount(self):
        # A canonical setting must not refer to itself: a cycle would
        # leave it (and any setting pointing at it) to the cyclic GC,
        # which DEBUG_SAVEALL makes keep what it frees in gc.garbage.
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for setting in (
                o3_setting(),
                o3_setting().with_values(fgcse=False, fgcse_sm=True),
            ):
                canonical = setting.canonical()
                assert canonical.canonical() is canonical
                assert canonical not in gc.get_referents(canonical)
                del setting, canonical
            gc.collect()
            assert not [obj for obj in gc.garbage if isinstance(obj, FlagSetting)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    def test_gated_alias_shares_one_canonical_form(self):
        alias = o3_setting().with_values(fgcse=False, fgcse_sm=True)
        canonical = alias.canonical()
        assert canonical is not alias
        assert canonical["fgcse_sm"] is False
        assert canonical == o3_setting().with_values(fgcse=False).canonical()
        assert_canonical_of(alias)

    def test_parent_switched_off_after_canonicalising(self):
        # A canonical setting with a non-O3 child; turning the parent off
        # must collapse the child, not reuse the memo of the source.
        source = o3_setting().with_values(fgcse_sm=True).canonical()
        assert source.canonical() is source
        derived = source.with_values(fgcse=False)
        assert derived.canonical()["fgcse_sm"] is False
        assert derived.canonical() != derived
        assert set(derived.canonical()) == set(FLAG_NAMES)
