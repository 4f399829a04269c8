"""The family construction (``naive_oracles.of_family``, Winskel's
Theorem 1.1.12) against the longhand one it replaced: the frozenset
constructor fed ``(member - {e}, e)`` for every member and event.  Both
run the same interning and minimality tail, so they must agree on every
attribute and every query; and the structure ``nes_of_ets`` builds on
masks agrees with both.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import bandwidth_cap_app
from naive_oracles import family_of_ets, of_family
from repro.events.ets_to_nes import nes_of_ets
from repro.events.structure import EventStructure, _extremal
from repro.pipeline import Pipeline
from seed_apps import APPS

PROGRAMS = list(APPS) + [
    (f"cap{depth}", lambda depth=depth: bandwidth_cap_app(depth))
    for depth in (4, 8, 24)
]


def longhand(family):
    """What ``nes_of_ets`` built before the family construction."""
    members = [frozenset(member) for member in family]
    events = frozenset().union(*members)
    base = [(member - {e}, e) for member in members for e in member]
    return EventStructure(events, members, base)


def assert_same_structure(family, probes):
    new, old = of_family(family), longhand(family)
    assert new.universe == old.universe
    assert new.events == old.events
    assert new.covers == old.covers
    assert new.all_mask == old.all_mask
    assert new.maximal_cover_masks == old.maximal_cover_masks
    assert new._base_masks == old._base_masks
    for event in old.universe:
        assert new.minimal_enablers(event) == old.minimal_enablers(event)
    for probe in probes:
        assert new.con(probe) == old.con(probe)
        for event in old.universe:
            assert new.enables(probe, event) == old.enables(probe, event)
    assert new.event_sets() == old.event_sets()
    # One set of attributes, in one order, whichever entry point ran.
    assert list(new.__dict__) == list(old.__dict__)


@pytest.mark.parametrize("name,make", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_seed_families_agree_with_the_longhand_construction(name, make):
    app = make()
    ets = Pipeline(app.program, app.topology, app.initial_state).ets
    family = family_of_ets(ets)
    rng = random.Random(name)
    universe = sorted(frozenset().union(*family), key=repr)
    probes = list(family) + [
        frozenset(rng.sample(universe, rng.randint(0, len(universe))))
        for _ in range(20)
    ]
    assert_same_structure(family, probes)
    structure = nes_of_ets(ets).structure
    # Theorem 1.1.12: a family the conversion accepts is exactly the
    # event-sets of the structure built from it.
    assert structure.event_sets() == frozenset(family)
    assert structure.maximal_cover_masks == longhand(family).maximal_cover_masks
    assert structure._base_masks == longhand(family)._base_masks


SHAPES = {
    "empty universe": [frozenset()],
    "diamond": [frozenset(), {"a"}, {"b"}, {"a", "b"}],
    "chain": [frozenset(), {"a"}, {"a", "b"}, {"a", "b", "c"}],
    "two disjoint blocks": [frozenset(), {"a"}, {"a", "b"}, {"x"}, {"x", "y"}],
    "duplicate members": [frozenset(), {"a"}, {"a"}, frozenset(), {"a", "b"}],
    "conflict": [frozenset(), {"a"}, {"b"}],
}


@pytest.mark.parametrize("shape", SHAPES)
def test_named_shapes_agree(shape):
    family = [frozenset(member) for member in SHAPES[shape]]
    universe = sorted(frozenset().union(*family))
    probes = [
        frozenset(c) for n in range(len(universe) + 1)
        for c in combinations(universe, n)
    ]
    assert_same_structure(family, probes)


@given(st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=14))
@settings(max_examples=300, deadline=None)
def test_random_families_agree(members):
    family = members + [frozenset()]  # a real family contains the empty set
    probes = members + [frozenset(range(n)) for n in range(9)]
    assert_same_structure(family, probes)


def quadratic_extremal(masks, maximal):
    """The all-pairs filters ``_extremal`` replaced."""
    masks = set(masks)
    if maximal:
        kept = (m for m in masks if not any(m != o and m | o == o for o in masks))
    else:
        kept = (m for m in masks if not any(o != m and o | m == m for o in masks))
    return tuple(sorted(kept))


@given(st.lists(st.integers(0, 255), max_size=30), st.booleans())
@settings(max_examples=500, deadline=None)
def test_extremal_equals_the_quadratic_filter(masks, maximal):
    # Lists, not sets: equal masks and equal popcounts (ties) included.
    assert _extremal(masks, maximal) == quadratic_extremal(masks, maximal)


def test_extremal_ties_and_edges():
    assert _extremal([], True) == _extremal([], False) == ()
    assert _extremal([0], True) == _extremal([0], False) == (0,)
    assert _extremal([0b01, 0b10, 0b01], True) == (0b01, 0b10)
    assert _extremal([0b01, 0b10, 0b11, 0], True) == (0b11,)
    assert _extremal([0b01, 0b10, 0b11], False) == (0b01, 0b10)
    assert _extremal([0b01, 0b10, 0b11, 0], False) == (0,)


def test_frozenset_constructor_still_rejects_unknown_events():
    with pytest.raises(ValueError, match="cover"):
        EventStructure(["a"], [frozenset({"z"})], [])
    with pytest.raises(ValueError, match="unknown event"):
        EventStructure(["a"], [frozenset({"a"})], [(frozenset(), "z")])
    with pytest.raises(ValueError, match="enabling base"):
        EventStructure(["a"], [frozenset({"a"})], [(frozenset({"z"}), "a")])


def test_nes_of_ets_encodes_each_member_once(monkeypatch):
    """Exact-count guard: the conversion encodes no family member at all
    -- it walks masks -- where it once made 1 275 ``encode`` calls on
    cap-48 (the enabling base spelled as ``member - {event}``
    frozensets) and then one per member."""
    app = bandwidth_cap_app(48)
    ets = Pipeline(app.program, app.topology, app.initial_state).ets
    family = family_of_ets(ets)
    calls = []
    encode = EventStructure.encode
    monkeypatch.setattr(
        EventStructure, "encode",
        lambda self, subset: calls.append(1) or encode(self, subset),
    )
    nes_of_ets(ets)
    assert len(family) == 50
    assert calls == []
