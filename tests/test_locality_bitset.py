"""Golden-equivalence tests for the bitset event-structure engine.

The production paths (bitmask ``con``/``enables``, Berge transversal
enumeration of minimally-inconsistent sets) must agree exactly with the
definitional brute force.  Naive references here are deliberately
independent of the engine: consistency straight off the cover family,
enabling straight off the minimal-enabler bases, event sets by frontier
search over frozensets, and minimally-inconsistent sets via the retained
:func:`naive_oracles.minimally_inconsistent_sets_naive`.
"""

import random

import pytest

from repro.apps import (
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    learning_multi_app,
    learning_switch_app,
    ring_app,
)
from naive_oracles import minimally_inconsistent_sets_naive
from repro.events.event import Event
from repro.events.locality import (
    is_locally_determined,
    locality_violations,
    minimally_inconsistent_masks,
    minimally_inconsistent_sets,
)
from repro.events.nes import NES
from repro.events.structure import EventStructure
from repro.formula import EQ, Formula, Literal
from repro.netkat.ast import ID
from repro.netkat.packet import Location

SEED_APPS = [
    firewall_app,
    learning_switch_app,
    learning_multi_app,
    authentication_app,
    ids_app,
    lambda: ring_app(4),
    lambda: bandwidth_cap_app(5),
    lambda: bandwidth_cap_app(8),
]


# -- engine-independent references -------------------------------------------


def naive_con(structure, subset):
    needle = frozenset(subset)
    if not needle:
        return True
    return any(needle <= cover for cover in structure.covers)


def naive_enables(structure, enabler, event):
    enabler_set = frozenset(enabler)
    return any(base <= enabler_set for base in structure.minimal_enablers(event))


def naive_event_sets(structure):
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        current = frontier.pop()
        for event in structure.events:
            if event in current:
                continue
            if not naive_enables(structure, current, event):
                continue
            extended = current | {event}
            if not naive_con(structure, extended):
                continue
            if extended not in found:
                found.add(extended)
                frontier.append(extended)
    return frozenset(found)


def naive_locality_violations(nes):
    return frozenset(
        s
        for s in minimally_inconsistent_sets_naive(nes.structure)
        if len({e.location.switch for e in s}) > 1
    )


# -- seed applications -------------------------------------------------------


@pytest.mark.parametrize("make_app", SEED_APPS)
def test_seed_app_minimally_inconsistent_sets_match_naive(make_app):
    structure = make_app().nes.structure
    assert minimally_inconsistent_sets(structure) == minimally_inconsistent_sets_naive(
        structure
    )


@pytest.mark.parametrize("make_app", SEED_APPS)
def test_seed_app_event_sets_match_naive(make_app):
    structure = make_app().nes.structure
    assert structure.event_sets() == naive_event_sets(structure)


@pytest.mark.parametrize("make_app", SEED_APPS)
def test_seed_app_locality_matches_naive(make_app):
    nes = make_app().nes
    naive = naive_locality_violations(nes)
    assert locality_violations(nes) == naive
    assert is_locally_determined(nes) == (not naive)


# -- randomized structures ---------------------------------------------------


def random_nes(rng: random.Random) -> NES:
    n = rng.randint(1, 8)
    events = [
        Event(
            Formula((Literal("f", EQ, i),)),
            Location(rng.randint(1, 3), 1),
        )
        for i in range(n)
    ]
    covers = [
        frozenset(rng.sample(events, rng.randint(0, n)))
        for _ in range(rng.randint(0, 5))
    ]
    base = [
        (
            frozenset(rng.sample(events, rng.randint(0, min(2, n)))),
            rng.choice(events),
        )
        for _ in range(rng.randint(0, 8))
    ]
    structure = EventStructure(events, covers, base)
    return NES(structure, {frozenset(): (0,)}, {(0,): ID})


@pytest.mark.parametrize("seed", range(60))
def test_random_structure_matches_naive(seed):
    rng = random.Random(seed)
    nes = random_nes(rng)
    structure = nes.structure
    assert minimally_inconsistent_sets(structure) == minimally_inconsistent_sets_naive(
        structure
    )
    assert structure.event_sets() == naive_event_sets(structure)
    naive = naive_locality_violations(nes)
    assert locality_violations(nes) == naive
    assert is_locally_determined(nes) == (not naive)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("max_size", [1, 2, 3])
def test_random_structure_bounded_query_matches_naive(seed, max_size):
    structure = random_nes(random.Random(1000 + seed)).structure
    assert minimally_inconsistent_sets(
        structure, max_size
    ) == minimally_inconsistent_sets_naive(structure, max_size)


@pytest.mark.parametrize("seed", range(20))
def test_bounded_after_unbounded_uses_cache_consistently(seed):
    structure = random_nes(random.Random(2000 + seed)).structure
    unbounded = minimally_inconsistent_sets(structure)
    for k in (1, 2, 3):
        bounded = minimally_inconsistent_sets(structure, k)
        assert bounded == frozenset(s for s in unbounded if len(s) <= k)
        assert bounded == minimally_inconsistent_sets_naive(structure, k)


def test_masks_decode_to_sets():
    structure = random_nes(random.Random(7)).structure
    masks = minimally_inconsistent_masks(structure)
    assert frozenset(structure.decode(m) for m in masks) == minimally_inconsistent_sets(
        structure
    )
    assert all(m.bit_count() >= 1 for m in masks)


def test_no_covers_means_singletons_minimal():
    structure = EventStructure(["a", "b", "c"], [], [])
    assert minimally_inconsistent_sets(structure) == frozenset(
        {frozenset({"a"}), frozenset({"b"}), frozenset({"c"})}
    )
    assert minimally_inconsistent_sets(
        structure
    ) == minimally_inconsistent_sets_naive(structure)


def test_full_cover_means_nothing_inconsistent():
    events = ["a", "b", "c"]
    structure = EventStructure(events, [frozenset(events)], [])
    assert minimally_inconsistent_sets(structure) == frozenset()
    assert minimally_inconsistent_sets(
        structure
    ) == minimally_inconsistent_sets_naive(structure)


def test_empty_cover_only_means_singletons_minimal():
    structure = EventStructure(["a", "b"], [frozenset()], [])
    assert minimally_inconsistent_sets(structure) == frozenset(
        {frozenset({"a"}), frozenset({"b"})}
    )
    assert minimally_inconsistent_sets(
        structure
    ) == minimally_inconsistent_sets_naive(structure)


def test_chain_structure_has_no_inconsistent_sets():
    """The bandwidth-cap regime: every subset of the chain is consistent."""
    structure = bandwidth_cap_app(20).nes.structure
    assert minimally_inconsistent_sets(structure) == frozenset()
