"""Property tests: the antichain-driven LUB-closure check agrees with the
retained quadratic reference on randomized event-set families.

``check_finite_complete`` only inspects family keys (hashable,
repr-sortable elements), so the strategies build families of integer
sets directly; a final test runs both checkers over the real
``family_of_ets`` output of seed applications.  Both are the
frozenset references in ``naive_oracles``; the conversion's own check
on masks is held to them on the random families.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import bandwidth_cap_app, firewall_app, ids_app
from repro.events.ets_to_nes import _finite_completeness_violations
from repro.events.structure import _extremal
from naive_oracles import (
    check_finite_complete,
    check_finite_complete_naive,
    family_of_ets,
)


def normalized(violations):
    """Violations as an order-insensitive set of unordered pairs."""
    return {frozenset((a, b)) for a, b in violations}


def mask_violations(family):
    """The conversion's own check, on the members encoded in repr order."""
    universe = sorted(frozenset().union(*family), key=repr)
    index = {element: i for i, element in enumerate(universe)}
    encoded = {sum(1 << index[e] for e in member): member for member in family}
    masks = list(encoded)
    pairs = _finite_completeness_violations(masks, _extremal(masks, True))
    return [(encoded[m1], encoded[m2]) for m1, m2 in pairs]


def as_family(members):
    # Real families always contain the empty set (the initial state).
    return {m: None for m in list(members) + [frozenset()]}


@given(st.lists(st.frozensets(st.integers(0, 9), max_size=6), max_size=24))
@settings(max_examples=200, deadline=None)
def test_agrees_with_naive_on_random_families(members):
    family = as_family(members)
    assert normalized(check_finite_complete(family)) == normalized(
        check_finite_complete_naive(family)
    )
    assert normalized(mask_violations(family)) == normalized(
        check_finite_complete_naive(family)
    )


@pytest.mark.parametrize("seed", range(10))
def test_agrees_with_naive_on_seeded_random_families(seed):
    """The agreement property on seeded plain-random families."""
    rng = random.Random(seed)
    for _ in range(40):
        members = [
            frozenset(rng.sample(range(10), rng.randint(0, 6)))
            for _ in range(rng.randint(0, 24))
        ]
        family = as_family(members)
        assert normalized(check_finite_complete(family)) == normalized(
            check_finite_complete_naive(family)
        )


@pytest.mark.parametrize("seed", range(20))
def test_agrees_on_blocky_families(seed):
    """Families shaped like wide structures: independent blocks of subsets
    with random members deleted (deletions create closure violations)."""
    rng = random.Random(seed)
    members = []
    for block in range(rng.randint(1, 4)):
        base = range(block * 4, block * 4 + rng.randint(2, 4))
        subsets = [
            frozenset(e for e in base if rng.random() < 0.6) for _ in range(12)
        ]
        members.extend(s for s in subsets if rng.random() < 0.8)
    family = as_family(members)
    assert normalized(check_finite_complete(family)) == normalized(
        check_finite_complete_naive(family)
    )


def test_detects_the_figure_3c_shape():
    """{a} and {b} below the bound {a,b,c}, but {a,b} missing."""
    family = as_family(
        [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b", "c"}),
        ]
    )
    violations = normalized(check_finite_complete(family))
    assert violations == normalized(check_finite_complete_naive(family))
    assert frozenset((frozenset({"a"}), frozenset({"b"}))) in violations


def test_union_closed_family_has_no_violations():
    members = [
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
        frozenset({"a", "b", "c"}),
    ]
    assert check_finite_complete(as_family(members)) == []


def test_incomparable_pair_without_upper_bound_is_fine():
    # {a} and {b} never share an upper bound: no closure obligation.
    assert check_finite_complete(as_family([frozenset("a"), frozenset("b")])) == []


@pytest.mark.parametrize(
    "make", [firewall_app, ids_app, lambda: bandwidth_cap_app(8)]
)
def test_agrees_on_seed_app_families(make):
    family = family_of_ets(make().ets)
    assert check_finite_complete(family) == []
    assert check_finite_complete_naive(family) == []
