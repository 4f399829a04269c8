"""The ETS -> NES conversion on masks (``nes_of_ets``) against the
frozenset references it replaced (``naive_oracles.nes_of_ets_naive``:
``family_of_ets``, ``check_finite_complete`` and ``of_family``).

Both must build the same structure -- universe, maximal covers,
minimal enablers, covers -- the same ``g``, the same configurations
and ``_condition1_pairs``, and raise the same error with the same
message.  A message prints event-sets as Python sets, whose element
order follows hashing and insertion history, so messages are compared
with each printed set's elements sorted.

Separately, hand-built ETSs in which one event has several minimal
enablers pin ``_base_masks``: no seed app or bandwidth-cap chain has
such an event, and the conversion reads enablers off the walk's
recorded parents, all of which must count.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from naive_oracles import family_of_ets, nes_of_ets_naive
from repro.apps import bandwidth_cap_app
from repro.events.ets_to_nes import (
    ETSConversionError,
    FiniteCompletenessError,
    UniqueConfigurationError,
    _is_chain,
    nes_of_ets,
)
from repro.events.event import Event
from repro.formula import EQ, Formula, Literal
from repro.netkat.ast import assign
from repro.netkat.packet import Location
from repro.pipeline import Pipeline
from repro.stateful.ets import ETS, build_ets
from repro.stateful import EventEdge
from seed_apps import APPS
from test_differential import random_stateful_policy

CAPS = (4, 8, 24, 48)


def ev(name, switch=1):
    return Event(Formula((Literal(name, EQ, 1),)), Location(switch, 1))


def make_ets(initial, configs, edges):
    return ETS(
        initial=initial,
        vertices=tuple(configs.items()),
        edges=frozenset(EventEdge(*edge) for edge in edges),
    )


def fresh(ets):
    """An equal ETS carrying none of ``ets``'s derived indexes."""
    return ETS(initial=ets.initial, vertices=ets.vertices, edges=ets.edges)


def _sorted_sets(message):
    """``message`` with each printed set's elements (``(guard, loc)``,
    optionally ``_k``) in sorted order."""
    def sort(match):
        return "{" + ", ".join(sorted(re.split(r", (?=\()", match.group(1)))) + "}"

    return re.sub(r"\{([^{}]*)\}", sort, message)


def convert(convert_fn, ets, max_occurrences):
    try:
        return convert_fn(ets, max_occurrences), None
    except ETSConversionError as error:
        return None, error


def assert_same_conversion(ets, max_occurrences=None):
    """Convert a fresh copy of ``ets`` each way and compare everything."""
    reference_ets, mask_ets = fresh(ets), fresh(ets)
    expected, expected_error = convert(nes_of_ets_naive, reference_ets, max_occurrences)
    actual, error = convert(
        lambda e, bound: nes_of_ets(e, max_occurrences=bound), mask_ets, max_occurrences
    )
    if expected_error is not None:
        assert type(error) is type(expected_error)
        assert _sorted_sets(str(error)) == _sorted_sets(str(expected_error))
        return type(error)
    assert error is None, error
    new, old = actual.structure, expected.structure
    assert new.universe == old.universe
    assert new.maximal_cover_masks == old.maximal_cover_masks
    assert new._base_masks == old._base_masks
    assert new.covers == old.covers
    assert actual._g == expected._g
    decoded = {new.decode(mask): state for mask, state in actual._g.items()}
    assert decoded == family_of_ets(fresh(ets), max_occurrences)
    assert actual._configurations == expected._configurations
    assert actual.configuration_states() == expected.configuration_states()
    assert mask_ets._condition1_pairs == reference_ets._condition1_pairs
    return None


# -- the seed apps, the chains and their set_state sub-ETSs ------------------


def ets_of(app, initial=None):
    initial = app.initial_state if initial is None else initial
    return Pipeline(app.program, app.topology, initial).ets


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_seed_apps_convert_alike(name, make):
    assert assert_same_conversion(ets_of(make())) is None


@pytest.mark.parametrize("depth", CAPS)
def test_chains_convert_alike(depth):
    assert assert_same_conversion(ets_of(bandwidth_cap_app(depth))) is None


@pytest.mark.parametrize("state", [1, 4, 8])
def test_set_state_sub_ets_converts_alike(state):
    """The ETS a ``set_state`` delta makes: cap24 restarted at a later
    counter, so occurrence renaming restarts there."""
    app = bandwidth_cap_app(24)
    sub = ets_of(app, (state,))
    assert len(sub.states()) < len(ets_of(app).states())
    assert assert_same_conversion(sub) is None


# -- random ETSs ----------------------------------------------------------------


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_stateful_policy_etss_convert_alike(seed):
    program = random_stateful_policy(random.Random(seed), 3)
    try:
        ets = build_ets(program, (0, 0))
    except Exception:  # outside the compilable fragment
        assume(False)
    assert_same_conversion(ets)


EVENTS = [ev("a"), ev("b"), ev("c"), ev("a", switch=2)]


@st.composite
def random_graph_ets(draw):
    """Small ETSs of any shape: diamonds, conflicts, repeated events,
    loops, and configurations drawn from a small pool, so both
    conditions of section 3.1 fail now and then."""
    n = draw(st.integers(1, 6))
    states = [(i,) for i in range(n)]
    configs = {s: assign("cfg", draw(st.integers(0, 2))) for s in states}
    hops = st.tuples(st.integers(0, n - 1), st.sampled_from(EVENTS), st.integers(1, max(n - 1, 1)))
    edges = [
        (states[src], event, states[(src + step) % n])  # never a self-loop
        for src, event, step in draw(st.lists(hops, max_size=9 if n > 1 else 0))
    ]
    return make_ets(states[0], configs, edges)


@given(random_graph_ets(), st.sampled_from([None, 3]))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_graph_etss_convert_alike(ets, max_occurrences):
    assert_same_conversion(ets, max_occurrences)


@st.composite
def random_path_tree(draw):
    """The tree of a few random event sequences, every vertex one
    configuration: condition 1 always holds, and condition 2 fails
    whenever two prefixes lie below a third path without their union
    (about one tree in five)."""
    paths = draw(st.lists(st.lists(st.sampled_from(EVENTS), unique=True, max_size=4), max_size=4))
    states = {(): (0,)}
    edges = []
    for path in map(tuple, paths):
        for i in range(1, len(path) + 1):
            if path[:i] not in states:
                states[path[:i]] = (len(states),)
                edges.append((states[path[: i - 1]], path[i - 1], states[path[:i]]))
    return make_ets((0,), {state: assign("cfg", 0) for state in states.values()}, edges)


@given(random_path_tree())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_path_trees_convert_alike(ets):
    assert_same_conversion(ets)


# -- every error, on the paper's own shapes ------------------------------------

A, B, C, D = ev("a"), ev("b"), ev("c"), ev("d")


def distinct(n):
    return {(i,): assign("cfg", i) for i in range(n)}


FAILING = {
    # Figure 3(c): {a} and {c} lie below {a, d, c}, but {a, c} is missing.
    "condition 2": (
        make_ets((0,), distinct(5), [
            ((0,), A, (1,)), ((0,), C, (2,)), ((1,), D, (3,)), ((3,), C, (4,)),
        ]),
        FiniteCompletenessError,
    ),
    # Four condition-2 violations below {a, d, b, c}: {a} and {b}, {a}
    # and {c}, {b} and {c}, {c} and {a, d}.  The message counts them
    # all and names the first in canonical order.
    "condition 2, four pairs": (
        make_ets((0,), distinct(8), [
            ((0,), A, (1,)), ((0,), B, (2,)), ((0,), C, (3,)),
            ((1,), D, (4,)), ((4,), B, (5,)), ((5,), C, (6,)),
        ]),
        FiniteCompletenessError,
    ),
    # {a, b} collected at two states with different configurations.
    "condition 1": (
        make_ets((0,), distinct(5), [
            ((0,), A, (1,)), ((0,), B, (2,)), ((1,), B, (3,)), ((2,), A, (4,)),
        ]),
        UniqueConfigurationError,
    ),
    "occurrence bound": (
        make_ets((0,), distinct(2), [((0,), A, (1,)), ((1,), A, (0,))]),
        ETSConversionError,
    ),
}


@pytest.mark.parametrize("name", FAILING)
def test_each_error_is_the_reference_error(name):
    ets, kind = FAILING[name]
    assert assert_same_conversion(ets) is kind
    assert assert_same_conversion(ets, max_occurrences=2) is kind
    with pytest.raises(kind):
        nes_of_ets(fresh(ets))


def test_condition_2_counts_every_violation_and_names_the_first():
    ets, _ = FAILING["condition 2, four pairs"]
    with pytest.raises(FiniteCompletenessError) as caught:
        nes_of_ets(fresh(ets))
    assert str(caught.value) == (
        "event-sets {(a=1, 1:1)} and {(b=1, 1:1)} have an upper bound in F(T) "
        "but their union is not in F(T) (4 violating pair(s) total; condition 2 "
        "of section 3.1, e.g. Figure 3(c))"
    )


def test_a_chain_class_beside_a_violation_keeps_the_count_and_first_pair():
    """Figure 3(c) beside a chain e < f < g < h: the chain's members form
    a class of their own, skipped whole, and the one violation is still
    counted and named."""
    e, f, g, h = ev("e"), ev("f"), ev("g"), ev("h")
    ets = make_ets((0,), distinct(9), [
        ((0,), A, (1,)), ((0,), C, (2,)), ((1,), D, (3,)), ((3,), C, (4,)),
        ((0,), e, (5,)), ((5,), f, (6,)), ((6,), g, (7,)), ((7,), h, (8,)),
    ])
    assert assert_same_conversion(ets) is FiniteCompletenessError
    with pytest.raises(FiniteCompletenessError) as caught:
        nes_of_ets(fresh(ets))
    assert str(caught.value) == (
        "event-sets {(a=1, 1:1)} and {(c=1, 1:1)} have an upper bound in F(T) "
        "but their union is not in F(T) (1 violating pair(s) total; condition 2 "
        "of section 3.1, e.g. Figure 3(c))"
    )


def test_a_chain_family_checks_no_pair(monkeypatch):
    """Every pair of a chain is comparable, so cap-48's 1 225 pairs are
    skipped whole: its one class is a chain, and no union is formed."""
    import repro.events.ets_to_nes as ets_to_nes

    chains = []
    real = ets_to_nes._is_chain
    monkeypatch.setattr(
        ets_to_nes, "_is_chain", lambda masks: chains.append(len(masks)) or real(masks)
    )
    nes_of_ets(fresh(Pipeline(*_cap48_inputs()).ets))
    assert chains == [50]
    assert _is_chain([0, 1, 3, 7]) and not _is_chain([0, 1, 2, 3])


def _cap48_inputs():
    app = bandwidth_cap_app(48)
    return app.program, app.topology, app.initial_state


def test_an_acyclic_conversion_never_asks_for_cycles(monkeypatch):
    """The default occurrence bound matters only once an occurrence
    reaches 64, so a cold conversion below that never runs the Kahn
    peel; a deeper chain runs it once, kept on the ETS, and converts."""
    peels = []
    real = ETS.has_loops
    monkeypatch.setattr(
        ETS, "has_loops",
        lambda self: peels.append("_has_loops" not in vars(self)) or real(self),
    )
    nes_of_ets(fresh(Pipeline(*_cap48_inputs()).ets))
    assert peels == []
    app = bandwidth_cap_app(70)
    nes = nes_of_ets(Pipeline(app.program, app.topology, app.initial_state).ets)
    assert len(nes.events) == 71 and peels[0] and not any(peels[1:])


# -- events with several minimal enablers ----------------------------------------

MULTI = {
    # c follows a or b, which conflict: c has two incomparable enablers.
    "two roads": (
        [((0,), A, (1,)), ((0,), B, (2,)), ((1,), C, (3,)), ((2,), C, (4,))],
        5,
        {"a": [""], "b": [""], "c": ["a", "b"]},
    ),
    "three roads": (
        [((0,), A, (1,)), ((0,), B, (2,)), ((0,), C, (3,)),
         ((1,), D, (4,)), ((2,), D, (5,)), ((3,), D, (6,))],
        7,
        {"a": [""], "b": [""], "c": [""], "d": ["a", "b", "c"]},
    ),
    # The walk reaches {a, b} (via b first) and extends it by d before
    # it extends {a} by d: the first recorded parent is not minimal.
    "a later, smaller parent": (
        [((0,), A, (1,)), ((0,), B, (2,)), ((2,), A, (3,)), ((1,), B, (3,)),
         ((3,), D, (4,)), ((1,), D, (5,)), ((5,), B, (4,))],
        6,
        {"a": [""], "b": [""], "d": ["a"]},
    ),
}


@pytest.mark.parametrize("name", MULTI)
def test_several_minimal_enablers_are_kept(name):
    edges, states, enablers = MULTI[name]
    ets = make_ets((0,), distinct(states), edges)
    structure = nes_of_ets(ets).structure
    names = {event: next(iter(event.guard.literals)).field for event in structure.universe}
    bit = {name: 1 << i for i, name in enumerate(map(names.get, structure.universe))}
    expected = {
        structure.event_index[event]: tuple(sorted(
            sum(bit[member] for member in enabler) for enabler in enablers[names[event]]
        ))
        for event in structure.universe
    }
    assert structure._base_masks == expected
    assert_same_conversion(ets)
