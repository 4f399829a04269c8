"""One conjunction algebra, two key spaces.

``Formula`` (packet fields) and ``StateGuard`` (state-component indices)
share every combinator of ``repro.formula``; each test here runs over
both, against a specification written out in the test.
"""

import random

import pytest

from repro.formula import EQ, NE, Formula, Literal, StateGuard
from repro.netkat.packet import Packet

VALUES = range(3)

# (type, its keys, an environment for ``holds`` from a key -> value map)
KEY_SPACES = [
    pytest.param(Formula, ["a", "b", "c"], Packet, id="Formula"),
    pytest.param(
        StateGuard, [0, 1, 2], lambda env: tuple(env[m] for m in range(3)),
        id="StateGuard",
    ),
]


def satisfiable(literals) -> bool:
    """The specification: no key is pinned to two values, and no key is
    pinned to a value it is also told to differ from."""
    pinned = {}
    for l in literals:
        if l.op == EQ and pinned.setdefault(l.field, l.value) != l.value:
            return False
    return not any(
        l.op == NE and pinned.get(l.field) == l.value for l in literals
    )


def fold(kind, literals):
    out = kind.true()
    for l in literals:
        out = out.conjoin(l)
        if out is None:
            return None
    return out


@pytest.mark.parametrize("kind,keys,environment", KEY_SPACES)
def test_every_way_to_build_a_conjunction_agrees(kind, keys, environment):
    rng = random.Random(20)
    built = unsatisfiable = 0
    for _ in range(600):
        literals = [
            Literal(rng.choice(keys), rng.choice((EQ, NE)), rng.choice(VALUES))
            for _ in range(rng.randrange(7))
        ]
        folded = fold(kind, literals)
        assert kind.true().conjoin_all(literals) == folded
        cut = rng.randrange(len(literals) + 1)
        left, right = fold(kind, literals[:cut]), fold(kind, literals[cut:])
        met = left.meet(right) if left and right else None
        if not satisfiable(literals):
            unsatisfiable += 1
            assert folded is None and met is None
            with pytest.raises(ValueError):
                kind(literals)
            continue
        built += 1
        whole = kind(literals)
        assert folded == met == whole
        assert hash(folded) == hash(met) == hash(whole)
        assert repr(folded) == repr(met) == repr(whole)
        assert right.meet(left) == whole
        # Canonical: a pinned key keeps its positive literal only.
        pinned = {l.field for l in whole.literals if l.op == EQ}
        assert all(
            l.op == EQ or l.field not in pinned for l in whole.literals
        )
        assert whole.literals <= frozenset(literals)
        for _ in range(4):
            env = {key: rng.choice(VALUES) for key in keys}
            expected = all(
                (env[l.field] == l.value) == (l.op == EQ) for l in literals
            )
            assert whole.holds(environment(env)) == expected
        assert whole.implies(left) and whole.implies(right)
        assert left.implies(whole) == (left == whole)
        key = rng.choice(keys)
        assert whole.without_field(key) == kind(
            l for l in whole.literals if l.field != key
        )
    assert built > 100 and unsatisfiable > 100


@pytest.mark.parametrize("kind,keys,environment", KEY_SPACES)
def test_combinators_allocate_nothing_when_nothing_is_learnt(
    kind, keys, environment
):
    k = keys[0]
    pinned = kind((Literal(k, EQ, 1), Literal(keys[1], NE, 2)))
    assert pinned.conjoin(Literal(k, EQ, 1)) is pinned
    assert pinned.conjoin(Literal(k, NE, 0)) is pinned  # implied by k=1
    assert pinned.conjoin(Literal(k, NE, 1)) is None
    assert pinned.conjoin(Literal(k, EQ, 2)) is None
    assert pinned.conjoin(Literal(keys[1], EQ, 2)) is None
    weaker = kind((Literal(k, EQ, 1),))
    assert pinned.meet(weaker) is pinned
    assert pinned.meet(kind.true()) is pinned
    assert kind.true().meet(pinned) is pinned
    # A new positive that subsumes everything we knew hands back `other`.
    other = kind((Literal(keys[1], EQ, 0),))
    assert kind((Literal(keys[1], NE, 2),)).meet(other) is other
    assert pinned.without_field(keys[2]) is pinned


def test_a_formula_never_equals_a_state_guard():
    for literals in ((), (Literal(0, EQ, 1),), (Literal("a", NE, 2),)):
        formula, guard = Formula(literals), StateGuard(literals)
        assert formula != guard and guard != formula
        assert not (formula == guard) and not (guard == formula)
        assert len({formula, guard}) == 2
        assert formula == Formula(literals) and guard == StateGuard(literals)


def test_pinned_reprs():
    assert repr(Literal("a", NE, 1)) == "a!=1"
    assert repr(Literal(3, EQ, 2)) == "state(3)=2"
    assert (
        repr(Formula((Literal("b", NE, 2), Literal("a", EQ, 1))))
        == "a=1 & b!=2"
    )
    guard = StateGuard((Literal(2, NE, 0), Literal(0, EQ, 1)))
    assert repr(guard) == "state(0)=1 & state(2)!=0"
    assert repr(Formula()) == repr(StateGuard.true()) == "true"


def test_the_fork_is_gone():
    import repro.stateful as stateful
    from repro.stateful import symbolic

    assert stateful.StateGuard is StateGuard is symbolic.StateGuard
    assert stateful.Formula is Formula and stateful.Literal is Literal
    assert not hasattr(stateful, "StateLiteral")
    assert not hasattr(StateGuard, "conjoin_guard")
    with pytest.raises(ImportError):
        import repro.stateful.formula  # noqa: F401
