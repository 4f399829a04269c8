"""Tests for conjunctive formulas (event guards)."""

import pytest
from hypothesis import given, strategies as st

from repro.formula import EQ, Formula, Literal, NE
from repro.netkat.packet import Packet
from repro.netkat.semantics import eval_predicate


FIELDS = ["a", "b", "c"]
VALUES = [0, 1, 2]

literals = st.builds(
    Literal,
    st.sampled_from(FIELDS),
    st.sampled_from([EQ, NE]),
    st.sampled_from(VALUES),
)
packets = st.builds(
    lambda d: Packet(d),
    st.fixed_dictionaries({f: st.sampled_from(VALUES) for f in FIELDS}),
)


class TestLiteral:
    def test_eq_holds(self):
        assert Literal("a", EQ, 1).holds(Packet({"a": 1}))
        assert not Literal("a", EQ, 1).holds(Packet({"a": 2}))

    def test_ne_holds(self):
        assert Literal("a", NE, 1).holds(Packet({"a": 2}))
        assert not Literal("a", NE, 1).holds(Packet({"a": 1}))

    def test_ne_on_missing_field_holds(self):
        assert Literal("a", NE, 1).holds(Packet({}))

    def test_negated(self):
        assert Literal("a", EQ, 1).negated() == Literal("a", NE, 1)
        assert Literal("a", NE, 1).negated() == Literal("a", EQ, 1)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            Literal("a", "<", 1)


class TestFormulaConstruction:
    def test_true_formula(self):
        assert Formula.true().literals == frozenset()
        assert Formula.true().holds(Packet({}))

    def test_conjoin_builds(self):
        phi = Formula.true().conjoin(Literal("a", EQ, 1))
        assert phi is not None and phi.literals == {Literal("a", EQ, 1)}

    def test_conjoin_contradiction_eq_eq(self):
        phi = Formula((Literal("a", EQ, 1),))
        assert phi.conjoin(Literal("a", EQ, 2)) is None

    def test_conjoin_contradiction_eq_ne(self):
        phi = Formula((Literal("a", EQ, 1),))
        assert phi.conjoin(Literal("a", NE, 1)) is None

    def test_direct_contradiction_rejected(self):
        with pytest.raises(ValueError):
            Formula((Literal("a", EQ, 1), Literal("a", EQ, 2)))

    def test_canonicalization_drops_redundant_ne(self):
        phi = Formula((Literal("a", EQ, 1), Literal("a", NE, 2)))
        assert phi == Formula((Literal("a", EQ, 1),))

    def test_conjoin_all(self):
        phi = Formula.true().conjoin_all(
            [Literal("a", EQ, 1), Literal("b", NE, 2)]
        )
        assert phi is not None and len(phi.literals) == 2

    def test_without_field(self):
        phi = Formula((Literal("a", EQ, 1), Literal("b", EQ, 2)))
        assert phi.without_field("a") == Formula((Literal("b", EQ, 2),))

    def test_equality_and_hash(self):
        p1 = Formula((Literal("a", EQ, 1), Literal("b", NE, 2)))
        p2 = Formula((Literal("b", NE, 2), Literal("a", EQ, 1)))
        assert p1 == p2 and hash(p1) == hash(p2)


class TestFormulaSemantics:
    @given(st.lists(literals, max_size=4), packets)
    def test_holds_iff_all_literals_hold(self, lits, pkt):
        phi = Formula.true().conjoin_all(lits)
        if phi is None:
            return  # contradictory: nothing to check
        assert phi.holds(pkt) == all(l.holds(pkt) for l in lits)

    @given(st.lists(literals, max_size=4), packets)
    def test_to_predicate_agrees(self, lits, pkt):
        phi = Formula.true().conjoin_all(lits)
        if phi is None:
            return
        assert eval_predicate(phi.to_predicate(), pkt) == phi.holds(pkt)

    @given(st.lists(literals, max_size=3), literals, packets)
    def test_conjoin_refines(self, lits, extra, pkt):
        phi = Formula.true().conjoin_all(lits)
        if phi is None:
            return
        refined = phi.conjoin(extra)
        if refined is None:
            return
        if refined.holds(pkt):
            assert phi.holds(pkt)


class TestImplication:
    def test_reflexive(self):
        phi = Formula((Literal("a", EQ, 1),))
        assert phi.implies(phi)

    def test_stronger_implies_weaker(self):
        strong = Formula((Literal("a", EQ, 1), Literal("b", EQ, 2)))
        weak = Formula((Literal("a", EQ, 1),))
        assert strong.implies(weak)
        assert not weak.implies(strong)

    def test_eq_implies_ne_other_value(self):
        phi = Formula((Literal("a", EQ, 1),))
        assert phi.implies(Formula((Literal("a", NE, 2),)))

    def test_everything_implies_true(self):
        assert Formula((Literal("a", EQ, 1),)).implies(Formula.true())
