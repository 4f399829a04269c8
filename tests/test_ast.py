"""Tests for the NetKAT AST and smart constructors."""

import pytest

from repro.netkat.ast import (
    Assign,
    Conj,
    DROP,
    Disj,
    Dup,
    FALSE,
    Filter,
    ID,
    Link,
    Neg,
    PFalse,
    PTrue,
    Seq,
    Star,
    Test as FieldTest,
    TRUE,
    Union,
    assign,
    at_location,
    conj,
    disj,
    filter_,
    link,
    neg,
    policy_fields,
    policy_size,
    seq,
    star,
    test as field_test,
    union,
)
from repro.netkat.packet import Location


class TestPredicateConstructors:
    def test_neg_constants(self):
        assert neg(TRUE) is FALSE
        assert neg(FALSE) is TRUE

    def test_double_negation(self):
        a = field_test("f", 1)
        assert neg(neg(a)) == a

    def test_conj_identity(self):
        a = field_test("f", 1)
        assert conj(TRUE, a) == a
        assert conj(a, TRUE) == a

    def test_conj_annihilator(self):
        assert conj(field_test("f", 1), FALSE) is FALSE
        assert conj(FALSE, field_test("f", 1)) is FALSE

    def test_disj_identity(self):
        a = field_test("f", 1)
        assert disj(FALSE, a) == a

    def test_disj_annihilator(self):
        assert disj(field_test("f", 1), TRUE) is TRUE

    def test_empty_conj_is_true(self):
        assert conj() is TRUE

    def test_empty_disj_is_false(self):
        assert disj() is FALSE

    def test_operator_sugar(self):
        a, b = field_test("f", 1), field_test("g", 2)
        assert a & b == conj(a, b)
        assert a | b == disj(a, b)
        assert ~a == neg(a)

    def test_nary_conj_builds_left_nested(self):
        a, b, c = field_test("f", 1), field_test("g", 2), field_test("h", 3)
        assert conj(a, b, c) == Conj(Conj(a, b), c)


class TestPolicyConstructors:
    def test_union_drop_elimination(self):
        p = assign("f", 1)
        assert union(DROP, p) == p
        assert union(p, DROP) == p
        assert union() == DROP

    def test_seq_identity_elimination(self):
        p = assign("f", 1)
        assert seq(ID, p) == p
        assert seq(p, ID) == p
        assert seq() == ID

    def test_seq_drop_annihilates(self):
        p = assign("f", 1)
        assert seq(p, DROP) == DROP
        assert seq(DROP, p) == DROP

    def test_star_constants(self):
        assert star(DROP) == ID
        assert star(ID) == ID

    def test_star_wraps(self):
        p = assign("f", 1)
        assert star(p) == Star(p)

    def test_operator_sugar(self):
        p, q = assign("f", 1), assign("g", 2)
        assert p + q == union(p, q)
        assert p >> q == seq(p, q)

    def test_link_parses_strings(self):
        l = link("1:2", "3:4")
        assert isinstance(l, Link)
        assert l.src == Location(1, 2) and l.dst == Location(3, 4)

    def test_at_location(self):
        a = at_location(Location(2, 5))
        assert a == conj(field_test("sw", 2), field_test("pt", 5))


class TestStructuralQueries:
    def test_policy_fields(self):
        p = seq(filter_(field_test("a", 1) & ~field_test("b", 2)), assign("c", 3))
        assert policy_fields(p) == frozenset({"a", "b", "c"})

    def test_policy_fields_link(self):
        assert policy_fields(link("1:1", "2:2")) == frozenset({"sw", "pt"})

    def test_policy_size_positive(self):
        assert policy_size(assign("f", 1)) == 1
        assert policy_size(seq(assign("f", 1), assign("g", 2))) == 3

    def test_size_counts_predicates(self):
        assert policy_size(filter_(field_test("a", 1) & field_test("b", 2))) == 4

    def test_immutability(self):
        node = FieldTest("f", 1)
        with pytest.raises(Exception):
            node.value = 2

    def test_nodes_hashable(self):
        assert len({field_test("f", 1), field_test("f", 1), field_test("f", 2)}) == 2
