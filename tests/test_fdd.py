"""Tests for the FDD compiler core: agreement with the denotational
semantics on randomly generated link-free policies and predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netkat.ast import (
    DROP,
    ID,
    assign,
    conj,
    disj,
    filter_,
    neg,
    seq,
    star,
    test as field_test,
    union,
)
from repro.netkat.fdd import FDDBuilder, mod_compose, mod_of
from repro.netkat.packet import Packet
from repro.netkat.semantics import eval_packet, eval_predicate

from naive_oracles import eval_fdd


FIELDS = ["sw", "pt", "a", "b"]
VALUES = [0, 1, 2]

predicates = st.deferred(
    lambda: st.one_of(
        st.just(filter_(field_test("zzz", 0)).predicate),  # unlikely test
        st.builds(field_test, st.sampled_from(FIELDS), st.sampled_from(VALUES)),
        st.builds(neg, predicates),
        st.builds(lambda a, b: conj(a, b), predicates, predicates),
        st.builds(lambda a, b: disj(a, b), predicates, predicates),
    )
)

policies = st.deferred(
    lambda: st.one_of(
        st.just(ID),
        st.just(DROP),
        st.builds(filter_, predicates),
        st.builds(assign, st.sampled_from(FIELDS), st.sampled_from(VALUES)),
        st.builds(lambda p, q: union(p, q), policies, policies),
        st.builds(lambda p, q: seq(p, q), policies, policies),
    )
)

packets = st.builds(
    lambda d: Packet(d),
    st.fixed_dictionaries({f: st.sampled_from(VALUES) for f in FIELDS}),
)


class TestModOperations:
    def test_mod_of_sorts(self):
        assert mod_of({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_compose_overrides(self):
        assert mod_compose(mod_of({"a": 1}), mod_of({"a": 2})) == mod_of({"a": 2})

    def test_compose_merges(self):
        got = mod_compose(mod_of({"a": 1}), mod_of({"b": 2}))
        assert got == mod_of({"a": 1, "b": 2})

    def test_identity_mod(self):
        assert mod_compose((), mod_of({"a": 1})) == mod_of({"a": 1})


class TestBuilderBasics:
    def test_id_and_drop_are_cached(self):
        b = FDDBuilder()
        assert b.leaf(frozenset()) is b.drop
        assert b.of_policy(ID) is b.id
        assert b.of_policy(DROP) is b.drop

    def test_branch_collapses_equal_children(self):
        b = FDDBuilder()
        assert b.branch("f", 1, b.id, b.id) is b.id

    def test_branch_drops_a_test_its_else_branch_already_decides(self):
        b = FDDBuilder()
        x = b.of_policy(assign("pt", 1))
        rest = b.branch("f", 2, b.id, x)
        assert b.branch("f", 0, x, rest) is rest

    def test_union_order_gives_one_node(self):
        """Left fold and the reverse fold meet on one node even when an
        early operand tests a value the later ones make redundant."""
        b = FDDBuilder()
        guarded = lambda v, p: b.of_policy(seq(filter_(field_test("f", v)), p))
        fdds = [guarded(0, ID), b.of_policy(assign("pt", 1)),
                guarded(2, assign("f", 1)), b.id]
        forward = backward = b.drop
        for d in fdds:
            forward = b.union(forward, d)
        for d in reversed(fdds):
            backward = b.union(d, backward)
        assert forward is backward
        assert b.size(forward) == b.size(b.union(fdds[1], b.union(fdds[2], fdds[3])))

    def test_hash_consing(self):
        b = FDDBuilder()
        d1 = b.of_policy(seq(filter_(field_test("a", 1)), assign("b", 2)))
        d2 = b.of_policy(seq(filter_(field_test("a", 1)), assign("b", 2)))
        assert d1 is d2

    def test_union_identities(self):
        b = FDDBuilder()
        d = b.of_policy(assign("a", 1))
        assert b.union(d, b.drop) is d
        assert b.union(b.drop, d) is d
        assert b.union(d, d) is d

    def test_dup_rejected(self):
        from repro.netkat.ast import Dup

        with pytest.raises(ValueError):
            FDDBuilder().of_policy(Dup())

    def test_link_rejected(self):
        from repro.netkat.ast import link

        with pytest.raises(ValueError):
            FDDBuilder().of_policy(link("1:1", "2:2"))

    def test_negate_requires_predicate(self):
        b = FDDBuilder()
        with pytest.raises(ValueError):
            b.negate(b.of_policy(assign("a", 1)))

    def test_size(self):
        b = FDDBuilder()
        assert b.size(b.id) == 1
        d = b.of_predicate(field_test("a", 1))
        assert b.size(d) == 3  # one branch + two leaves


class TestAgreementWithSemantics:
    @given(predicates, packets)
    @settings(max_examples=300, deadline=None)
    def test_predicate_fdd_agrees(self, a, pkt):
        b = FDDBuilder()
        d = b.of_predicate(a)
        expected = frozenset({pkt}) if eval_predicate(a, pkt) else frozenset()
        assert eval_fdd(d, pkt) == expected

    @given(policies, packets)
    @settings(max_examples=300, deadline=None)
    def test_policy_fdd_agrees(self, p, pkt):
        b = FDDBuilder()
        assert eval_fdd(b.of_policy(p), pkt) == eval_packet(p, pkt)

    @given(policies, policies, packets)
    @settings(max_examples=150, deadline=None)
    def test_union_agrees(self, p, q, pkt):
        b = FDDBuilder()
        d = b.union(b.of_policy(p), b.of_policy(q))
        assert eval_fdd(d, pkt) == eval_packet(union(p, q), pkt)

    @given(policies, policies, packets)
    @settings(max_examples=150, deadline=None)
    def test_seq_agrees(self, p, q, pkt):
        b = FDDBuilder()
        d = b.seq(b.of_policy(p), b.of_policy(q))
        assert eval_fdd(d, pkt) == eval_packet(seq(p, q), pkt)

    @given(policies, packets)
    @settings(max_examples=75, deadline=None)
    def test_star_agrees(self, p, pkt):
        b = FDDBuilder()
        d = b.star(b.of_policy(p))
        assert eval_fdd(d, pkt) == eval_packet(star(p), pkt)


class TestCofactor:
    @given(policies, packets)
    @settings(max_examples=150, deadline=None)
    def test_cofactor_agrees_on_matching_packets(self, p, pkt):
        b = FDDBuilder()
        d = b.of_policy(p)
        field, value = "sw", pkt["sw"]
        specialized = b.cofactor(d, field, value)
        assert eval_fdd(specialized, pkt) == eval_fdd(d, pkt)

    def test_cofactor_removes_field_tests(self):
        b = FDDBuilder()
        d = b.of_policy(seq(filter_(field_test("sw", 1)), assign("a", 2)))
        spec = b.cofactor(d, "sw", 1)
        pkt = Packet({"sw": 9, "pt": 0, "a": 0, "b": 0})
        # After cofactoring, the sw test is gone: even a sw=9 packet passes.
        assert len(eval_fdd(spec, pkt)) == 1


class TestPaths:
    def test_paths_cover_all_behaviors(self):
        b = FDDBuilder()
        p = union(
            seq(filter_(field_test("a", 1)), assign("b", 2)),
            seq(filter_(field_test("a", 2)), assign("b", 0)),
        )
        d = b.of_policy(p)
        leaves = [actions for _, actions in b.paths(d)]
        nonempty = [a for a in leaves if a]
        assert len(nonempty) == 2

    def test_paths_ordering_is_hi_first(self):
        b = FDDBuilder()
        d = b.of_predicate(field_test("a", 1))
        constraint_lists = [c for c, _ in b.paths(d)]
        assert constraint_lists[0] == (("a", 1, True),)
        assert constraint_lists[1] == (("a", 1, False),)


class TestStarConvergence:
    def test_star_of_field_rotation(self):
        b = FDDBuilder()
        step = union(
            seq(filter_(field_test("a", 0)), assign("a", 1)),
            seq(filter_(field_test("a", 1)), assign("a", 2)),
            seq(filter_(field_test("a", 2)), assign("a", 0)),
        )
        d = b.star(b.of_policy(step))
        pkt = Packet({"sw": 0, "pt": 0, "a": 0, "b": 0})
        assert {o["a"] for o in eval_fdd(d, pkt)} == {0, 1, 2}
