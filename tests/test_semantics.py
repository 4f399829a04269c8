"""Tests for the denotational semantics of NetKAT."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netkat.ast import (
    DROP,
    Dup,
    ID,
    assign,
    filter_,
    link,
    neg,
    seq,
    star,
    test as field_test,
    union,
)
from repro.netkat.packet import History, Packet
from repro.netkat.semantics import (
    eval_packet,
    eval_policy,
    eval_predicate,
)


PKT = Packet({"sw": 1, "pt": 2, "f": 3})


class TestPredicates:
    def test_test_matches(self):
        assert eval_predicate(field_test("f", 3), PKT)
        assert not eval_predicate(field_test("f", 4), PKT)

    def test_missing_field_is_false(self):
        assert not eval_predicate(field_test("zzz", 0), PKT)

    def test_negation(self):
        assert eval_predicate(~field_test("f", 4), PKT)
        assert not eval_predicate(~field_test("f", 3), PKT)

    def test_conj_disj(self):
        assert eval_predicate(field_test("f", 3) & field_test("sw", 1), PKT)
        assert not eval_predicate(field_test("f", 3) & field_test("sw", 2), PKT)
        assert eval_predicate(field_test("f", 9) | field_test("sw", 1), PKT)


class TestPolicies:
    def test_filter_passes_or_drops(self):
        assert eval_packet(filter_(field_test("f", 3)), PKT) == frozenset({PKT})
        assert eval_packet(filter_(field_test("f", 4)), PKT) == frozenset()

    def test_id_and_drop(self):
        assert eval_packet(ID, PKT) == frozenset({PKT})
        assert eval_packet(DROP, PKT) == frozenset()

    def test_assign(self):
        (out,) = eval_packet(assign("f", 7), PKT)
        assert out["f"] == 7

    def test_union_is_set_union(self):
        p = union(assign("f", 5), assign("f", 6))
        assert {o["f"] for o in eval_packet(p, PKT)} == {5, 6}

    def test_seq_composes(self):
        p = seq(assign("f", 5), assign("g", 6))
        (out,) = eval_packet(p, PKT)
        assert out["f"] == 5 and out["g"] == 6

    def test_seq_assign_then_test(self):
        p = seq(assign("f", 5), filter_(field_test("f", 5)))
        assert len(eval_packet(p, PKT)) == 1
        p2 = seq(assign("f", 5), filter_(field_test("f", 3)))
        assert eval_packet(p2, PKT) == frozenset()

    def test_assign_overwrites_in_seq(self):
        p = seq(assign("f", 5), assign("f", 6))
        (out,) = eval_packet(p, PKT)
        assert out["f"] == 6

    def test_star_zero_iterations(self):
        p = star(assign("f", 9))
        outs = eval_packet(p, PKT)
        assert PKT in outs  # zero iterations pass the packet through

    def test_star_fixpoint(self):
        # f<-(f is 3 -> 4; 4 -> 5) via union of guarded assignments
        step = union(
            seq(filter_(field_test("f", 3)), assign("f", 4)),
            seq(filter_(field_test("f", 4)), assign("f", 5)),
        )
        outs = {o["f"] for o in eval_packet(star(step), PKT)}
        assert outs == {3, 4, 5}

    def test_dup_extends_history(self):
        h = History.of(PKT)
        (out,) = eval_policy(Dup(), h)
        assert len(out) == 2

    def test_link_moves_matching_packet(self):
        p = link("1:2", "7:8")
        (out,) = eval_packet(p, PKT)
        assert out.switch == 7 and out.port == 8

    def test_link_drops_elsewhere(self):
        p = link("9:9", "7:8")
        assert eval_packet(p, PKT) == frozenset()

    def test_link_records_dup(self):
        (out,) = eval_policy(link("1:2", "7:8"), History.of(PKT))
        assert len(out) == 2
        assert out.rest[0] == PKT


class TestKATLaws:
    """Spot-check KAT axioms on concrete packets."""

    policies = [
        ID,
        DROP,
        filter_(field_test("f", 3)),
        assign("f", 4),
        seq(filter_(field_test("sw", 1)), assign("g", 2)),
        union(assign("f", 1), assign("f", 2)),
    ]

    @pytest.mark.parametrize("p", policies)
    @pytest.mark.parametrize("q", policies)
    def test_union_commutes(self, p, q):
        assert eval_packet(union(p, q), PKT) == eval_packet(union(q, p), PKT)

    @pytest.mark.parametrize("p", policies)
    def test_union_idempotent(self, p):
        assert eval_packet(union(p, p), PKT) == eval_packet(p, PKT)

    @pytest.mark.parametrize("p", policies)
    @pytest.mark.parametrize("q", policies)
    def test_seq_distributes_over_union(self, p, q):
        r = assign("h", 9)
        lhs = eval_packet(seq(union(p, q), r), PKT)
        rhs = eval_packet(union(seq(p, r), seq(q, r)), PKT)
        assert lhs == rhs

    @pytest.mark.parametrize("p", policies)
    def test_star_unfolds_once(self, p):
        lhs = eval_packet(star(p), PKT)
        rhs = eval_packet(union(ID, seq(p, star(p))), PKT)
        assert lhs == rhs


class TestReachablePackets:
    def test_reaches_fixpoint(self):
        """Iterating a cyclic step terminates with every packet it reaches."""
        step = union(
            seq(filter_(field_test("f", 3)), assign("f", 4)),
            seq(filter_(field_test("f", 4)), assign("f", 3)),
        )
        reached = eval_packet(star(step), PKT)
        assert {p["f"] for p in reached} == {3, 4}
