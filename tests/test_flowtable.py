"""Tests for matches, rules, flow tables, and FDD-to-table conversion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netkat.ast import assign, filter_, neg, seq, test as field_test, union
from repro.netkat.fdd import FDDBuilder, mod_of
from repro.netkat.flowtable import FlowTable, Match, PrefixMatch, Rule, table_of_fdd
from repro.netkat.packet import Packet
from repro.netkat.semantics import eval_packet


class TestPrefixMatch:
    def test_full_exact(self):
        pm = PrefixMatch(value=0b101, wildcard_bits=0, width=3)
        assert pm.matches(0b101) and not pm.matches(0b100)

    def test_wildcard_low_bit(self):
        pm = PrefixMatch(value=0b10, wildcard_bits=1, width=3)
        assert pm.matches(0b100) and pm.matches(0b101)
        assert not pm.matches(0b110)

    def test_all_wildcard(self):
        pm = PrefixMatch(value=0, wildcard_bits=3, width=3)
        assert all(pm.matches(v) for v in range(8))

    def test_covered_values(self):
        pm = PrefixMatch(value=0b1, wildcard_bits=2, width=3)
        assert sorted(pm.covered_values()) == [0b100, 0b101, 0b110, 0b111]

    def test_rejects_oversized_prefix(self):
        with pytest.raises(ValueError):
            PrefixMatch(value=0b100, wildcard_bits=1, width=3)

    def test_rejects_bad_wildcard_count(self):
        with pytest.raises(ValueError):
            PrefixMatch(value=0, wildcard_bits=4, width=3)

    def test_str_shows_stars(self):
        assert str(PrefixMatch(value=0b10, wildcard_bits=1, width=3)) == "10*"


class TestMatch:
    def test_empty_matches_all(self):
        assert Match().matches(Packet({"a": 1}))

    def test_exact_field(self):
        m = Match({"a": 1})
        assert m.matches(Packet({"a": 1, "b": 2}))
        assert not m.matches(Packet({"a": 2}))

    def test_missing_field_fails(self):
        assert not Match({"a": 1}).matches(Packet({}))

    def test_prefix_constraint(self):
        m = Match({"tag": PrefixMatch(value=0b1, wildcard_bits=1, width=2)})
        assert m.matches(Packet({"tag": 0b10}))
        assert m.matches(Packet({"tag": 0b11}))
        assert not m.matches(Packet({"tag": 0b01}))

    def test_extended_and_without(self):
        m = Match({"a": 1}).extended("b", 2)
        assert m.get("b") == 2
        assert m.without("a").get("a") is None

    def test_value_equality(self):
        assert Match({"a": 1, "b": 2}) == Match({"b": 2, "a": 1})
        assert hash(Match({"a": 1})) == hash(Match({"a": 1}))


class TestRule:
    def test_apply_multicast(self):
        rule = Rule(1, Match({"a": 1}), frozenset({mod_of({"pt": 1}), mod_of({"pt": 2})}))
        outs = rule.apply(Packet({"a": 1, "pt": 0}))
        assert {o["pt"] for o in outs} == {1, 2}

    def test_drop_rule(self):
        rule = Rule(1, Match(), frozenset())
        assert rule.apply(Packet({})) == frozenset()

    def test_identity_action(self):
        rule = Rule(1, Match(), frozenset({()}))
        pkt = Packet({"a": 1})
        assert rule.apply(pkt) == frozenset({pkt})


class TestFlowTable:
    def make(self):
        return FlowTable(
            [
                Rule(10, Match({"a": 1, "b": 1}), frozenset({mod_of({"out": 1})})),
                Rule(5, Match({"a": 1}), frozenset({mod_of({"out": 2})})),
                Rule(1, Match(), frozenset()),
            ]
        )

    def test_highest_priority_wins(self):
        table = self.make()
        (out,) = table.apply(Packet({"a": 1, "b": 1}))
        assert out["out"] == 1

    def test_fallthrough(self):
        table = self.make()
        (out,) = table.apply(Packet({"a": 1, "b": 2}))
        assert out["out"] == 2

    def test_default_drop(self):
        table = self.make()
        assert table.apply(Packet({"a": 9})) == frozenset()

    def test_no_rules_drops(self):
        assert FlowTable().apply(Packet({})) == frozenset()

    def test_lookup_returns_none_when_unmatched(self):
        assert FlowTable().lookup(Packet({})) is None

    def test_rules_sorted_by_priority(self):
        table = FlowTable([Rule(1, Match(), frozenset()), Rule(9, Match({"a": 1}), frozenset())])
        assert [r.priority for r in table] == [9, 1]


FIELDS = ["a", "b"]
VALUES = [0, 1, 2]

link_free_policies = st.deferred(
    lambda: st.one_of(
        st.builds(
            lambda f, v: filter_(field_test(f, v)),
            st.sampled_from(FIELDS),
            st.sampled_from(VALUES),
        ),
        st.builds(
            lambda f, v: filter_(neg(field_test(f, v))),
            st.sampled_from(FIELDS),
            st.sampled_from(VALUES),
        ),
        st.builds(assign, st.sampled_from(FIELDS), st.sampled_from(VALUES)),
        st.builds(lambda p, q: union(p, q), link_free_policies, link_free_policies),
        st.builds(lambda p, q: seq(p, q), link_free_policies, link_free_policies),
    )
)

packets = st.builds(
    lambda d: Packet(d),
    st.fixed_dictionaries({f: st.sampled_from(VALUES) for f in FIELDS}),
)


class TestTableOfFDD:
    @given(link_free_policies, packets)
    @settings(max_examples=300, deadline=None)
    def test_table_agrees_with_policy(self, p, pkt):
        """The flow table realizes exactly the policy's packet function."""
        b = FDDBuilder()
        table = table_of_fdd(b, b.of_policy(p))
        assert table.apply(pkt) == eval_packet(p, pkt)

    def test_negative_constraints_become_shadowing(self):
        # if a=1 then drop else out<-1: needs a drop rule shadowing a
        # catch-all; without the drop rule a=1 packets would be forwarded.
        b = FDDBuilder()
        p = union(
            seq(filter_(field_test("a", 1)), filter_(field_test("zz", 5))),
            seq(filter_(neg(field_test("a", 1))), assign("out", 1)),
        )
        table = table_of_fdd(b, b.of_policy(p))
        assert table.apply(Packet({"a": 1})) == frozenset()
        (out,) = table.apply(Packet({"a": 2}))
        assert out["out"] == 1
