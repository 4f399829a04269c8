"""Tests for the concrete-syntax parser and pretty-printer, including
parse/pretty round-trip properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netkat.ast import (
    Assign,
    Dup,
    Filter,
    Link,
    Test as FieldTest,
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
from repro.netkat.packet import Location
from repro.netkat.parser import ParseError, parse_policy, parse_predicate
from repro.netkat.pretty import pretty_policy
from repro.stateful.ast import LinkUpdate, StateTest


class TestParseAtoms:
    def test_test(self):
        assert parse_policy("ip_dst=4") == Filter(FieldTest("ip_dst", 4))

    def test_assign(self):
        assert parse_policy("pt<-2") == Assign("pt", 2)

    def test_constants(self):
        assert parse_policy("id") == filter_(conj())
        assert parse_policy("drop").predicate.__class__.__name__ == "PFalse"
        assert parse_policy("dup") == Dup()

    def test_state_test(self):
        assert parse_policy("state(0)=3") == Filter(StateTest(0, 3))

    def test_link(self):
        assert parse_policy("(1:1)->(4:1)") == Link(Location(1, 1), Location(4, 1))

    def test_link_update_single(self):
        got = parse_policy("(1:1)->(4:1)<state(0)<-1>")
        assert got == LinkUpdate(Location(1, 1), Location(4, 1), ((0, 1),))

    def test_link_update_multiple(self):
        got = parse_policy("(1:1)->(4:1)<state(0)<-1, state(1)<-2>")
        assert got == LinkUpdate(Location(1, 1), Location(4, 1), ((0, 1), (1, 2)))


class TestParseOperators:
    def test_seq(self):
        assert parse_policy("a=1; b<-2") == seq(filter_(field_test("a", 1)), assign("b", 2))

    def test_union(self):
        assert parse_policy("a<-1 + a<-2") == union(assign("a", 1), assign("a", 2))

    def test_precedence_union_looser_than_seq(self):
        got = parse_policy("a<-1; b<-2 + c<-3")
        want = union(seq(assign("a", 1), assign("b", 2)), assign("c", 3))
        assert got == want

    def test_conj_tighter_than_seq(self):
        got = parse_policy("a=1 & b=2; c<-3")
        want = seq(filter_(conj(field_test("a", 1), field_test("b", 2))), assign("c", 3))
        assert got == want

    def test_negation(self):
        assert parse_policy("!a=1") == filter_(neg(field_test("a", 1)))

    def test_double_negation(self):
        assert parse_policy("!!a=1") == filter_(field_test("a", 1))

    def test_disjunction(self):
        got = parse_policy("a=1 | b=2")
        assert got == filter_(disj(field_test("a", 1), field_test("b", 2)))

    def test_star(self):
        assert parse_policy("(a<-1)*") == star(assign("a", 1))

    def test_grouping(self):
        got = parse_policy("(a<-1 + b<-2); c<-3")
        want = seq(union(assign("a", 1), assign("b", 2)), assign("c", 3))
        assert got == want

    def test_comments_and_whitespace(self):
        got = parse_policy(
            """
            a=1;     # match
            b<-2     # then rewrite
            """
        )
        assert got == seq(filter_(field_test("a", 1)), assign("b", 2))


class TestParseErrors:
    def test_conj_of_policies_rejected(self):
        with pytest.raises(ParseError):
            parse_policy("a<-1 & b<-2")

    def test_negation_of_policy_rejected(self):
        with pytest.raises(ParseError):
            parse_policy("!a<-1")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_policy("a=1 )")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_policy("a=1 @ b=2")

    def test_incomplete_link(self):
        with pytest.raises(ParseError):
            parse_policy("(1:1)->")

    def test_bad_update_keyword(self):
        with pytest.raises(ParseError):
            parse_policy("(1:1)->(2:2)<foo(0)<-1>")

    @pytest.mark.parametrize(
        "text,position",
        [("pt=\u0663", 3), ("state(\u0660)=1", 6), ("state(0)=\u0661", 9)],
    )
    def test_non_ascii_digits_are_not_numbers(self, text, position):
        """Only 0-9 spell a number: an Arabic-Indic digit is not coerced
        onto the ASCII program's AST (and artifact key)."""
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_policy(text)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text,position",
        [
            ("state(0)=1 & pt<-2", 13),
            ("state(0)=1 | pt<-2", 13),
            ("pt<-2 & state(0)=1", 0),
            ("a=1 | b=2 | (1:1)->(2:1)", 12),
            ("!  pt<-2", 3),
        ],
    )
    def test_operator_error_points_at_its_operand(self, text, position):
        with pytest.raises(ParseError, match="forwarding policy") as info:
            parse_policy(text)
        assert info.value.position == position

    def test_predicate_parser_rejects_policy(self):
        with pytest.raises(ParseError):
            parse_predicate("pt<-1")

    def test_predicate_parser_accepts_test(self):
        assert parse_predicate("a=1 & b=2") == conj(
            field_test("a", 1), field_test("b", 2)
        )


class TestPaperPrograms:
    def test_figure_9a_firewall(self):
        source = """
        pt=2 & ip_dst=4; pt<-1;
          ( state(0)=0; (1:1)->(4:1)<state(0)<-1>
          + !state(0)=0; (1:1)->(4:1) );
        pt<-2
        + pt=2 & ip_dst=1; state(0)=1; pt<-1; (4:1)->(1:1); pt<-2
        """
        parsed = parse_policy(source)
        from repro.apps import firewall_app

        assert parsed == firewall_app().program

    def test_figure_9c_authentication_fragment(self):
        source = "state(0)=0 & pt=2 & ip_dst=1; pt<-1; (4:1)->(1:1)<state(0)<-1>; pt<-2"
        parsed = parse_policy(source)
        assert isinstance(parsed, type(seq(assign("a", 1), assign("b", 2))))


FIELDS = ["a", "b", "sw", "pt"]

policies = st.deferred(
    lambda: st.one_of(
        st.builds(lambda f, v: filter_(field_test(f, v)),
                  st.sampled_from(FIELDS), st.integers(0, 9)),
        st.builds(lambda f, v: filter_(neg(field_test(f, v))),
                  st.sampled_from(FIELDS), st.integers(0, 9)),
        st.builds(assign, st.sampled_from(FIELDS), st.integers(0, 9)),
        st.builds(lambda c, v: filter_(StateTest(c, v)),
                  st.integers(0, 3), st.integers(0, 5)),
        st.builds(
            lambda s1, p1, s2, p2: Link(Location(s1, p1), Location(s2, p2)),
            *(st.integers(1, 5),) * 4,
        ),
        st.builds(
            lambda s1, p1, s2, p2, m, n: LinkUpdate(
                Location(s1, p1), Location(s2, p2), ((m, n),)
            ),
            *(st.integers(1, 5),) * 4,
            st.integers(0, 3),
            st.integers(0, 5),
        ),
        st.builds(lambda p, q: union(p, q), policies, policies),
        st.builds(lambda p, q: seq(p, q), policies, policies),
        st.builds(star, policies),
        st.builds(
            lambda a, b: filter_(conj(a, b)),
            policies.filter(lambda p: isinstance(p, Filter)).map(lambda p: p.predicate),
            policies.filter(lambda p: isinstance(p, Filter)).map(lambda p: p.predicate),
        ),
    )
)


class TestRoundTrip:
    @given(policies)
    @settings(max_examples=300, deadline=None)
    def test_parse_pretty_roundtrip(self, p):
        assert parse_policy(pretty_policy(p)) == p

    def test_pretty_firewall_parses_back(self):
        from repro.apps import firewall_app

        program = firewall_app().program
        assert parse_policy(pretty_policy(program)) == program

    @pytest.mark.parametrize(
        "make_app",
        ["firewall_app", "learning_switch_app", "authentication_app", "ids_app"],
    )
    def test_all_apps_roundtrip(self, make_app):
        import repro.apps as apps

        program = getattr(apps, make_app)().program
        assert parse_policy(pretty_policy(program)) == program
