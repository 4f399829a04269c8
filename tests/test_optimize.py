"""Tests for the rule-sharing trie optimization (section 5.3)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import authentication_app, bandwidth_cap_app, firewall_app
from repro.netkat.packet import Packet
from repro.optimize.sharing import (
    optimize_compiled_nes,
    optimized_table_equivalent,
)
from repro.optimize.trie import (
    build_trie,
    exact_best_order,
    heuristic_order,
    naive_rule_count,
    optimize_configurations,
    trie_rule_count,
)


def fs(*items):
    return frozenset(items)


class TestTrieConstruction:
    def test_leaf_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            build_trie([fs("a"), fs("b"), fs("c")])

    def test_root_holds_intersection(self):
        root = build_trie([fs("a", "b"), fs("a", "c")])
        assert root.rules == fs("a")

    def test_leaf_indices_in_order(self):
        root = build_trie([fs("a"), fs("b")])
        assert [c.leaf_index for c in root.children] == [0, 1]

    def test_dummy_leaves_are_universal(self):
        root = build_trie([fs("a", "b"), None])
        assert root.rules == fs("a", "b")  # dummy shares everything


class TestTrieCounting:
    def test_figure_18_example(self):
        """C0={r1,r2} C1={r1,r3} C2={r2,r3} C3={r1,r2}: trie (a) order
        costs 6, trie (b) order costs 5."""
        c0, c1, c2, c3 = fs("r1", "r2"), fs("r1", "r3"), fs("r2", "r3"), fs("r1", "r2")
        trie_a = build_trie([c0, c1, c2, c3])  # pairs (C0,C1) and (C2,C3)
        assert trie_rule_count(trie_a) == 6
        trie_b = build_trie([c0, c3, c1, c2])  # pairs (C0,C3) and (C1,C2)
        assert trie_rule_count(trie_b) == 5

    def test_identical_configs_fully_shared(self):
        c = fs("r1", "r2", "r3")
        root = build_trie([c, c, c, c])
        assert trie_rule_count(root) == 3

    def test_disjoint_configs_no_sharing(self):
        root = build_trie([fs("a"), fs("b"), fs("c"), fs("d")])
        assert trie_rule_count(root) == 4

    def test_dummy_leaf_materializes_nothing(self):
        root = build_trie([fs("a", "b"), None])
        assert trie_rule_count(root) == 2  # a, b once at the root

    def test_naive_count(self):
        assert naive_rule_count([fs("a", "b"), fs("a")]) == 3


class TestHeuristic:
    def test_heuristic_matches_exact_on_figure_18(self):
        configs = [fs("r1", "r2"), fs("r1", "r3"), fs("r2", "r3"), fs("r1", "r2")]
        ordered = heuristic_order(configs)
        heuristic_count = trie_rule_count(build_trie(ordered))
        _, exact = exact_best_order(configs, max_leaves=4)
        assert heuristic_count == exact == 5

    def test_heuristic_never_worse_than_naive(self):
        rng = random.Random(0)
        pool = [f"r{i}" for i in range(12)]
        for _ in range(20):
            configs = [
                frozenset(r for r in pool if rng.random() < 0.4) for _ in range(8)
            ]
            result = optimize_configurations(configs)
            assert result.optimized <= result.original

    @given(st.lists(
        st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
        min_size=1,
        max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_heuristic_within_exact_bound(self, configs):
        """The heuristic never beats the true optimum (sanity), and the
        optimum never beats total sharing."""
        ordered = heuristic_order(configs)
        heuristic_count = trie_rule_count(build_trie(ordered))
        _, exact = exact_best_order(configs, max_leaves=4)
        union_all = frozenset().union(*configs)
        assert exact <= heuristic_count <= naive_rule_count(configs)
        # Every distinct rule must be materialized at least once.
        assert exact >= len(union_all)

    def test_pads_non_power_of_two(self):
        configs = [fs("a", "b"), fs("a", "b"), fs("a")]
        result = optimize_configurations(configs)
        assert result.original == 5
        assert result.optimized <= 5

    def test_empty_input(self):
        result = optimize_configurations([])
        assert result.original == result.optimized == 0

    def test_savings_fraction(self):
        result = optimize_configurations([fs("a"), fs("a")])
        assert result.optimized == 1
        assert result.savings_fraction == 0.5


class TestRandomInstancesShape:
    def test_paper_style_savings(self):
        """64 random configs over a 20-rule pool: expect ~30% savings
        (the paper reports 32-37% on average)."""
        rng = random.Random(42)
        pool = [f"rule{i}" for i in range(20)]
        fractions = []
        for _ in range(10):
            configs = [
                frozenset(r for r in pool if rng.random() < 0.3)
                for _ in range(64)
            ]
            result = optimize_configurations(configs)
            fractions.append(result.savings_fraction)
        average = sum(fractions) / len(fractions)
        assert 0.2 <= average <= 0.6


class TestCompiledNESOptimization:
    @pytest.mark.parametrize(
        "make_app", [firewall_app, authentication_app, lambda: bandwidth_cap_app(4)]
    )
    def test_optimized_counts_never_exceed_original(self, make_app):
        app = make_app()
        result = optimize_compiled_nes(app.compiled)
        assert result.optimized <= result.original

    def test_bandwidth_cap_saves_most(self):
        """The cap's chain of near-identical configurations shares best."""
        cap = optimize_compiled_nes(bandwidth_cap_app(10).compiled)
        fw = optimize_compiled_nes(firewall_app().compiled)
        assert cap.savings_fraction > fw.savings_fraction

    @pytest.mark.parametrize(
        "make_app", [firewall_app, authentication_app, lambda: bandwidth_cap_app(3)]
    )
    def test_optimized_tables_semantically_equivalent(self, make_app):
        """Deployed wildcard-guarded tables behave exactly like the naive
        per-configuration tables."""
        app = make_app()
        result = optimize_compiled_nes(app.compiled)
        for switch_result in result.per_switch:
            assert optimized_table_equivalent(app.compiled, switch_result), (
                f"switch {switch_result.switch} optimized table diverges"
            )

    def test_equivalence_check_rejects_a_table_that_forwards_more(self):
        """One extra rule under an all-covering guard forwards packets the
        original table drops; no original rule's match packet reaches it,
        so only an exact check sees the difference."""
        from repro.netkat.flowtable import Match, PrefixMatch, Rule
        from repro.runtime.compiler import TAG_FIELD

        app = firewall_app()
        result = optimize_compiled_nes(app.compiled)
        sw1 = next(s for s in result.per_switch if s.switch == 1)
        assert optimized_table_equivalent(app.compiled, sw1)
        width = sw1.rules[0].match.get(TAG_FIELD).width
        leak = Rule(
            priority=max(r.priority for r in sw1.rules) + 1,
            match=Match({"ip_dst": 99}).guarded(
                TAG_FIELD, PrefixMatch(0, wildcard_bits=width, width=width)
            ),
            actions=frozenset({(("pt", 1),)}),
        )
        broken = dataclasses.replace(sw1, rules=(leak,) + sw1.rules)
        assert not optimized_table_equivalent(app.compiled, broken)

    def test_guarded_rules_use_prefix_matches(self):
        from repro.netkat.flowtable import PrefixMatch
        from repro.runtime.compiler import TAG_FIELD

        app = bandwidth_cap_app(4)
        result = optimize_compiled_nes(app.compiled)
        shared = [
            rule
            for sw in result.per_switch
            for rule in sw.rules
            if isinstance(rule.match.get(TAG_FIELD), PrefixMatch)
            and rule.match.get(TAG_FIELD).wildcard_bits > 0
        ]
        assert shared  # the chain must share at least one rule
