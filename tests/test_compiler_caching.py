"""Golden tests: the perf-wave caches must be invisible.

The ordered-insert ITE strategy in the FDD algebra, the id-keyed AST
memos, and the per-builder knowledge-FDD cache in the path compiler are
pure optimizations.  Their reference routes live beside the tests
(``naive_oracles.ReferenceFDDBuilder``, whose forgetful knowledge dict
makes ``compile_policy`` uncached; the per-state ETS walk is
``naive_oracles.build_ets_naive``); ``seed_apps.reference_compile``
composes them, and this module asserts the pipeline's guarded tables are
byte-identical to it on every seed application.  It also covers the
memoized ``CompiledNES.guarded_tables``: cache reuse, defensive copies,
and the rule count that does not force the merge.
"""

import pytest

from repro.apps import bandwidth_cap_app, firewall_app
from repro.netkat.compiler import Knowledge, knowledge_fdd
from repro.netkat.fdd import FDDBuilder

from seed_apps import APPS, guarded_bytes, reference_compile


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_guarded_tables_byte_identical(name, make):
    """Every perf-wave cache off, on the pipeline's own NES."""
    app = make()
    assert guarded_bytes(app.compiled) == guarded_bytes(
        reference_compile(app, nes=app.nes)
    )


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_guarded_tables_byte_identical_symbolic_off(name, make):
    """Per-state ETS extraction stacked with the cache-free compile:
    the pipeline (app defaults) against the fully composed reference,
    end to end."""
    app = make()
    assert guarded_bytes(app.compiled) == guarded_bytes(reference_compile(app))


@pytest.mark.slow
def test_guarded_tables_byte_identical_deep_chain():
    """The deep bandwidth-cap chain, where the caches do the most work."""
    app = bandwidth_cap_app(16)
    assert guarded_bytes(app.compiled) == guarded_bytes(
        reference_compile(app, nes=app.nes)
    )


class TestKnowledgeFddCache:
    def test_cache_hit_returns_same_node(self):
        builder = FDDBuilder()
        k = Knowledge(pos=(("ip_dst", 4), ("sw", 1)), neg=(("pt", (2, 3)),))
        assert knowledge_fdd(builder, k) is knowledge_fdd(builder, k)

    def test_equal_knowledge_shares_the_entry(self):
        builder = FDDBuilder()
        k1 = Knowledge(pos=(("sw", 1),))
        k2 = Knowledge(pos=(("sw", 1),))
        assert k1 == k2
        assert knowledge_fdd(builder, k1) is knowledge_fdd(builder, k2)

    def test_cache_is_per_builder(self):
        k = Knowledge(pos=(("sw", 1),))
        b1, b2 = FDDBuilder(), FDDBuilder()
        d1 = knowledge_fdd(b1, k)
        d2 = knowledge_fdd(b2, k)
        assert d1 is not d2  # separate hash-cons universes
        assert repr(d1) == repr(d2)

    def test_cached_fdd_matches_uncached_compile(self):
        builder = FDDBuilder()
        k = Knowledge(pos=(("sw", 2),), neg=(("ip_src", (0, 1)),))
        assert knowledge_fdd(builder, k) is builder.of_predicate(k.predicate())


class TestGuardedTableMemo:
    def test_repeated_calls_reuse_cached_flowtables(self):
        compiled = firewall_app().compiled
        t1 = compiled.guarded_tables()
        t2 = compiled.guarded_tables()
        assert t1 is not t2  # fresh mapping each call
        assert t1.keys() == t2.keys()
        for switch in t1:
            assert t1[switch] is t2[switch]  # memo hit: same FlowTable objects

    def test_mutating_returned_mapping_does_not_corrupt_cache(self):
        compiled = firewall_app().compiled
        before = guarded_bytes(compiled)
        compiled.guarded_tables().clear()
        assert guarded_bytes(compiled) == before

    def test_rule_counts_agree_with_tables(self):
        """The per-configuration sum is the merge's size on every seed
        app: the merge keeps one rule per (configuration, rule)."""
        for name, make in APPS:
            compiled = make().compiled
            tables = compiled.guarded_tables()
            assert compiled.forwarding_rule_count() == sum(
                len(t) for t in tables.values()
            ), name
            assert (
                compiled.total_rule_count()
                == compiled.forwarding_rule_count() + compiled.stamp_rule_count()
            ), name
