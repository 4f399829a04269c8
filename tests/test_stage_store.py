"""The stage store's traffic, pinned.

Every stage looks its value up before it computes, in the pipeline's own
store and then the stores it reads through (``repro_stage_memo_total``,
by stage and result).  Pinned here, on the three delta kinds of the
``update_stream`` benchmark against warm cap-24, ids and ring-8 bases:
which stages run, every stage's hits and lookups, and the ``update.*``
stats.  They are the traffic of the predecessor borrows the store
replaced, with one intended change: a topology delta finds the ETS
instead of building an equal one.  Also pinned: a three-update chain, a
chain that returns to its root's state, and the lifetime of a
successor's own entries.
"""

import pytest

from repro.apps import bandwidth_cap_app, ids_app, ring_app
from repro.netkat.parser import parse_policy
from repro.obs import metrics
from repro.pipeline import Delta, Pipeline
from repro.service.protocol import topology_from_wire, topology_to_wire

from seed_apps import cold_after, guarded_bytes

# base -> (app, its reply filter, the filter re-aimed, a set_state value)
BASES = {
    "cap24": (lambda: bandwidth_cap_app(24), "pt=2 & ip_dst=1", "pt=2 & ip_dst=11", 3),
    "ids": (ids_app, "pt=2 & ip_dst=3", "pt=2 & ip_dst=13", 1),
    "ring8": (lambda: ring_app(8), "pt=3 & ip_dst=1", "pt=3 & ip_dst=11", 1),
}


def delta_of(name, kind):
    """One delta of ``kind`` for base ``name``, shaped as update_stream's:
    a state value, the reply filter re-aimed, a host added."""
    make, reply, aimed, value = BASES[name]
    app = make()
    if kind == "set_state":
        return app, Delta(set_state=((0, value),))
    if kind == "replace_policy":
        return app, Delta(
            replace_policy=parse_policy(reply), with_policy=parse_policy(aimed)
        )
    wire = topology_to_wire(app.topology)
    wire["hosts"] = wire["hosts"] + [["HX", f"{min(wire['switches'])}:7"]]
    return app, Delta(topology=topology_from_wire(wire))


def traffic(registry):
    """``{stage: (hits, lookups)}`` from the installed registry."""
    counts = {}
    for labels, counter in registry.series("repro_stage_memo_total"):
        hits, lookups = counts.get(labels["stage"], (0, 0))
        n = int(counter.value)
        counts[labels["stage"]] = (hits + n * (labels["result"] == "hit"), lookups + n)
    return counts


def updated_with_traffic(base, delta):
    with metrics.collecting() as registry:
        updated = base.update(delta)
    return updated, traffic(registry)


UPDATE_STATS = (
    "update.symbolic_entries_new", "update.fdd_nodes_new",
    "update.states_reused", "update.states_reinstantiated",
    "update.configurations_recompiled", "update.configurations_reused",
)

# (base, kind) -> stages run, {stage: (hits, lookups)}, update.* stats in
# UPDATE_STATS order; configurations are looked up once per distinct
# policy.  A set_state delta finds the engine and every
# configuration, and converts a new ETS; a replace_policy delta walks a
# new engine from the root's memos, adopts the event structure and
# compiles the rewritten policy alone; a topology delta finds everything.
PINNED = {
    ("cap24", "set_state"): (
        ["ets", "nes", "compile"],
        {"symbolic": (1, 1), "ets": (0, 1), "nes": (0, 1),
         "configuration": (2, 2), "merge": (0, 1)},
        (0, 0, 23, 0, 0, 23),
    ),
    ("cap24", "replace_policy"): (
        ["ets", "nes", "compile"],
        {"symbolic": (0, 1), "ets": (0, 1), "nes": (1, 1),
         "configuration": (1, 2), "merge": (0, 1)},
        (15, 14, 1, 25, 1, 25),
    ),
    ("cap24", "topology"): (
        ["compile"],
        {"symbolic": (1, 1), "ets": (1, 1), "nes": (1, 1),
         "configuration": (2, 2), "merge": (1, 1)},
        (0, 0, 26, 0, 0, 26),
    ),
    ("ids", "set_state"): (
        ["ets", "nes", "compile"],
        {"symbolic": (1, 1), "ets": (0, 1), "nes": (0, 1),
         "configuration": (2, 2), "merge": (0, 1)},
        (0, 0, 2, 0, 0, 2),
    ),
    ("ids", "replace_policy"): (
        ["ets", "nes", "compile"],
        {"symbolic": (0, 1), "ets": (0, 1), "nes": (1, 1),
         "configuration": (1, 2), "merge": (0, 1)},
        (16, 18, 1, 2, 1, 2),
    ),
    ("ids", "topology"): (
        ["compile"],
        {"symbolic": (1, 1), "ets": (1, 1), "nes": (1, 1),
         "configuration": (2, 2), "merge": (1, 1)},
        (0, 0, 3, 0, 0, 3),
    ),
    ("ring8", "set_state"): (
        ["ets", "nes", "compile"],
        {"symbolic": (1, 1), "ets": (0, 1), "nes": (0, 1),
         "configuration": (1, 1), "merge": (0, 1)},
        (0, 0, 1, 0, 0, 1),
    ),
    ("ring8", "replace_policy"): (
        ["ets", "nes", "compile"],
        {"symbolic": (0, 1), "ets": (0, 1), "nes": (1, 1),
         "configuration": (0, 2), "merge": (0, 1)},
        (30, 46, 0, 2, 2, 0),
    ),
    ("ring8", "topology"): (
        ["compile"],
        {"symbolic": (1, 1), "ets": (1, 1), "nes": (1, 1),
         "configuration": (2, 2), "merge": (1, 1)},
        (0, 0, 2, 0, 0, 2),
    ),
}


@pytest.mark.parametrize("name,kind", PINNED, ids=[f"{n}.{k}" for n, k in PINNED])
def test_one_delta_from_a_warm_base(name, kind):
    app, delta = delta_of(name, kind)
    base = Pipeline(app.program, app.topology, app.initial_state)
    base.compiled
    updated, counts = updated_with_traffic(base, delta)
    stages, lookups, stats = PINNED[name, kind]
    assert [stage for stage, _ in updated.report().stage_seconds] == stages
    assert counts == lookups
    report = dict(updated.report().stats)
    assert tuple(report[stat] for stat in UPDATE_STATS) == stats
    cold = cold_after(app, delta)
    assert guarded_bytes(updated.compiled) == guarded_bytes(cold.compiled)
    # What the stages found is the base's own.
    if kind == "topology":
        assert updated.ets is base.ets and updated.nes is base.nes
        assert updated.compiled._merge is base.compiled._merge
    elif kind == "replace_policy":
        assert updated.nes.structure is base.nes.structure
    else:
        assert updated._symbolic is base._symbolic


def test_a_chain_keeps_its_traffic():
    """ids A -> B (replace_policy) -> C (topology) -> D (set_state): B
    compiles the rewritten policy; C builds nothing (no engine entry, no
    FDD node, no ets or nes stage), finding B's values in B's store; D
    finds B's engine through C, which kept it, and every table."""
    a_app, policy = delta_of("ids", "replace_policy")
    _, topology = delta_of("ids", "topology")
    a = Pipeline(a_app.program, a_app.topology, a_app.initial_state)
    b = a.update(policy)
    c, c_counts = updated_with_traffic(b, topology)
    d, d_counts = updated_with_traffic(c, Delta(set_state=((0, 1),)))
    recompiled = [
        dict(p.report().stats)["update.configurations_recompiled"] for p in (b, c, d)
    ]
    assert recompiled == [1, 0, 0]
    c_stats = dict(c.report().stats)
    assert c_stats["update.symbolic_entries_new"] == c_stats["update.fdd_nodes_new"] == 0
    assert [stage for stage, _ in c.report().stage_seconds] == ["compile"]
    assert c.ets is b.ets and c.nes is b.nes and c._symbolic is b._symbolic
    assert c_counts == {"symbolic": (1, 1), "ets": (1, 1), "nes": (1, 1),
                        "configuration": (2, 2), "merge": (1, 1)}
    assert d._symbolic is b._symbolic
    assert d_counts == {"symbolic": (1, 1), "ets": (0, 1), "nes": (0, 1),
                        "configuration": (2, 2), "merge": (0, 1)}
    # Built, each successor reads through the root's store alone.
    assert b._below == c._below == d._below == (a._store,)
    for p in (b, c, d):
        cold = Pipeline(p.program, p.topology, p.initial_state)
        assert guarded_bytes(p.compiled) == guarded_bytes(cold.compiled)


def test_a_chain_back_to_the_roots_state_finds_the_roots_entries():
    """A -> B (set_state 1) -> A' (set_state 0): A' reads through B's
    store and the root's, and the root's holds every value A' needs —
    its ETS, its NES and its merge — so A' runs no ets or nes stage."""
    app = ids_app()
    a = Pipeline(app.program, app.topology, app.initial_state)
    b = a.update(Delta(set_state=((0, 1),)))
    back, counts = updated_with_traffic(b, Delta(set_state=((0, 0),)))
    assert [stage for stage, _ in back.report().stage_seconds] == ["compile"]
    assert back.ets is a.ets and back.nes is a.nes
    assert back.compiled._merge is a.compiled._merge
    assert counts == {"symbolic": (1, 1), "ets": (1, 1), "nes": (1, 1),
                      "configuration": (2, 2), "merge": (1, 1)}
    assert guarded_bytes(back.compiled) == guarded_bytes(a.compiled)


def test_a_successors_own_entries_go_with_it():
    """Two updates from one base by the same delta: the second does not
    find what the first built (its store is not below the second's), so
    it walks and compiles the same again; neither wrote to the base."""
    app, delta = delta_of("cap24", "replace_policy")
    base = Pipeline(app.program, app.topology, app.initial_state)
    base.compiled
    entries = dict(base._store)
    first, first_counts = updated_with_traffic(base, delta)
    second, second_counts = updated_with_traffic(base, delta)
    assert first_counts == second_counts
    assert first._symbolic is not second._symbolic
    assert dict(first.report().stats) == dict(second.report().stats)
    assert base._store == entries
