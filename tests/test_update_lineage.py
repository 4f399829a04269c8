"""Updates start from their lineage root's work, and never write to it.

A pipeline that :meth:`~repro.pipeline.Pipeline.update` did not make is
a lineage root; every successor, however deep the chain, borrows the
root's :class:`~repro.stateful.symbolic.SymbolicProgram` walk memos and
compiles on a fork of the root's :class:`~repro.netkat.fdd.FDDBuilder`.
Pinned here:

- **byte identity**: seeded random Stateful NetKAT programs (bodies from
  ``test_differential.random_stateful_policy``) with sub-policies
  replaced near the root, inside a ``Star``, deep in a union chain and
  on a state-updating edge, as single updates and as 3-deep chains,
  compile to the tables of a cold build — and the traffic counters show
  that the borrowed memos did the work a cold build would have;
- **retention**: the root's builder tables and lendable memos do not
  grow however many updates it serves, and a chain keeps no ancestor
  pipeline alive;
- **per-state memos**: ``set_state`` values a client chooses do not grow
  the shared engine;
- **concurrency**: updates from one base on two threads;
- **switch-set topology deltas** recompile on a fork whose ``of_policy``
  memo already holds the configuration policies.
"""

import gc
import random
import sys
import threading
import weakref

import pytest

from repro.apps import bandwidth_cap_app, ids_app
from repro.netkat import ast as nk
from repro.netkat.ast import conj, filter_, test as field_test
from repro.netkat.fdd import FDDBuilder
from repro.obs import metrics
from repro.pipeline import Delta, Pipeline
from repro.service.protocol import topology_to_wire
from repro.stateful.ast import LinkUpdate, StateTest
from repro.topology import Topology

from seed_apps import (
    cold_after, compiles, edited_topology, guarded_bytes, switch_preserving_edits,
)
from test_differential import STATE_WIDTH, VALUES, random_stateful_policy


def _topology() -> Topology:
    topology = Topology()
    for switch in (1, 2, 3):
        topology.add_switch(switch)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a != b:
                topology.add_link(f"{a}:1", f"{b}:1")
    return topology


TOPOLOGY = _topology()
INITIAL = (0,) * STATE_WIDTH


def _subpolicies(p):
    out = [p]
    if isinstance(p, (nk.Seq, nk.Union)):
        out += _subpolicies(p.left) + _subpolicies(p.right)
    elif isinstance(p, nk.Star):
        out += _subpolicies(p.operand)
    return out


def _advancing(p, value):
    """``p`` with every state update rewritten to ``state(0)<-value``, so
    a chain of branches guarded by ``state(0)=i`` only ever moves up:
    an acyclic ETS, which the NES conversion accepts."""
    if isinstance(p, LinkUpdate):
        return LinkUpdate(p.src, p.dst, ((0, value),))
    if isinstance(p, (nk.Seq, nk.Union)):
        return type(p)(_advancing(p.left, value), _advancing(p.right, value))
    if isinstance(p, nk.Star):
        return nk.Star(_advancing(p.operand, value))
    return p


def _link_free(p) -> bool:
    return not any(isinstance(s, (nk.Link, LinkUpdate)) for s in _subpolicies(p))


def lineage_program(rng: random.Random):
    """``filter; (b0 + b1 + ... + bn); body*``: a left-nested union chain
    of ``state(0)=i``-guarded random branches advancing to ``i+1``, and
    a star over a link-free random policy (a star over a link is outside
    the compilable fragment)."""
    chain = None
    for i in range(rng.randint(4, 7)):
        branch = nk.Seq(
            filter_(StateTest(0, i)),
            _advancing(random_stateful_policy(rng, 2), i + 1),
        )
        chain = branch if chain is None else nk.Union(chain, branch)
    body = random_stateful_policy(rng, 2)
    while not _link_free(body):
        body = random_stateful_policy(rng, 2)
    head = filter_(field_test("ip_dst", rng.choice(VALUES)))
    return nk.Seq(nk.Seq(head, chain), nk.Star(body))


def replacements(rng: random.Random, program):
    """One ``replace_policy`` delta per site: the head filter, a
    subterm of the star's body, a subterm of a branch deep in the union
    chain, and a state-updating edge (so the ETS changes)."""
    (head, chain), loop = (program.left.left, program.left.right), program.right
    deep = chain
    while isinstance(deep, nk.Union) and isinstance(deep.left, nk.Union):
        deep = deep.left
    sites = {
        "root": (head, filter_(field_test("ip_dst", rng.choice(VALUES)))),
        "star": (
            rng.choice(_subpolicies(loop.operand)),
            random_stateful_policy(rng, 1),
        ),
        "union": (
            rng.choice(_subpolicies(deep.right)),
            random_stateful_policy(rng, 1),
        ),
    }
    edges = [s for s in _subpolicies(program) if isinstance(s, LinkUpdate)]
    if edges:
        old = rng.choice(edges)
        value = rng.choice([v for v in range(1, 9) if (0, v) not in old.updates])
        sites["edge"] = (old, LinkUpdate(old.src, old.dst, ((0, value),)))
    return {
        site: Delta(replace_policy=old, with_policy=new)
        for site, (old, new) in sites.items()
    }


def _outcome(thunk):
    try:
        return ("ok", guarded_bytes(thunk()))
    except Exception as exc:  # noqa: BLE001 - the *type* is the oracle
        return ("error", type(exc))


class _Traffic:
    """What the updates built against what cold builds of the same
    inputs built, summed over the successful updates."""

    def __init__(self):
        self.updates = 0
        self.entries_new = self.entries_cold = 0
        self.nodes_new = self.nodes_cold = 0

    def add(self, updated: Pipeline, cold: Pipeline) -> None:
        stats = dict(updated.report().stats)
        entries, nodes = (
            stats["update.symbolic_entries_new"], stats["update.fdd_nodes_new"]
        )
        # A borrowed memo entry is one the walk did not make again.
        assert entries <= cold._symbolic.entries_new
        assert nodes <= cold._store["builder"].node_count
        self.updates += 1
        self.entries_new += entries
        self.entries_cold += cold._symbolic.entries_new
        self.nodes_new += nodes
        self.nodes_cold += cold._store["builder"].node_count


def _checked_update(source: Pipeline, delta: Delta, traffic: _Traffic):
    """``source.update(delta)`` and a cold build of the same inputs
    agree; the updated pipeline, or ``None`` when both raised."""
    cold = Pipeline(
        delta.apply_program(source.program),
        delta.apply_topology(source.topology),
        delta.apply_initial_state(source.initial_state),
    )
    updated = []

    def update():
        updated.append(source.update(delta))
        return updated[0].compiled

    expected = _outcome(lambda: cold.compiled)
    assert _outcome(update) == expected, (
        f"update diverged from a cold build on {delta!r}"
    )
    if expected[0] == "error":
        return None
    traffic.add(updated[0], cold)
    return updated[0]


def _sweep(seeds):
    traffic = _Traffic()
    sites_ok = set()
    for seed in seeds:
        rng = random.Random(7000 + seed)
        program = lineage_program(rng)
        base = Pipeline(program, TOPOLOGY, INITIAL)
        if _outcome(lambda: base.compiled)[0] == "error":
            continue
        for site, delta in replacements(rng, program).items():
            if _checked_update(base, delta, traffic) is not None:
                sites_ok.add(site)
        # A 3-deep chain: each link replaces a site of its own program.
        current = base
        for _ in range(3):
            deltas = replacements(rng, current.program)
            current = _checked_update(
                current, deltas[rng.choice(sorted(deltas))], traffic
            )
            if current is None:
                break
    return traffic, sites_ok


@pytest.mark.parametrize("chunk", range(4))
def test_replacements_match_cold_builds(chunk):
    traffic, sites_ok = _sweep(range(10 * chunk, 10 * chunk + 10))
    # Not vacuous: most updates compiled, every site among them, and
    # the borrowed memos did most of the work.
    assert traffic.updates >= 20
    assert sites_ok == {"root", "star", "union", "edge"}
    assert traffic.entries_new < traffic.entries_cold / 2
    assert traffic.nodes_new < traffic.nodes_cold / 2


@pytest.mark.slow
def test_replacements_match_cold_builds_wide_sweep():
    traffic, sites_ok = _sweep(range(40, 400))
    assert traffic.updates >= 1000
    assert sites_ok == {"root", "star", "union", "edge"}


# ---------------------------------------------------------------------------
# Retention: the root is read-only, and a chain keeps no ancestor alive
# ---------------------------------------------------------------------------

IDS_FILTER = filter_(conj(field_test("pt", 2), field_test("ip_dst", 3)))


def ids_replacement(k: int) -> Delta:
    return Delta(
        replace_policy=IDS_FILTER,
        with_policy=filter_(
            conj(field_test("pt", 2), field_test("ip_dst", 10 + k))
        ),
    )


def root_sizes(root: Pipeline):
    builder = root._store["builder"]
    tables = {
        name: len(value) for name, value in vars(builder).items()
        if isinstance(value, dict)
    }
    return (
        tables,
        builder.node_count,
        [len(memo) for memo in root._symbolic.lendable()],
        len(root._symbolic._edges_at),
        len(root._symbolic._configuration_at),
    )


def test_a_root_serves_many_updates_without_growing():
    base = Pipeline(ids_app().program, ids_app().topology, (0,))
    base.update(ids_replacement(0)).compiled  # builds the lendable memos
    before = root_sizes(base)
    for k in range(1, 201):
        updated = base.update(ids_replacement(k))
        assert dict(updated.report().stats)["update.configurations_recompiled"]
    assert root_sizes(base) == before


def test_update_traffic_is_counted_in_the_registry():
    base = Pipeline(ids_app().program, ids_app().topology, (0,))
    with metrics.collecting() as registry:
        stats = dict(base.update(ids_replacement(1)).report().stats)
    assert stats["update.symbolic_entries_new"] > 0
    assert stats["update.fdd_nodes_new"] > 0
    for name in ("symbolic_entries_new", "fdd_nodes_new"):
        assert registry.value(f"repro_update_{name}_total") == stats[
            f"update.{name}"
        ]


def first_address_replacement(source: Pipeline, k: int) -> Delta:
    """Replace the first filter of ``source``'s program that tests
    ``ip_dst`` with one testing another address."""
    old = next(
        s for s in _subpolicies(source.program)
        if isinstance(s, nk.Filter) and "ip_dst" in repr(s)
    )
    return Delta(
        replace_policy=old, with_policy=filter_(field_test("ip_dst", 20 + k))
    )


def test_a_chain_keeps_only_its_roots_engine_and_builder():
    app = bandwidth_cap_app(8)
    root = Pipeline(app.program, app.topology, app.initial_state)
    root.compiled
    store = root._store
    assert store["engine"] is root._symbolic
    chain = [root]
    for k in range(5):
        chain.append(chain[-1].update(first_address_replacement(chain[-1], k)))
    last = chain[-1]
    assert last._below == (store,)
    assert not any({"engine", "builder"} & p._store.keys() for p in chain[1:])
    root_ref, middle_ref = weakref.ref(root), weakref.ref(chain[2])
    del root, chain
    gc.collect()
    assert root_ref() is None and middle_ref() is None
    assert guarded_bytes(last.compiled) == guarded_bytes(
        Pipeline(last.program, app.topology, app.initial_state).compiled
    )


# ---------------------------------------------------------------------------
# Per-state memos: a shared engine stops growing once its ETS is built
# ---------------------------------------------------------------------------


def test_client_chosen_states_do_not_grow_a_shared_engine():
    app = ids_app()
    base = Pipeline(app.program, app.topology, app.initial_state)
    base.compiled
    engine = base._symbolic
    sizes = len(engine._edges_at), len(engine._configuration_at)
    for value in range(3, 1003):
        delta = Delta(set_state=((0, value),))
        updated = base.update(delta)
        assert updated._symbolic is engine
        assert guarded_bytes(updated.compiled) == guarded_bytes(
            Pipeline(app.program, app.topology, (value,)).compiled
        )
    assert (len(engine._edges_at), len(engine._configuration_at)) == sizes


# ---------------------------------------------------------------------------
# Concurrency: updates from one base on two threads
# ---------------------------------------------------------------------------


def test_two_threads_update_one_base():
    app = ids_app()
    base = Pipeline(app.program, app.topology, app.initial_state)
    base.update(ids_replacement(0)).compiled  # builds the lendable memos
    before = root_sizes(base)
    deltas = [ids_replacement(k) for k in range(1, 51)]
    expected = [
        guarded_bytes(Pipeline(
            delta.apply_program(app.program), app.topology, app.initial_state
        ).compiled)
        for delta in deltas
    ]
    barrier = threading.Barrier(2)
    right = [0, 0]

    def worker(slot):
        order = range(50) if slot == 0 else reversed(range(50))
        barrier.wait()
        for k in order:
            tables = guarded_bytes(base.update(deltas[k]).compiled)
            right[slot] += tables == expected[k]

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two updates finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert right == [50, 50]
    assert root_sizes(base) == before  # neither thread wrote to the root


def test_two_threads_derive_the_policy_map_at_once():
    """Two threads updating one base at once both find every policy in
    the base's store, which neither writes to."""
    app = bandwidth_cap_app(8)
    base = Pipeline(app.program, app.topology, app.initial_state)
    base.compiled
    deltas = [Delta(set_state=((0, value),)) for value in range(1, 8)] + [
        Delta(topology=topology) for topology in switch_preserving_edits(app).values()
    ]
    expected = [guarded_bytes(cold_after(app, delta).compiled) for delta in deltas]
    barrier = threading.Barrier(2)
    right = [0, 0]

    def worker(slot):
        order = range(len(deltas)) if slot == 0 else reversed(range(len(deltas)))
        barrier.wait()
        for k in order:
            updated = base.update(deltas[k])
            right[slot] += (
                guarded_bytes(updated.compiled) == expected[k]
                and compiles(updated) == 0
            )

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert right == [len(deltas), len(deltas)]


# ---------------------------------------------------------------------------
# A switch-set topology delta keeps the program: the fork's memo hits
# ---------------------------------------------------------------------------


def test_a_switch_delta_compiles_on_a_warm_fork(monkeypatch):
    app = bandwidth_cap_app(8)
    base = Pipeline(app.program, app.topology, app.initial_state)
    base.compiled
    wire = topology_to_wire(app.topology)
    topology = edited_topology(
        app.topology, switches=wire["switches"] + [max(wire["switches"]) + 1]
    )
    calls = hits = 0
    of_policy = FDDBuilder.of_policy

    def counting(self, p):
        nonlocal calls, hits
        # The path compiler assembles each hop's segment afresh, but the
        # segment is the very node the root compiled (terms are
        # hash-consed), so every lookup hits, the segments included.
        hits += p in self._memo_of_policy
        calls += 1
        return of_policy(self, p)

    monkeypatch.setattr(FDDBuilder, "of_policy", counting)
    updated = base.update(Delta(topology=topology))
    monkeypatch.undo()
    stats = dict(updated.report().stats)
    assert stats["update.configurations_recompiled"] > 0
    assert hits == calls > 0
    assert stats["update.fdd_nodes_new"] == 0  # every FDD was the root's
    assert guarded_bytes(updated.compiled) == guarded_bytes(
        Pipeline(app.program, topology, app.initial_state).compiled
    )
