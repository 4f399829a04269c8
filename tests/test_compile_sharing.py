"""One ``compile_policy`` per distinct configuration policy: states with
equal policies share the first one's tables.  Sharing must mean *equal*
(what a direct compile of each state's policy gives), not merely
aliased — and must be invisible to everything downstream of the
configurations: guarded tables, artifacts, updates, failures, the checker.
"""

import copy
import functools
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import faults
from repro.apps import bandwidth_cap_app, firewall_app, ids_app, ring_app
from repro.consistency.checker import NESChecker
from repro.netkat.ast import Filter, Union, conj, test as field_test
from repro.netkat.compiler import (
    CompileError,
    _compile_operand,
    _union_operands,
    alternations,
    compile_policy,
    strip_dup,
)
from repro.netkat.fdd import FDDBuilder
from repro.netkat.flowtable import Rule
from repro.obs import metrics
from repro.pipeline import (
    ARTIFACT_FORMAT,
    ArtifactCache,
    CompileOptions,
    Delta,
    Pipeline,
    StageError,
)
from repro.service.protocol import tables_to_wire
from repro.stateful.projection import project
from naive_oracles import guarded_tables_naive
from seed_apps import (
    APPS, cold_after, compiles, edited_topology, guarded_bytes, switch_preserving_edits,
)
from test_differential import STATE_BOX, random_stateful_policy
from test_theorem1 import H1, H4, run_workload


def fresh_pipeline(app):
    return Pipeline(app.program, app.topology, app.initial_state)


def assert_shared_by_policy(compiled):
    """Equal policies hold the same ``FlowTable`` objects, and a table
    two states share has the text a direct compile of either state's
    policy gives.  Different policies may share a table: the builder
    converts each FDD node once, so policies whose FDD at a switch is
    one node hold that node's table."""
    nes, states = compiled.nes, compiled.states
    direct = {}
    for state in states:
        policy = nes.configuration_policy(state)
        if policy not in direct:
            direct[policy] = compile_policy(policy, compiled.topology)
    for a in states:
        for b in states:
            policy_a, policy_b = nes.configuration_policy(a), nes.configuration_policy(b)
            for switch in compiled.topology.switches:
                table_a = compiled.configurations[a].table(switch)
                table_b = compiled.configurations[b].table(switch)
                if policy_a == policy_b:
                    assert table_a is table_b
                if table_a is table_b:
                    assert repr(table_a) == repr(direct[policy_a].table(switch))
                    assert repr(table_a) == repr(direct[policy_b].table(switch))


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_shared_tables_equal_a_direct_compile(name, make):
    app = make()
    pipeline = fresh_pipeline(app)
    compiled = pipeline.compiled
    for state in compiled.states:
        config = compiled.configurations[state]
        direct = compile_policy(compiled.nes.configuration_policy(state), app.topology)
        assert config.name == f"C{list(state)}"
        assert config.topology is app.topology
        for switch in app.topology.switches:
            assert repr(config.table(switch)) == repr(direct.table(switch))
    assert_shared_by_policy(compiled)
    policies = {compiled.nes.configuration_policy(s) for s in compiled.states}
    assert compiles(pipeline) == len(policies)


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_pickle_round_trip_keeps_sharing_and_tables(name, make):
    compiled = fresh_pipeline(make()).compiled
    loaded = pickle.loads(pickle.dumps(compiled))
    assert guarded_bytes(loaded) == guarded_bytes(compiled)
    assert [c.name for c in loaded.configurations.values()] == [
        c.name for c in compiled.configurations.values()
    ]
    assert_shared_by_policy(loaded)


def test_artifacts_load_across_the_sharing_change():
    """What the parent pickled — one table set per state, no count — and
    what this code pickles load the same way; artifact bytes are not a
    contract, guarded-table bytes are."""
    compiled = fresh_pipeline(bandwidth_cap_app(24)).compiled
    per_state = copy.copy(compiled)
    per_state.configurations = {
        state: compile_policy(
            compiled.nes.configuration_policy(state), compiled.topology,
            name=f"C{list(state)}",
        )
        for state in compiled.states
    }
    unshared, shared = pickle.dumps(per_state), pickle.dumps(compiled)
    assert len(shared) < len(unshared)
    assert guarded_bytes(pickle.loads(unshared)) == guarded_bytes(compiled)


def reply_filter_delta(pt, ip_dst):
    return Delta(
        replace_policy=Filter(conj(field_test("pt", pt), field_test("ip_dst", ip_dst))),
        with_policy=Filter(conj(field_test("pt", pt), field_test("ip_dst", ip_dst + 10))),
    )


UPDATE_BASES = (
    ("cap24", lambda: bandwidth_cap_app(24), reply_filter_delta(2, 1)),
    ("ids", ids_app, reply_filter_delta(2, 3)),
    ("ring8", lambda: ring_app(8), reply_filter_delta(3, 1)),
)


@pytest.mark.parametrize(
    "name,make,policy_delta", UPDATE_BASES, ids=[name for name, _, _ in UPDATE_BASES]
)
def test_updates_stay_byte_equal_to_a_cold_rebuild(name, make, policy_delta):
    app = make()
    base = fresh_pipeline(app)
    deltas = (
        Delta(set_state=((0, 1),)),
        policy_delta,
        Delta(topology=switch_preserving_edits(app)["attach_host"]),
    )
    for delta in deltas:
        updated, cold = base.update(delta), cold_after(app, delta)
        assert guarded_bytes(updated.compiled) == guarded_bytes(cold.compiled)
        stats = dict(updated.report().stats)
        total = len(updated.compiled.states)
        assert stats["update.configurations_recompiled"] == compiles(updated)
        assert stats["update.configurations_recompiled"] <= len(
            {updated.nes.configuration_policy(s) for s in updated.compiled.states}
        )
        assert (
            stats["update.configurations_recompiled"]
            + stats["update.configurations_reused"]
        ) == total


def test_a_first_compile_fault_fails_the_stage_once(tmp_path):
    """A fault on the first ``compile_policy`` fails the compile on its
    first raise: the states that would share its tables are never
    reached, nothing is absorbed, and nothing is stored."""
    app = bandwidth_cap_app(8)
    options = CompileOptions(cache_dir=tmp_path)
    plan = faults.FaultPlan({"executor.worker": faults.FaultRule(max_fires=1)})
    with faults.injected(plan):
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)
        with pytest.raises(StageError) as info:
            pipeline.compiled
    assert info.value.stage == "compile"
    assert plan.hits("executor.worker") == 1
    assert pipeline.report().health == {}
    assert not ArtifactCache(tmp_path).path(pipeline.artifact_key()).exists()

    rerun = Pipeline(app.program, app.topology, app.initial_state, options)
    assert guarded_bytes(rerun.compiled) == guarded_bytes(fresh_pipeline(app).compiled)
    assert compiles(rerun) == 2


def exchanges(count):
    workload = []
    for i in range(count):
        workload.append(("H1", {"ip_dst": H4, "ip_src": H1, "ident": i}))
        workload.append(("H4", {"ip_dst": H1, "ip_src": H4, "ident": 100 + i}))
    return workload


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_checker_verdicts_on_deposited_shared_configurations(seed):
    """The Definition-6 checker reads the shared configurations the
    compile deposited on the NES; its verdicts are the ones it reaches
    compiling each state's policy itself."""
    app = bandwidth_cap_app(4)
    correct = run_workload(app, exchanges(6), seed)
    # A cap-2 network cuts the reply path two exchanges early.
    early = run_workload(bandwidth_cap_app(2), exchanges(6), seed)
    deposited = NESChecker(app.nes, app.topology)
    assert deposited._deposited, "the compile left no configurations on the NES"
    bare = copy.copy(app.nes)
    bare.compiled = None
    own = NESChecker(bare, app.topology)
    assert not own._deposited
    assert deposited.check(correct) and own.check(correct)
    assert not deposited.check(early) and not own.check(early)


def count_of(registry, result):
    return registry.value(
        "repro_stage_memo_total", stage="configuration", result=result
    )


def test_cap48_runs_compile_policy_twice(monkeypatch):
    """Exact-count guard: a cap-48 chain has 50 states and two
    configuration policies (50 ``compile_policy`` runs when every state
    compiled its own)."""
    import repro.pipeline as pipeline_module

    runs = []
    real = pipeline_module.compile_policy
    monkeypatch.setattr(
        pipeline_module, "compile_policy",
        lambda *args, **kwargs: runs.append(kwargs["name"]) or real(*args, **kwargs),
    )
    registry = metrics.MetricsRegistry()
    with metrics.collecting(registry):
        compiled = fresh_pipeline(bandwidth_cap_app(48)).compiled
    assert len(compiled.states) == 50
    assert len(runs) == 2
    # One store lookup per distinct policy: two misses on a cold compile.
    assert count_of(registry, "miss") == 2
    assert count_of(registry, "hit") == 0


def test_update_counts_compiled_shared_and_adopted():
    app = bandwidth_cap_app(24)
    base = fresh_pipeline(app)
    base.compiled
    registry = metrics.MetricsRegistry()
    with metrics.collecting(registry):
        updated = base.update(reply_filter_delta(2, 1))
    # Every state but the last (reply path already closed) changes
    # policy, and the changed ones hold one policy between them: it
    # misses and compiles once for 25 states, and the last state's
    # policy is found in the base's store.
    assert count_of(registry, "miss") == 1
    assert count_of(registry, "hit") == 1
    last = base.compiled.states[-1]
    assert (
        updated.compiled.configurations[last]._tables
        is base.compiled.configurations[last]._tables
    )
    stats = dict(updated.report().stats)
    assert stats["update.configurations_recompiled"] == 1
    assert stats["update.configurations_reused"] == 25


# -- one policy-keyed lookup across updates -----------------------------------


@pytest.mark.parametrize(
    "make,writes",
    [(ids_app, ((0, 3),)), (firewall_app, ((0, 2),))],
    ids=["ids", "firewall"],
)
def test_a_state_new_to_the_lineage_finds_its_policy(make, writes):
    """Every state the delta reaches is new to the lineage, but each
    one's policy is one the base compiled for another state: nothing
    compiles, and the tables are a cold rebuild's."""
    app = make()
    base = fresh_pipeline(app)
    delta = Delta(set_state=writes)
    updated = base.update(delta)
    assert not set(updated.compiled.states) & set(base.compiled.states)
    stats = dict(updated.report().stats)
    assert stats["update.configurations_recompiled"] == 0
    assert "builder" not in updated._store and updated._fdd_nodes_new == 0
    assert guarded_bytes(updated.compiled) == guarded_bytes(
        cold_after(app, delta).compiled
    )
    lent = {
        base.nes.configuration_policy(state): configuration
        for state, configuration in base.compiled.configurations.items()
    }
    for state, configuration in updated.compiled.configurations.items():
        found = lent[updated.nes.configuration_policy(state)]
        assert configuration._tables is found._tables
        assert configuration.name == f"C{list(state)}"


def test_the_merge_is_shared_exactly_when_its_inputs_are():
    app = bandwidth_cap_app(24)
    base = fresh_pipeline(app)
    lender = base.compiled
    merged = lender.guarded_tables()
    # The base's state tuple, one of its two policies changed: the
    # successor builds its own merge.
    delta = reply_filter_delta(2, 1)
    changed = base.update(delta).compiled
    assert changed.states == lender.states
    assert changed._merge is not lender._merge
    assert guarded_bytes(changed) == guarded_bytes(cold_after(app, delta).compiled)
    # Every base table dict under the base's states: the base's merge.
    held = base.update(
        Delta(topology=switch_preserving_edits(app)["attach_host"])
    ).compiled
    assert all(
        held.configurations[state]._tables is lender.configurations[state]._tables
        for state in lender.states
    )
    assert held._merge is lender._merge
    assert all(held.guarded_tables()[sw] is merged[sw] for sw in merged)
    # The base's states and policies on another switch set: the tables
    # differ, and so does the merge.
    switches = sorted(app.topology.switches)
    wider = Delta(topology=edited_topology(app.topology, switches=switches + [99]))
    widened = base.update(wider).compiled
    assert widened.states == lender.states
    assert widened._merge is not lender._merge
    assert guarded_bytes(widened) == guarded_bytes(cold_after(app, wider).compiled)


# -- each FDD node converted once, each table guarded once ---------------------


def reference_wire(compiled):
    tables = guarded_tables_naive(compiled)
    return {str(switch): repr(tables[switch]) for switch in sorted(tables)}


WIRE_APPS = APPS + (("cap24", lambda: bandwidth_cap_app(24)),)


@pytest.mark.parametrize("name,make", WIRE_APPS, ids=[name for name, _ in WIRE_APPS])
def test_the_wire_is_the_per_rule_merge(name, make):
    compiled = fresh_pipeline(make()).compiled
    assert tables_to_wire(compiled) == reference_wire(compiled)


@pytest.mark.parametrize(
    "name,make,policy_delta", UPDATE_BASES, ids=[name for name, _, _ in UPDATE_BASES]
)
def test_an_updated_wire_is_the_per_rule_merge(name, make, policy_delta):
    """After the base's tables have been guarded, a successor that shifts
    the tags (``set_state``), keeps some tables (``replace_policy``) or
    keeps all of them (a host) still serialises to the per-rule merge."""
    app = make()
    base = fresh_pipeline(app)
    assert tables_to_wire(base.compiled) == reference_wire(base.compiled)
    for delta in (
        Delta(set_state=((0, 1),)),
        policy_delta,
        Delta(topology=switch_preserving_edits(app)["attach_host"]),
    ):
        updated = base.update(delta).compiled
        assert tables_to_wire(updated) == reference_wire(updated)


@pytest.mark.parametrize("name,make", WIRE_APPS, ids=[name for name, _ in WIRE_APPS])
def test_a_merged_table_makes_the_per_rule_merge_when_iterated(name, make):
    """A merged table holds its text; its guarded rules are made on the
    first iteration and are the reference merge's, rule for rule."""
    compiled = fresh_pipeline(make()).compiled
    reference = guarded_tables_naive(compiled)
    tables = compiled.guarded_tables()
    assert tables.keys() == reference.keys()
    for switch, table in tables.items():
        assert "_rules" not in vars(table)
        assert list(table) == list(reference[switch])
        assert repr(table) == repr(reference[switch])


def test_the_wire_builds_no_guarded_rule(monkeypatch):
    """``tables_to_wire`` reads each merged table's text alone: it
    constructs no ``Rule`` and leaves no rules on a merged table."""
    compiled = fresh_pipeline(bandwidth_cap_app(24)).compiled
    made = [0]
    real = Rule.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Rule, "__init__", counted)
    guarded_tables_naive(compiled)
    assert made[0] > 0  # the hook sees a guarded rule being made
    made[0] = 0
    wire = tables_to_wire(compiled)
    assert made == [0]
    assert wire == reference_wire(compiled)
    assert not any("_rules" in vars(table) for table in compiled.guarded_tables().values())


def conversions(monkeypatch):
    """The ``table_of_fdd`` runs of ``compile_policy``, as a one-item list."""
    import repro.netkat.compiler as compiler_module

    runs = [0]
    real = compiler_module.table_of_fdd

    def counted(*args):
        runs[0] += 1
        return real(*args)

    monkeypatch.setattr(compiler_module, "table_of_fdd", counted)
    return runs


def test_each_fdd_node_is_converted_once_per_lineage(monkeypatch):
    """Exact-count guard: a cold ring8 holds 8 distinct switch FDDs (32
    conversions when each compile converted its own), cap-48 4, and a
    ring8 policy update converts only the 6 nodes its root never saw."""
    runs = conversions(monkeypatch)
    ring8 = fresh_pipeline(ring_app(8))
    ring8.compiled
    assert runs == [8]
    runs[0] = 0
    fresh_pipeline(bandwidth_cap_app(48)).compiled
    assert runs == [4]
    runs[0] = 0
    updated = ring8.update(reply_filter_delta(3, 1))
    assert runs == [6]
    assert compiles(updated) > 0
    assert guarded_bytes(updated.compiled) == guarded_bytes(
        cold_after(ring_app(8), reply_filter_delta(3, 1)).compiled
    )


def test_serialising_leaves_the_artifact_bytes_alone():
    """The per-table guard split and text are never pickled: an
    artifact's bytes are the same before and after its tables go on the
    wire."""
    compiled = fresh_pipeline(bandwidth_cap_app(8)).compiled
    before = pickle.dumps(compiled)
    wire = tables_to_wire(compiled)
    tables = [t for c in compiled.configurations.values() for t in c._tables.values()]
    assert all("_guard_split" in vars(table) for table in tables)
    after = pickle.dumps(compiled)
    assert after == before
    assert b"_guard_split" not in after
    assert tables_to_wire(pickle.loads(before)) == wire
    assert ARTIFACT_FORMAT == 8


# -- each union operand compiled once per lineage ------------------------------


def operand_traffic(monkeypatch):
    """``compile_policy``'s operand memo traffic, as a dict counting the
    operands looked up and the misses compiled."""
    import repro.netkat.compiler as compiler_module

    traffic = {"lookups": 0, "compiles": 0}
    split, compile_operand = (
        compiler_module._union_operands, compiler_module._compile_operand
    )

    def looked_up(policy):
        operands = split(policy)
        traffic["lookups"] += len(operands)
        return operands

    def compiled(*args):
        traffic["compiles"] += 1
        return compile_operand(*args)

    monkeypatch.setattr(compiler_module, "_union_operands", looked_up)
    monkeypatch.setattr(compiler_module, "_compile_operand", compiled)
    return traffic


# Exact counts: the operand each base's reply-path delta rewrites.  ring8's
# two policies hold the same rewritten operand, so the second one's lookup
# finds the fork's own entry.
POLICY_DELTA_TRAFFIC = {"cap24": (1, 2), "ids": (1, 4), "ring8": (1, 5)}


@pytest.mark.parametrize(
    "name,make,policy_delta", UPDATE_BASES, ids=[name for name, _, _ in UPDATE_BASES]
)
def test_an_update_compiles_only_the_operands_its_delta_touched(
    monkeypatch, name, make, policy_delta
):
    app = make()
    base = fresh_pipeline(app)
    base.compiled
    traffic = operand_traffic(monkeypatch)
    base.update(policy_delta).compiled
    assert (traffic["compiles"], traffic["lookups"]) == POLICY_DELTA_TRAFFIC[name]
    # A state or host delta finds every policy compiled: no operand is
    # even looked up.
    for delta in (
        Delta(set_state=((0, 1),)),
        Delta(topology=switch_preserving_edits(app)["attach_host"]),
    ):
        base.update(delta).compiled
    assert (traffic["compiles"], traffic["lookups"]) == POLICY_DELTA_TRAFFIC[name]


def test_a_cold_compile_shares_operands_across_its_policies(monkeypatch):
    """Exact-count guard: cap-48's two configuration policies hold three
    union operands, two of them distinct."""
    traffic = operand_traffic(monkeypatch)
    fresh_pipeline(bandwidth_cap_app(48)).compiled
    assert traffic == {"lookups": 3, "compiles": 2}


@pytest.mark.parametrize(
    "name,make,policy_delta", UPDATE_BASES, ids=[name for name, _, _ in UPDATE_BASES]
)
def test_reordered_operands_give_a_cold_rebuild_s_bytes(
    monkeypatch, name, make, policy_delta
):
    """A delta that only swaps the program's top-level union operands
    changes the order in which the update unions the contributions its
    root compiled: it compiles none, and the tables are still a cold
    rebuild's."""
    app = make()
    base = fresh_pipeline(app)
    base.compiled
    program = app.program
    assert isinstance(program, Union)
    delta = Delta(
        replace_policy=program, with_policy=Union(program.right, program.left)
    )
    traffic = operand_traffic(monkeypatch)
    updated = base.update(delta)
    assert traffic["lookups"] > 0 and traffic["compiles"] == 0
    assert guarded_bytes(updated.compiled) == guarded_bytes(
        cold_after(app, delta).compiled
    )


def union_in(builder, fdds, data):
    """The union of ``fdds`` in a drawn order under a drawn grouping."""
    if len(fdds) == 1:
        return fdds[0]
    cut = data.draw(st.integers(1, len(fdds) - 1))
    return builder.union(
        union_in(builder, fdds[:cut], data), union_in(builder, fdds[cut:], data)
    )


def hop_fdds(builder, policy):
    """The FDD of every hop segment of ``policy``'s alternations."""
    try:
        chains = alternations(strip_dup(policy))
    except CompileError:  # a star over links: no hops to compile
        return []
    return [builder.of_policy(segment) for alt in chains for segment in alt.segments]


def assert_union_is_canonical(builder, fdds, data):
    """Any order and grouping of ``fdds`` unions to the left fold's node."""
    folded = builder.drop
    for d in fdds:
        folded = builder.union(folded, d)
    shuffled = data.draw(st.permutations(fdds))
    assert union_in(builder, shuffled, data) is folded


@given(st.integers(0, 10**9), st.data())
@settings(max_examples=100, deadline=None)
def test_union_is_one_node_under_any_grouping_of_random_hops(seed, data):
    """What the operand memo rests on: unioning per-operand FDDs
    instead of the whole policy's gives the same node."""
    rng = random.Random(seed)
    program = random_stateful_policy(rng, 3)
    builder = FDDBuilder()
    fdds = [
        d
        for state in STATE_BOX[:3]
        for d in hop_fdds(builder, project(program, state))
    ]
    assume(fdds)
    assert_union_is_canonical(builder, fdds, data)


@functools.lru_cache(maxsize=None)
def app_policies(index):
    """The switch set and the distinct configuration policies of an app."""
    compiled = fresh_pipeline(APPS[index][1]()).compiled
    policies = {compiled.nes.configuration_policy(s): None for s in compiled.states}
    return compiled.topology.switches, tuple(policies)


@given(st.integers(0, len(APPS) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_union_is_one_node_under_any_grouping_of_app_operands(index, data):
    switches, policies = app_policies(index)
    policy = data.draw(st.sampled_from(policies))
    builder = FDDBuilder()
    by_switch = {}
    for operand in _union_operands(policy):
        contribution = _compile_operand(builder, operand, switches)
        for switch, d in zip(contribution[::2], contribution[1::2]):
            by_switch.setdefault(switch, []).append(d)
    assert by_switch
    for fdds in by_switch.values():
        assert_union_is_canonical(builder, fdds, data)
