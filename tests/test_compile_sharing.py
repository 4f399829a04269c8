"""One ``compile_policy`` per distinct configuration policy: states with
equal policies share the first one's tables.  Sharing must mean *equal*
(what a direct compile of each state's policy gives), not merely
aliased — and must be invisible to everything downstream of the
configurations: guarded tables, artifacts, updates, failures, the checker.
"""

import copy
import pickle

import pytest

from repro import faults
from repro.apps import bandwidth_cap_app, firewall_app, ids_app, ring_app
from repro.consistency.checker import NESChecker
from repro.netkat.ast import Filter, conj, test as field_test
from repro.netkat.compiler import compile_policy
from repro.obs import metrics
from repro.pipeline import ArtifactCache, CompileOptions, Delta, Pipeline, StageError
from repro.runtime.compiler import CompiledNES
from seed_apps import APPS, cold_after, guarded_bytes, switch_preserving_edits
from test_theorem1 import H1, H4, run_workload


def fresh_pipeline(app):
    return Pipeline(app.program, app.topology, app.initial_state)


def assert_shared_by_policy(compiled):
    """Equal policies hold the same ``FlowTable`` objects; different
    policies hold none in common."""
    nes, states = compiled.nes, compiled.states
    for a in states:
        for b in states:
            same_policy = nes.configuration_policy(a) == nes.configuration_policy(b)
            for switch in compiled.topology.switches:
                table_a = compiled.configurations[a].table(switch)
                table_b = compiled.configurations[b].table(switch)
                assert (table_a is table_b) == same_policy


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
    assert pipeline._configurations_compiled == len(policies)


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
        assert stats["update.configurations_recompiled"] == (
            updated._configurations_compiled
        )
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
    assert rerun._configurations_compiled == 2


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
    return registry.value("repro_compile_configurations_total", result=result)


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
    assert count_of(registry, "compiled") == 2
    assert count_of(registry, "shared") == 48
    assert count_of(registry, "adopted") == 0


def test_update_counts_compiled_shared_and_adopted():
    app = bandwidth_cap_app(24)
    base = fresh_pipeline(app)
    base.compiled
    registry = metrics.MetricsRegistry()
    with metrics.collecting(registry):
        updated = base.update(reply_filter_delta(2, 1))
    # Every state but the last (reply path already closed) changes
    # policy, and the changed ones hold one policy between them.
    assert count_of(registry, "compiled") == 1
    assert count_of(registry, "shared") == 24
    assert count_of(registry, "adopted") == 1
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
    assert updated._builder is None and updated._fdd_nodes_new == 0
    assert guarded_bytes(updated.compiled) == guarded_bytes(
        cold_after(app, delta).compiled
    )
    lent = base.compiled.configurations_by_policy
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
    # Equal tables in another dict are not the lender's: no sharing.
    first = lender.states[0]
    configurations = dict(lender.configurations)
    configurations[first] = compile_policy(
        lender.nes.configuration_policy(first), lender.topology,
        name=f"C{list(first)}",
    )
    recompiled = CompiledNES(lender.nes, lender.topology, configurations)
    recompiled.share_merge(lender)
    assert recompiled._merge is not lender._merge
    assert guarded_bytes(recompiled) == guarded_bytes(lender)
