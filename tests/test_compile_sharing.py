"""One ``compile_policy`` per distinct configuration policy: states with
equal policies share the first one's tables.  Sharing must mean *equal*
(what a direct compile of each state's policy gives), not merely
aliased — and must be invisible to everything downstream of the
configurations: guarded tables, artifacts, updates, retries, the checker.
"""

import copy
import pickle

import pytest

from repro import faults
from repro.apps import bandwidth_cap_app, ids_app, ring_app
from repro.consistency.checker import NESChecker
from repro.netkat.ast import Filter, conj, test as field_test
from repro.netkat.compiler import compile_policy
from repro.obs import metrics
from repro.pipeline import Delta, Pipeline
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


def test_first_attempt_fault_retries_once():
    plan = faults.FaultPlan({"executor.worker": faults.FaultRule(max_fires=1)})
    with faults.injected(plan):
        pipeline = fresh_pipeline(bandwidth_cap_app(8))
        compiled = pipeline.compiled
    assert plan.fires("executor.worker") == 1
    assert pipeline.report().health == {"executor.retries": 1}
    assert pipeline._configurations_compiled == 2
    assert guarded_bytes(compiled) == guarded_bytes(
        fresh_pipeline(bandwidth_cap_app(8)).compiled
    )


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
