"""The NES carries its compiled ``g``, and the checker reads it.

``CompiledNES`` leaves its finished configurations on the NES it was
compiled from (``NES.compiled``: one slot, with the switch set the
tables are valid for); ``NESChecker`` adopts them when its topology has
that switch set and compiles only for an NES nobody compiled.  The slot
is no part of the NES's value: it changes no verdict, no pickle and no
artifact, and however many topologies an NES is compiled over it holds
the latest deposit alone.
"""

import gc
import pickle
import weakref

import pytest

from repro.apps import bandwidth_cap_app, firewall_app, ids_app
from repro.consistency import checker as checker_module
from repro.consistency.checker import NESChecker
from repro.obs import metrics
from repro.pipeline import CompileOptions, Delta, Pipeline
from repro.runtime.semantics import Runtime
from repro.service.protocol import topology_to_wire
from repro.stateful.projection import project

from seed_apps import edited_topology, switch_preserving_edits

H1, H4 = 1, 4
COUNTER = "repro_checker_configurations_total"


def exchanges(network, count, seed=1):
    """``count`` H1<->H4 exchanges through the operational semantics."""
    runtime = Runtime(network, seed=seed)
    for i in range(count):
        runtime.inject("H1", {"ip_dst": H4, "ip_src": H1, "ident": i})
        runtime.run_until_quiescent()
        runtime.inject("H4", {"ip_dst": H1, "ip_src": H4, "ident": 100 + i})
        runtime.run_until_quiescent()
    return runtime.network_trace()


def known_traces(app):
    """Traces of the compiled program (correct, Theorem 1) and of the
    network that never leaves its initial configuration (incorrect once
    an event has fired)."""
    stale = Pipeline(
        project(app.program, app.initial_state), app.topology, ()
    ).compiled
    return [
        (exchanges(app.compiled, 1), True),
        (exchanges(app.compiled, 3, seed=7), True),
        (exchanges(stale, 5), False),
    ]


def bare_copy(nes):
    """The same NES value in a new object, which nobody compiled."""
    copy = nes.with_configurations(
        {s: nes.configuration_policy(s) for s in nes.configuration_states()}
    )
    assert copy.compiled is None
    return copy


@pytest.fixture
def compiles(monkeypatch):
    """The states the checker compiled for itself, as they happen."""
    calls = []
    real = checker_module.compile_policy

    def counting(policy, topology, **kwargs):
        calls.append(kwargs.get("name"))
        return real(policy, topology, **kwargs)

    monkeypatch.setattr(checker_module, "compile_policy", counting)
    return calls


@pytest.mark.parametrize(
    "make_app", [firewall_app, lambda: bandwidth_cap_app(3)], ids=["firewall", "cap3"]
)
def test_compiled_pipeline_checks_without_compiling(make_app, compiles):
    app = make_app()
    p = app.pipeline
    assert p.compiled.nes is p.nes
    traces = known_traces(app)
    with metrics.collecting() as registry:
        verdicts = [
            bool(NESChecker(p.nes, p.topology).check(trace))
            for _ in range(4)
            for trace, _ in traces
        ]
    assert verdicts == [known for _, known in traces] * 4
    assert compiles == []
    assert registry.value(COUNTER, result="compiled") == 0
    assert registry.value(COUNTER, result="adopted") > 0

    # The same value without the slot: same verdicts, its own compiles.
    bare = bare_copy(p.nes)
    with metrics.collecting() as registry:
        reports = [NESChecker(bare, p.topology).check(trace) for trace, _ in traces]
    assert [bool(r) for r in reports] == [known for _, known in traces]
    assert [r.reason for r in reports] == [
        NESChecker(p.nes, p.topology).check(trace).reason for trace, _ in traces
    ]
    assert compiles
    assert registry.value(COUNTER, result="adopted") == 0
    assert registry.value(COUNTER, result="compiled") == len(compiles)


def test_hand_built_nes_still_checks(compiles):
    app = firewall_app()
    bare = bare_copy(app.nes)
    checker = NESChecker(bare, app.topology)
    assert checker._builder is None  # no builder until the first miss
    assert checker.check(exchanges(app.compiled, 1))
    assert checker._builder is not None
    assert compiles and bare.compiled is None  # a checker deposits nothing


def test_adoption_follows_the_switch_set(compiles):
    app = firewall_app()
    compiled = app.compiled
    trace = exchanges(compiled, 1)
    wire = topology_to_wire(app.topology)

    wider = edited_topology(app.topology, switches=wire["switches"] + [9])
    assert NESChecker(app.nes, wider).check(trace)
    assert compiles  # another switch set: other tables, compiled here
    del compiles[:]

    # Same switches, one program link gone: the tables are adopted and
    # the link relation is the checker's topology's, not the deposit's.
    cut = switch_preserving_edits(app)["remove_used_link"]
    checker = NESChecker(app.nes, cut)
    initial = checker._config_of_mask(0)
    assert compiles == []
    deposited = compiled.config_for_event_set(frozenset())
    assert initial.topology is cut and deposited.topology is app.topology
    assert initial.tables == deposited.tables
    crossing = next(
        lp for lp in trace.packets if deposited.link_step(lp) != initial.link_step(lp)
    )
    assert deposited.link_step(crossing) and not initial.link_step(crossing)
    assert not checker.check(trace)
    assert compiles == []


def test_slot_is_no_part_of_the_value(tmp_path, compiles):
    app = ids_app()
    options = CompileOptions(cache_dir=tmp_path)
    cold = Pipeline(app.program, app.topology, app.initial_state, options)
    compiled = cold.compiled
    trace = exchanges(compiled, 2)
    before = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
    nes_before = pickle.dumps(cold.nes, protocol=pickle.HIGHEST_PROTOCOL)
    assert NESChecker(cold.nes, cold.topology).check(trace)
    assert pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL) == before
    assert pickle.dumps(cold.nes, protocol=pickle.HIGHEST_PROTOCOL) == nes_before
    assert cold.nes.compiled is not None
    assert pickle.loads(nes_before).compiled is None
    assert "compiled" not in cold.nes.__getstate__()

    warm = Pipeline(app.program, app.topology, app.initial_state, options)
    assert warm.compiled is not compiled
    assert warm.report().artifact_cache == "hit"
    assert NESChecker(warm.nes, warm.topology).check(trace)
    assert compiles == []


def test_one_deposit_however_many_topologies():
    app = firewall_app()
    base = app.pipeline
    hosts = topology_to_wire(app.topology)["hosts"]
    deposits = []
    for i in range(50):
        moved = edited_topology(app.topology, hosts=hosts + [["HX", f"1:{20 + i}"]])
        updated = base.update(Delta(topology=moved))
        assert updated.nes is base.nes
        switches, deposited = base.nes.compiled
        assert switches == moved.switches
        assert all(c.topology is moved for c in deposited.values())
        deposits.append([weakref.ref(c) for c in deposited.values()])
    del updated, deposited
    gc.collect()
    # The slot keeps the last update's configurations alive and nothing
    # of the forty-nine before it.
    alive = [sum(ref() is not None for ref in refs) for refs in deposits]
    assert alive == [0] * 49 + [len(base.compiled.states)]
