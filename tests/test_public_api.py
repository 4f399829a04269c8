"""The public API surface: everything advertised in ``__all__`` exists,
and the README quickstart runs as documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.netkat",
    "repro.stateful",
    "repro.events",
    "repro.consistency",
    "repro.runtime",
    "repro.network",
    "repro.baselines",
    "repro.optimize",
    "repro.apps",
    "repro.verify",
    "repro.pipeline",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.{entry} is advertised but missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__


def test_compile_options_surface_is_pinned():
    """Adding an option is a deliberate act (see the rule in the
    ``repro.pipeline`` docstring): the field set is exactly this, and
    every field that can change the tables is in the artifact key."""
    import dataclasses

    from repro.pipeline import CompileOptions
    from repro.runtime.compiler import TAG_FIELD

    names = [f.name for f in dataclasses.fields(CompileOptions)]
    assert names == [
        "cache_dir",
        "cache_hmac_key",
        "strict_cache",
        "deadline_seconds",
    ]
    assert CompileOptions.tag_field == CompileOptions().tag_field == TAG_FIELD
    with pytest.raises(dataclasses.FrozenInstanceError):
        CompileOptions().tag_field = "cfg"


def test_sim_options_are_gone():
    """One simulator path: no ``SimOptions`` name, module or parameter."""
    import inspect

    import repro
    from repro.apps import firewall_app
    from repro.consistency import NESChecker, check_trace_against_nes
    from repro.network import CorrectLogic, SimNetwork

    assert "SimOptions" not in repro.__all__ + repro.network.__all__
    assert not hasattr(repro, "SimOptions")
    with pytest.raises(ImportError):
        importlib.import_module("repro.sim_options")
    app = firewall_app()
    for fn, args in (
        (SimNetwork, (app.topology, None)),
        (CorrectLogic, (app.compiled,)),
        (NESChecker, (app.nes, app.topology)),
        (check_trace_against_nes, (None, app.nes, app.topology)),
    ):
        assert "options" not in inspect.signature(fn).parameters
        with pytest.raises(TypeError, match="options"):
            fn(*args, options=None)


def test_readme_quickstart():
    """The exact quickstart from README.md."""
    from repro.apps import firewall_app
    from repro.consistency import check_trace_against_nes

    app = firewall_app()
    rt = app.runtime(seed=0)
    rt.inject("H4", {"ip_dst": 1, "ip_src": 4})
    rt.run_until_quiescent()
    rt.inject("H1", {"ip_dst": 4, "ip_src": 1})
    rt.run_until_quiescent()
    rt.inject("H4", {"ip_dst": 1, "ip_src": 4})
    rt.run_until_quiescent()

    report = check_trace_against_nes(rt.network_trace(), app.nes, app.topology)
    assert report.correct


def test_readme_parse_example():
    from repro.netkat import parse_policy

    program = parse_policy(
        """
        pt=2 & ip_dst=4; pt<-1;
          ( state(0)=0; (1:1)->(4:1)<state(0)<-1>
          + !state(0)=0; (1:1)->(4:1) );
        pt<-2
        + pt=2 & ip_dst=1; state(0)=1; pt<-1; (4:1)->(1:1); pt<-2
        """
    )
    from repro.apps import firewall_app

    assert program == firewall_app().program


def _resolve(spec):
    """``"module:Attr.path"`` -> the object it names."""
    module, _, path = spec.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


# (callable, positional arguments it takes, a parameter no caller outside
# the tests set): the default became the behaviour, the spelling is gone.
REMOVED_PARAMETERS = [
    ("repro.network.switch_logic:Figure7Logic", 1, "controller_latency"),
    ("repro.network.switch_logic:Figure7Logic", 1, "event_notify_latency"),
    ("repro.network.switch_logic:Figure7Logic", 1, "extra_processing_delay"),
    ("repro.network.switch_logic:CorrectLogic", 1, "controller_latency"),
    ("repro.network.switch_logic:CorrectLogic", 1, "event_notify_latency"),
    ("repro.network.switch_logic:CorrectLogic", 1, "extra_processing_delay"),
    ("repro.baselines:UncoordinatedLogic", 1, "push_gap"),
    ("repro.baselines:UncoordinatedLogic", 1, "event_notify_latency"),
    ("repro.baselines:TwoPhaseLogic", 1, "flip_gap"),
    ("repro.baselines:TwoPhaseLogic", 1, "event_notify_latency"),
    ("repro.network:SimNetwork", 2, "link_params"),
    ("repro.network:send_bulk", 4, "at"),
    ("repro.network:send_bulk", 4, "extra_fields"),
    ("repro.network:send_ping", 5, "payload_bytes"),
    ("repro.network:install_ping_responders", 1, "hosts"),
    ("repro.network:goodput", 3, "payload_bytes"),
    ("repro.stateful.ets:build_ets", 2, "state_space"),
    ("repro.stateful.ets:build_ets", 2, "max_states"),
    ("repro.netkat.fdd:FDDBuilder.star", 2, "fuel"),
    ("repro.netkat.flowtable:table_of_fdd", 2, "base_priority"),
    ("repro.verify:tables_equivalent", 2, "max_probes"),
    ("repro.verify:explore_all_interleavings", 2, "max_executions"),
    ("repro.runtime.semantics:Runtime.drain_controller", 1, "max_steps"),
    ("repro.consistency.traces:packet_trace_in_traces", 2, "require_complete"),
    ("repro.events.structure:EventStructure.event_sets", 1, "limit"),
    ("repro.events.structure:EventStructure.event_sets_masks", 1, "limit"),
    ("repro.events.locality:locality_violations", 1, "max_size"),
    ("repro.events.locality:is_locally_determined", 1, "max_size"),
    ("repro.netkat.compiler:compile_policy", 2, "guard"),
    ("repro.runtime.compiler:CompiledNES", 3, "builder"),
    ("repro.runtime.compiler:CompiledNES", 3, "options"),
    ("repro.runtime.compiler:CompiledNES", 3, "health"),
    ("repro.runtime.compiler:CompiledNES", 3, "reuse_configurations"),
    ("repro.pipeline:CompileOptions", 0, "compile_retries"),
    ("repro.apps.base:App", 4, "options"),
]


@pytest.mark.parametrize(
    "target, positional, keyword",
    REMOVED_PARAMETERS,
    ids=[f"{target.partition(':')[2]}-{kw}" for target, _, kw in REMOVED_PARAMETERS],
)
def test_removed_parameters_raise(target, positional, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        _resolve(target)(*[None] * positional, **{keyword: None})


REMOVED_NAMES = [
    "repro:compile_app",
    "repro.pipeline:compile_app",
    "repro.events.nes:NES.newly_enabled",
    "repro.netkat.semantics:reachable_packets",
    "repro.netkat:policy_links",
    "repro.netkat.ast:policy_links",
    "repro.topology:Topology.ports_of",
    "repro.topology:Topology.link_sources",
    "repro.service:ServiceClient.compile_request",
    "repro.runtime.compiler:CompiledNES.encode_digest",
    "repro.runtime.compiler:CompiledNES.decode_digest",
    "repro.netkat.flowtable:Match.specificity",
    "repro.netkat.flowtable:Rule.is_drop",
    "repro.netkat.flowtable:FlowTable.merged_with",
    "repro.formula:Conjunction.is_true",
    "repro.apps.base:App.host_address",
    "repro.service:launcher_main",
    "repro.service.launcher:main",
    "repro.service.launcher:build_arg_parser",
    "repro.network:Frame.masks",
    "repro.network:CorrectLogic.on_ingress",
    "repro.network.switch_logic:Figure7Logic.on_ingress",
    "repro.baselines:ReferenceLogic.on_ingress",
    "repro.baselines:UncoordinatedLogic.on_ingress",
    "repro.baselines:TwoPhaseLogic.on_ingress",
    "repro.runtime:compile_nes",
    "repro.runtime.compiler:compile_nes",
    "repro.runtime.compiler:CompiledNES.invalidate_guarded_tables",
    "repro.runtime.compiler:CompiledNES.config_rule_count",
    "repro.pipeline:Pipeline.guarded_tables",
    "repro.consistency:EventDrivenUpdate",
    "repro.consistency:first_occurrences",
    "repro.consistency:check_update_correctness",
    "repro.consistency.traces:packet_trace_follows",
    "repro.pipeline:_backoff_delay",
    "repro.verify:policies_equivalent",
    "repro.verify:predicates_equivalent",
    "repro.verify:configurations_equivalent",
    "repro.verify:stateful_projections_equivalent",
]


@pytest.mark.parametrize("spec", REMOVED_NAMES)
def test_removed_names_are_gone(spec):
    module, _, path = spec.partition(":")
    owner, _, name = path.rpartition(".")
    with pytest.raises(AttributeError):
        getattr(_resolve(f"{module}:{owner}"), name)


def test_definition_2_has_no_second_module():
    """Definitions 2 and 6 are decided in ``repro.consistency.checker``;
    the module that held a second, frozenset Definition 2 is gone."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.consistency.update")


def test_the_artifact_holds_only_artifact_fields():
    """``CompiledNES`` is the artifact: the unread event-set encodings and
    the per-run compile count are gone, and its pickle is exactly its
    fields, so a fact about one run cannot creep back into it."""
    from repro.apps import firewall_app

    compiled = firewall_app().compiled
    for name in ("event_sets", "event_set_ids", "event_bits", "compiled_configurations"):
        with pytest.raises(AttributeError):
            getattr(compiled, name)
    assert set(compiled.__getstate__()) == {
        "nes", "topology", "states", "config_ids", "configurations",
    }


def test_frame_tag_and_digest_spellings_are_gone():
    """A frame carries its tag and digest as masks only: the frozenset
    spellings of the constructor and of ``replace`` raise."""
    from repro.netkat.packet import Packet
    from repro.network import Frame

    packet = Packet({})
    for keyword in ("tag", "digest"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            Frame(packet, **{keyword: frozenset()})
        with pytest.raises(TypeError, match="unknown frame fields"):
            Frame(packet).replace(**{keyword: frozenset()})
    with pytest.raises(TypeError):
        Frame(packet, 64, None, frozenset())  # the old positional tag, digest
    frame = Frame(packet, 64)
    assert frame.tag is None and frame.digest == frozenset()
    with pytest.raises(AttributeError):
        frame.tag = frozenset()


def test_compile_app_is_not_advertised():
    import repro

    assert "compile_app" not in repro.__all__


FORMER_DEFAULTS = [
    ("repro.network.switch_logic:EVENT_NOTIFY_LATENCY", 0.01),
    ("repro.network.switch_logic:CONTROLLER_LATENCY", 0.05),
    ("repro.network.switch_logic:EXTRA_PROCESSING_DELAY", 6e-6),
    ("repro.network.switch_logic:CorrectLogic.extra_processing_delay", 6e-6),
    ("repro.baselines.uncoordinated:PUSH_GAP", 0.02),
    ("repro.baselines.two_phase:FLIP_GAP", 0.01),
    ("repro.network.traffic:PING_PAYLOAD_BYTES", 64),
    ("repro.stateful.ets:MAX_STATES", 10_000),
    ("repro.netkat.fdd:STAR_FUEL", 200),
    ("repro.verify.equiv:MAX_PROBES", 200_000),
    ("repro.verify.explore:MAX_EXECUTIONS", 100_000),
    ("repro.runtime.semantics:MAX_DRAIN_STEPS", 10_000),
    ("repro.events.structure:MAX_EVENT_SETS", 100_000),
]


@pytest.mark.parametrize(
    "spec, value",
    FORMER_DEFAULTS,
    ids=[spec.partition(":")[2] for spec, _ in FORMER_DEFAULTS],
)
def test_former_defaults_are_the_constants(spec, value):
    """A removed parameter's default is the behaviour, unchanged."""
    assert _resolve(spec) == value
