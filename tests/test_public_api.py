"""The public API surface: everything advertised in ``__all__`` exists,
the package docstring's quickstart runs as written, what a change
deleted stays deleted (the ``DELETED`` table), and every public name has
a caller outside ``tests/`` (the census)."""

import ast
import collections
import functools
import importlib
import inspect
import re
import textwrap
from pathlib import Path

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
    """One simulator path: no callable takes an ``options`` object."""
    from repro.apps import firewall_app
    from repro.consistency import NESChecker, check_trace_against_nes
    from repro.network import CorrectLogic, SimNetwork

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


def test_package_docstring_quickstart_runs(monkeypatch, tmp_path):
    """The two ``::`` blocks of ``repro.__doc__`` run as written (the second,
    which writes an artifact cache, in a scratch directory)."""
    import repro

    first, second = re.findall(r"::\n\n((?: {4}.*\n|\n)*)", repro.__doc__)
    namespace = {}
    exec(textwrap.dedent(first), namespace)
    monkeypatch.chdir(tmp_path)
    exec(textwrap.dedent(second), namespace)
    assert namespace["tables"] and (tmp_path / ".repro-cache").is_dir()


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


def test_correct_logic_stands_alone_on_masks():
    """``CorrectLogic`` subclasses no reference (its set-valued views are
    ``DELETED`` rows, looked up on an instance)."""
    from repro.network import CorrectLogic

    assert CorrectLogic.__bases__ == (object,)


def test_the_artifact_holds_only_artifact_fields():
    """``CompiledNES`` is the artifact: its pickle is exactly its fields,
    so a fact about one run cannot creep back into it."""
    from repro.apps import firewall_app

    assert set(firewall_app().compiled.__getstate__()) == {
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


# What was deleted, one row per deleted thing: extend it whenever a change
# deletes a path.  Targets are "module:Attr.path" ("module" for a module-level
# name); a scan (regex, paths) matches no line under the paths, this file aside.
#   ("name", name, owners, *scans)       no owner has it, no PACKAGES __all__ does
#   ("param", keyword, targets, *scans)  each target raises TypeError on it
#   ("text", regex, paths)               one scan
#   ("count", needle, path, n)           exactly n lines under path hold it
#   ("module", dotted)                   neither the module nor its file exists
#   ("default", target, value)           a removed parameter's default, now a constant
SRC = ("src/repro",)
ALL = ("src/repro", "examples", "benchmarks")
SERVICE = ("src/repro/service",)
PIPELINE = "src/repro/pipeline.py"
CNES = "repro.runtime.compiler:CompiledNES"
LOGICS = "naive_oracles:Figure7Logic repro.network.switch_logic:CorrectLogic"
SYMBOLIC = "repro.stateful.symbolic:SymbolicProgram"


def _method(name):  # a removed method is neither called nor defined
    return (rf"\.{name}\(|def {name}\b", ALL)


DELETED = [
    # No deprecation shim, no implementation switch of the compiler.
    ("text", "DeprecationWarning", SRC),
    ("text", "symbolic_extract|knowledge_cache|ordered_insert|ast_memo", SRC),
    # The builder's reference switches live in tests/naive_oracles.py.
    ("text", r"_memo_mask|_memo_negate|def mask\(", ("src/repro/netkat",)),
    # One simulator path: no options object, module or parameter.
    ("name", "SimOptions", "repro repro.network", ("SimOptions", ALL)),
    ("text", "sim_options|mask_digests|REFERENCE_SIM_OPTIONS", ALL),
    ("module", "repro.sim_options"),
    # One frame format, one ingress: frames carry only the interned
    # tag/digest masks and every logic stamps through ingress_frame.
    ("text", "_UNSET|_arrive_at_switch|_ingress_fast", SRC),
    ("name", "masks", "repro.network:Frame", (r"def masks\(", SRC)),
    ("name", "on_ingress", "repro.network:CorrectLogic repro.network.switch_logic:Figure7Logic "
     "repro.baselines:ReferenceLogic repro.baselines:UncoordinatedLogic "
     "repro.baselines:TwoPhaseLogic", ("def on_ingress", SRC), ("on_ingress", ALL[1:])),
    # One switch logic: CorrectLogic runs Figure 7 on masks; the frozenset
    # Figure7Logic is a reference in tests/naive_oracles.py.
    ("name", "Figure7Logic", "repro.network.switch_logic",
     ("class Figure7Logic", ("src/repro/network",))),
    ("text", r"_MaskRegister|runtime\.semantics", ("src/repro/network",)),
    ("name", "registers", "repro.network:CorrectLogic"),
    ("name", "controller_view", "repro.network:CorrectLogic"),
    # CompiledNES is the artifact and the compile stage is Pipeline's; the
    # runtime imports nothing from the pipeline.  (\b keeps the
    # repro_compile_configurations_total metric.)
    ("name", "compile_nes", "repro.runtime repro.runtime.compiler", ("compile_nes", SRC)),
    ("text", r"\b_compile_configurations\b|_default_options|_pipeline_errors", SRC),
    ("name", "invalidate_guarded_tables", CNES, ("invalidate_guarded_tables", SRC)),
    ("name", "event_set_ids", CNES, ("event_set_ids", SRC)),
    ("name", "config_rule_count", CNES, ("config_rule_count", SRC)),
    ("name", "event_sets", CNES),
    ("name", "event_bits", CNES),
    ("name", "compiled_configurations", CNES),
    ("param", "reuse_configurations", CNES, ("reuse_configurations", SRC)),
    ("param", "builder", CNES),
    ("param", "health", CNES),
    ("param", "options", CNES + " repro.apps.base:App"),
    ("text", "pipeline import", ("src/repro/runtime",)),
    # One table store, keyed by configuration policy.
    ("name", "_reusable_configurations", "repro.pipeline:Pipeline",
     ("_reusable_configurations", ALL)),
    ("name", "adopt_guarded_tables", CNES, ("adopt_guarded_tables", ALL)),
    ("name", "guarded_tables", "repro.pipeline:Pipeline", ("def guarded_tables", (PIPELINE,))),
    # Each distinct table is guarded once, not once per tag.
    ("text", "_by_tag|_tails", ("src/repro/netkat",)),
    # One executor, a plain loop; a compile runs once, nothing retries.
    ("text", "ThreadPoolExecutor|BACKENDS|max_workers|backend=", SRC),
    ("param", "compile_retries", "repro.pipeline:CompileOptions", ("compile_retries", ALL)),
    ("name", "_backoff_delay", "repro.pipeline", ("_backoff_delay", ALL)),
    ("text", r"executor\.retries|compile\.backoff|_pipeline_memo", ALL),
    # The test-only equivalence deciders stay out of repro.verify.
    ("name", "policies_equivalent", "repro.verify", ("policies_equivalent", ALL)),
    ("name", "predicates_equivalent", "repro.verify", ("predicates_equivalent", ALL)),
    ("name", "configurations_equivalent", "repro.verify", ("configurations_equivalent", ALL)),
    ("name", "stateful_projections_equivalent", "repro.verify",
     ("stateful_projections_equivalent", ALL)),
    # One stage sequence: update() seeds an ordinary lazy Pipeline.
    ("text", r"_PatchedInstantiation|changed_edge_guards|changed_cell_guards|def _update\(",
     SRC),
    ("count", "build_ets(", PIPELINE, 1),
    ("count", "nes_of_ets(", PIPELINE, 1),
    ("count", "CompiledNES(", PIPELINE, 1),
    ("count", '_stage("ets")', PIPELINE, 1),
    ("count", '_stage("nes")', PIPELINE, 1),
    ("count", '_stage("compile")', PIPELINE, 1),
    # Table reuse is keyed on the switch set; the whole-topology
    # fingerprint is the artifact key's alone (definition, artifact_digest).
    ("count", "_topology_fingerprint(", PIPELINE, 2),
    # One client transport and one HTTP framing, both the service's own.
    ("text", "urllib", SERVICE),
    ("text", r"http\.client|HTTPConnection|parse_headers", SERVICE),
    # One telemetry store: the service registry.
    ("text", "ServiceStats|_fold_health|_fold_failed|_evicted_health|_metric_samples"
     "|_run_instrumented|_LATENCY_WINDOW|request_latency_seconds|heap_depth_high_water",
     ("src/repro", "examples")),
    ("name", "snapshot", "repro.obs.metrics:MetricsRegistry"),
    # One cache per decision on the per-hop path.
    ("text", "_match_memo|_forward_memo|move_memo|_index_deliveries|_deliveries_by_"
     r"|_flow_buckets|_foreign_pins|_intern_foreign|_knowledge_caches|def _emit\(", SRC),
    ("count", "ports.get(port)", "src/repro/network/simulator.py", 1),
    # One plan store keyed by leaf, unbounded by construction.
    ("text", "_config_memo|_MEMO_LIMIT|_record_plan", SRC),
    ("text", r"id\(packet\)", ("src/repro/network/simulator.py",)),
    # One conjunction algebra (repro/formula.py), no third table cache.
    ("text", "StateLiteral|conjoin_guard|_guard_canonicalize|_guard_contradictory"
     "|_MemoEntry|wire_tables", SRC),
    ("module", "repro.stateful.formula"),
    ("count", "def _canonicalize", "src/repro", 1),
    ("count", "def _contradictory", "src/repro", 1),
    # One compile per distinct policy, one family construction.
    ("text", "check_finite_complete_naive|minimally_inconsistent_sets_naive", SRC),
    ("count", "compile_one(", PIPELINE, 2),
    ("count", "def _extremal", "src/repro/events/structure.py", 1),
    # One candidate search, unbounded.
    ("text", "max_sequence_length", ALL),
    # One Definition 2, on masks in NESChecker.
    ("module", "repro.consistency.update"),
    ("name", "EventDrivenUpdate", "repro.consistency", ("EventDrivenUpdate", ALL)),
    ("name", "first_occurrences", "repro.consistency", ("first_occurrences", ALL)),
    ("name", "check_update_correctness", "repro.consistency", ("check_update_correctness", ALL)),
    ("name", "packet_trace_follows", "repro.consistency.traces", ("packet_trace_follows", ALL)),
    ("param", "require_complete", "repro.consistency.traces:packet_trace_in_traces",
     ("require_complete", ALL)),
    ("text", "position_masks=|event_bits=|ambient_mask=|_update_of_sequence", ALL),
    # Definition 6 at table-index speed: bitset happens-before, pairwise
    # Traces(C) membership.
    ("text", r"_reachable|config\.step\(", ("src/repro/consistency",)),
    # A cold chain compile is linear in chain depth.
    ("text", "symbolic_extract=|symbolic_extract: bool", ("src/repro", "tests")),
    ("text", r"repr\(e\) for e in", ("src/repro/events",)),
    ("text", r"self\._base\b", ("src/repro/events/structure.py",)),
    # The artifact is a function of program, topology and initial state.
    ("text", "semantic_fingerprint|output_affecting|_EXECUTION_ONLY_FIELDS|make_builder"
     "|REQUESTABLE_OPTION_FIELDS|options_from_wire|options_to_wire|clear_ast_memos", ALL),
    ("text", "max_frontier|enforce_locality|field_order",
     (PIPELINE, "src/repro/service", "src/repro/runtime", "src/repro/cli.py", "src/repro/apps")),
    # No name and no parameter without a caller outside tests: a value no
    # caller set is a module constant (the "default" rows).
    ("name", "newly_enabled", "repro.events.nes:NES", _method("newly_enabled")),
    ("name", "ports_of", "repro.topology:Topology", _method("ports_of")),
    ("name", "link_sources", "repro.topology:Topology", _method("link_sources")),
    ("name", "compile_request", "repro.service:ServiceClient", _method("compile_request")),
    ("name", "encode_digest", CNES, _method("encode_digest")),
    ("name", "decode_digest", CNES, _method("decode_digest")),
    ("name", "specificity", "repro.netkat.flowtable:Match", _method("specificity")),
    ("name", "is_drop", "repro.netkat.flowtable:Rule", _method("is_drop")),
    ("name", "merged_with", "repro.netkat.flowtable:FlowTable", _method("merged_with")),
    ("name", "tag_of_event_set", CNES, _method("tag_of_event_set")),
    ("name", "fields", "repro.netkat.flowtable:Match repro.netkat.packet:Packet",
     _method("fields")),
    ("name", "is_true", "repro.formula:Conjunction", _method("is_true")),
    ("name", "host_address", "repro.apps.base:App", _method("host_address")),
    ("name", "compile_app", "repro repro.pipeline", (r"compile_app\(", ALL)),
    ("name", "reachable_packets", "repro.netkat.semantics", ("reachable_packets", ALL)),
    ("name", "policy_links", "repro.netkat repro.netkat.ast", ("policy_links", ALL)),
    ("name", "step_relation", "repro.netkat repro.netkat.semantics"),
    ("name", "is_leaf", "repro.netkat.fdd:FDD repro.optimize.trie:TrieNode"),
    ("param", "limit", "repro.events.structure:EventStructure.event_sets "
     "repro.events.structure:EventStructure.event_sets_masks",
     (r"def event_sets(_masks)?\(self, ", SRC)),
    ("param", "max_size", "repro.events.locality:locality_violations "
     "repro.events.locality:is_locally_determined",
     (r"def (locality_violations|is_locally_determined)\(nes: NES, ", SRC)),
    ("param", "state_space", "repro.stateful.ets:build_ets", ("state_space", ALL)),
    ("param", "link_params", "repro.network:SimNetwork", ("link_params", ALL)),
    ("param", "max_states", "repro.stateful.ets:build_ets", ("max_states", ALL)),
    ("param", "base_priority", "repro.netkat.flowtable:table_of_fdd", ("base_priority", ALL)),
    ("param", "max_probes", "repro.verify:tables_equivalent", ("max_probes:", ALL)),
    ("param", "max_executions", "repro.verify:explore_all_interleavings",
     ("max_executions", ALL)),
    ("param", "push_gap", "repro.baselines:UncoordinatedLogic", ("push_gap", ALL)),
    ("param", "flip_gap", "repro.baselines:TwoPhaseLogic", ("flip_gap", ALL)),
    ("param", "controller_latency", LOGICS, ("controller_latency", ALL)),
    ("param", "event_notify_latency", LOGICS + " repro.baselines:UncoordinatedLogic "
     "repro.baselines:TwoPhaseLogic", ("event_notify_latency", ALL)),
    ("param", "fuel", "repro.netkat.fdd:FDDBuilder.star", (r"\bfuel\b", ALL)),
    ("param", "extra_processing_delay", LOGICS, ("extra_processing_delay:", ALL)),
    ("param", "hosts", "repro.network:install_ping_responders", ("hosts: Optional", ALL)),
    ("param", "max_steps", "repro.runtime.semantics:Runtime.drain_controller",
     (r"def drain_controller\(self, ", ALL)),
    ("param", "at", "repro.network:send_bulk"),
    ("param", "extra_fields", "repro.network:send_bulk"),
    ("param", "payload_bytes", "repro.network:send_ping repro.network:goodput"),
    ("param", "guard", "repro.netkat.compiler:compile_policy"),
    ("default", "repro.network.switch_logic:EVENT_NOTIFY_LATENCY", 0.01),
    ("default", "repro.network.switch_logic:CONTROLLER_LATENCY", 0.05),
    ("default", "repro.network.switch_logic:EXTRA_PROCESSING_DELAY", 6e-6),
    ("default", "repro.network.switch_logic:CorrectLogic.extra_processing_delay", 6e-6),
    ("default", "repro.baselines.uncoordinated:PUSH_GAP", 0.02),
    ("default", "repro.baselines.two_phase:FLIP_GAP", 0.01),
    ("default", "repro.network.traffic:PING_PAYLOAD_BYTES", 64),
    ("default", "repro.stateful.ets:MAX_STATES", 10_000),
    ("default", "repro.netkat.fdd:STAR_FUEL", 200),
    ("default", "repro.verify.equiv:MAX_PROBES", 200_000),
    ("default", "repro.verify.explore:MAX_EXECUTIONS", 100_000),
    ("default", "repro.runtime.semantics:MAX_DRAIN_STEPS", 10_000),
    ("default", "repro.events.structure:MAX_EVENT_SETS", 100_000),
    # One daemon entry point, `python -m repro serve`, whose flags are the
    # one spelling of the bind address.
    ("text", "REPRO_SERVICE_(HOST|PORT)", ALL),
    ("name", "launcher_main", "repro.service", ("launcher_main", ALL)),
    ("name", "main", "repro.service.launcher", (r"def main\(", SERVICE)),
    ("name", "build_arg_parser", "repro.service.launcher", ("build_arg_parser", SERVICE)),
    ("text", 'prog="repro-service"|__main__', SERVICE),
    # One measurement harness, repobench/run.py: the second harness, its
    # record and the uncalled network.stats helpers.
    ("text", "run_perf|BENCH_compiler_perf",
     ("src", "tests", "benchmarks", "examples", ".github", ".claude")),
    ("text", "deliveries_per_second|loss_rate|LatencySummary|latency_summary|success_timeline",
     ("src", "tests", "benchmarks", "examples")),
    ("module", "repro.network.stats"),
    # Terms and locations are hash-consed: equality is identity, so no
    # cached structural hash, no interning beside the term table, and
    # the FDD memos are keyed by the node, which they keep alive.
    ("name", "_cached_hash", "repro.netkat.ast", ("_cached_hash", ALL)),
    ("name", "_state_without_hash", "repro.netkat.ast", ("_state_without_hash", ALL)),
    ("name", "_at_location_interned", "repro.netkat.compiler", ("_at_location_interned", ALL)),
    ("name", "_at_location_predicates", "repro.netkat.compiler",
     ("_at_location_predicates", ALL)),
    ("name", "_policies", SYMBOLIC, (r"_policies\.setdefault", SRC)),
    ("text", r"id\((p|a)\)|\((p|a), result\)", ("src/repro/netkat/fdd.py",)),
    ("text", r"hash\(policy\) == hash\(old\)", (PIPELINE,)),
    # One ETS -> NES conversion, one walk on masks: the frozenset family,
    # its completeness check and its structure are the references in
    # tests/naive_oracles.py, and g is keyed by mask.
    ("name", "family_of_ets", "repro.events repro.events.ets_to_nes", ("family_of_ets", SRC)),
    ("name", "check_finite_complete", "repro.events repro.events.ets_to_nes",
     (r"check_finite_complete\b", SRC)),
    ("name", "_sorted_masks", "repro.events.ets_to_nes", ("_sorted_masks", SRC)),
    ("name", "of_family", "repro.events.structure:EventStructure", ("of_family", SRC)),
    ("text", r"self\._covers\b|_g\[frozenset|structure\.decode\(tag_mask", SRC),
    # src/ ships no test-only code (the census below keeps it so): the
    # per-state Figure 6 walk and the helpers only tests called live in
    # tests/naive_oracles.py, and names nothing called are deleted.
    ("module", "repro.stateful.events"),
    ("name", "extract", "repro.stateful", (r"def extract\b", SRC)),
    ("name", "ExtractResult", "repro.stateful", ("ExtractResult", SRC)),
    ("name", "formulas_at", SYMBOLIC, _method("formulas_at")),
    ("name", "eval", "repro.netkat.fdd:FDDBuilder", _method("eval")),
    ("name", "conjoin_all", "repro.formula:Formula repro.formula:StateGuard",
     _method("conjoin_all")),
    ("name", "implies", "repro.formula:Formula repro.formula:StateGuard", _method("implies")),
    ("name", "to_predicate", "repro.formula:Formula", _method("to_predicate")),
    ("name", "normalized", "repro.netkat.packet:LocatedPacket", _method("normalized")),
    ("name", "config_of_event_set", "repro.consistency:NESChecker",
     _method("config_of_event_set")),
    ("name", "before", "repro.consistency.traces:HappensBefore", _method("before")),
    ("name", "substage", "repro.pipeline:PipelineReport", _method("substage")),
    ("name", "with_digest", "repro.runtime.model:RuntimePacket", _method("with_digest")),
    ("name", "with_packet", "repro.runtime.model:RuntimePacket", _method("with_packet")),
    ("name", "extend_path", "repro.runtime.model:RuntimePacket", _method("extend_path")),
    ("name", "total_pending", "repro.runtime.model:NetworkState", _method("total_pending")),
    ("name", "ALL_CASE_STUDIES", "repro.apps", ("ALL_CASE_STUDIES", ALL)),
    ("name", "policy_fields", "repro.netkat repro.netkat.ast", ("policy_fields", ALL)),
    ("name", "policy_size", "repro.netkat repro.netkat.ast", ("policy_size", ALL)),
    ("name", "predicate_fields", "repro.netkat.ast", ("predicate_fields", ALL)),
    # One content-keyed stage store per lineage: each stage looks its value
    # up by what it reads, so update() borrows nothing from its predecessor
    # and no ETS is built only to be compared with the predecessor's.
    ("name", "share_merge", CNES, _method("share_merge")),
    ("name", "configurations_by_policy", CNES, ("configurations_by_policy", ALL)),
    ("text", r"_predecessor|_reuse_base|_lineage\b|_count_states_reused|previous\._ets"
     r"|_configurations_compiled|repro_compile_configurations_total", ALL),
    # The default occurrence bound asks for cycles only once it matters.
    ("name", "_occurrence_bound", "repro.events.ets_to_nes", ("_occurrence_bound", SRC)),
]


# The census: every public module-level function, class and constant of
# src/repro, and every public method of a public class, has a caller outside
# tests/ -- live code under CALLERS reads its identifier.  Code outside every
# such definition is live, and so, to a fixpoint, is each definition whose
# identifier live code reads; a definition only tests (or a kept name) read
# is not.  Imports and __all__ strings are not callers.  It matches
# identifiers, not objects, so it is conservative.
CALLERS = ("src", "repobench", "benchmarks", "examples")
# The public names that only tests call, kept on purpose, each with its reason.
TEST_ONLY_KEPT = {
    **dict.fromkeys(
        ("repro.events.structure:EventStructure.minimal_enablers",
         "repro.events.structure:EventStructure.allowed_sequences",
         "repro.events.structure:EventStructure.is_event_set",
         "repro.events.nes:NES.allows_sequence",
         "repro.events.nes:NES.config_of",
         "repro.events.structure:EventStructure.allows_sequence",
         "repro.events.structure:EventStructure.is_event_set_mask"),
        "the frozenset-valued event-set API, which moves to tests/naive_oracles.py "
        "together with the rest of it once Runtime is gone (ROADMAP item 15); "
        "the mask check and the structure's sequence check are read only by it"),
    **dict.fromkeys(
        ("repro.runtime.semantics:Runtime.drain_controller",
         "repro.runtime.semantics:MAX_DRAIN_STEPS"),
        "drives the Figure 7 reference runtime in tests (the bound of its loop); "
        "it goes with Runtime (item 15)"),
    "repro.faults:FaultPlan.fires":
        "what an installed fault plan injected; only chaos tests install plans",
    "repro.netkat.parser:parse_predicate":
        "the concrete syntax's predicate entry point, advertised in repro.netkat",
    "repro.stateful.projection:project_predicate":
        "Figure 5's projection of a predicate, advertised beside project in repro.stateful",
    **dict.fromkeys(
        ("repro.optimize.sharing:optimized_table_equivalent",
         "repro.verify.equiv:tables_equivalent",
         "repro.verify.equiv:MAX_PROBES"),
        "section 5.3's exact check of an optimized table, and the probing "
        "equivalence (with its probe bound) that only it reads; the exact-check "
        "work of ROADMAP item 10 is to reuse them"),
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reads(tree):
    """How often each identifier is read (a name or an attribute) in ``tree``."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store)
    )


def _public_definitions(tree):
    """``(qualified name, identifier, node)`` for each name the census covers."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id, node
        elif isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, FUNCTIONS) and not method.name.startswith("_"):
                        yield f"{node.name}.{method.name}", method.name, method


def census(root, kept):
    """``(unused, stale)`` for the tree at ``root``: the public names of
    ``src/repro`` that no live code under CALLERS reads and ``kept`` does not
    list, and the ``kept`` entries that are not defined or that now have a
    live caller."""
    live = collections.Counter()  # reads of the code found live so far
    defined = {}  # qualified name -> (identifier, reads of its own body)
    for top in CALLERS:
        for file in sorted((root / top).rglob("*.py")):
            parts = file.relative_to(root).parts
            if any(part.startswith(".") or part == "__pycache__" for part in parts):
                continue  # e.g. the benchmark's checkout of another revision
            tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
            outside = _reads(tree)
            if parts[:2] == ("src", "repro"):
                module = ".".join(parts[1:]).removesuffix(".py").removesuffix(".__init__")
                for qualified, identifier, node in _public_definitions(tree):
                    body = _reads(node)
                    if isinstance(node, ast.ClassDef):  # public methods count apart
                        for method in node.body:
                            if isinstance(method, FUNCTIONS) and not method.name.startswith("_"):
                                body -= _reads(method)
                    defined[f"{module}:{qualified}"] = (identifier, body)
                    outside -= body
            live.update(outside)
    used = set()
    while True:
        found = {name for name, (identifier, _) in defined.items()
                 if name not in used and live[identifier]}
        if not found:
            break
        used |= found
        for name in found:
            live.update(defined[name][1])
    unused = sorted(set(defined) - used - set(kept))
    stale = sorted(name for name in kept if name not in defined or name in used)
    return unused, stale


def test_every_public_name_has_a_caller_outside_tests():
    assert census(ROOT, TEST_ONLY_KEPT) == ([], [])


def test_every_kept_test_only_name_has_a_reason():
    assert all(isinstance(why, str) and why.strip() for why in TEST_ONLY_KEPT.values())


CENSUS_TREE = {
    "src/repro/__init__.py": "from .mod import Box, LIMIT, only_tested, used\n",
    "src/repro/mod.py": """
        __all__ = ["Box", "LIMIT", "only_tested", "used"]
        LIMIT = 3


        def used():
            return LIMIT


        def only_tested():
            return only_tested  # a read inside its own definition


        class Box:
            def opened(self):
                return self.sealed()

            def sealed(self):
                return used()
    """,
    "examples/demo.py": "from repro.mod import Box\nprint(f'{Box().opened()}')\n",
    "tests/test_mod.py": "from repro.mod import only_tested\n\nonly_tested()\n",
}


def _plant(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def test_census_finds_a_name_only_tests_call(tmp_path):
    root = _plant(tmp_path, CENSUS_TREE)
    assert census(root, {}) == (["repro.mod:only_tested"], [])
    assert census(root, {"repro.mod:only_tested": "kept"}) == ([], [])


def test_census_counts_no_read_by_a_test_only_name(tmp_path):
    """A name read only by a kept name, or by a name nothing live reads,
    is itself test-only: the fixpoint finds it, where counting every read
    would not."""
    root = _plant(tmp_path, {**CENSUS_TREE, "src/repro/extra.py": """
        def kept_only():
            return helper()


        def helper():
            return 1


        def dead():
            return deeper()


        def deeper():
            return 2
    """})
    kept = {"repro.mod:only_tested": "kept", "repro.extra:kept_only": "kept"}
    assert census(root, kept) == (
        ["repro.extra:dead", "repro.extra:deeper", "repro.extra:helper"], []
    )


def test_census_finds_stale_kept_entries(tmp_path):
    root = _plant(tmp_path, CENSUS_TREE)
    kept = {"repro.mod:only_tested": "kept", "repro.mod:gone": "deleted since",
            "repro.mod:Box.sealed": "has a caller now"}
    assert census(root, kept) == ([], ["repro.mod:Box.sealed", "repro.mod:gone"])


def _rows(kind):
    return [fields for row_kind, *fields in DELETED if row_kind == kind]


def _resolve(spec):
    """``"module:Attr.path"`` -> the object it names."""
    module, _, path = spec.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


REMOVED_NAMES = [f"{owner}.{name}" if ":" in owner else f"{owner}:{name}"
                 for name, owners, *_ in _rows("name") for owner in owners.split()]
REMOVED_PARAMETERS = [
    (target, keyword) for keyword, targets, *_ in _rows("param") for target in targets.split()
]
SCANS = _rows("text") + [
    scan for kind in ("name", "param") for _, _, *scans in _rows(kind) for scan in scans
]
THIS = Path(__file__).resolve()
ROOT = THIS.parents[1]


@functools.lru_cache(maxsize=None)
def _instance(owner):
    """A built ``owner``, for the owners whose removed names were instance
    attributes (a lookup on the class would miss those)."""
    from repro.apps import authentication_app, firewall_app
    from repro.network import CorrectLogic
    from repro.stateful.symbolic import SymbolicProgram

    if owner == "repro.network:CorrectLogic":
        return CorrectLogic(authentication_app().compiled, controller_assist=True)
    if owner == SYMBOLIC:
        return SymbolicProgram(firewall_app().program)
    return firewall_app().compiled if owner == CNES else None


@pytest.mark.parametrize("spec", REMOVED_NAMES)
def test_removed_names_are_gone(spec):
    module, _, path = spec.partition(":")
    owner, _, name = path.rpartition(".")
    instance = _instance(f"{module}:{owner}")
    with pytest.raises(AttributeError):
        getattr(_resolve(f"{module}:{owner}") if instance is None else instance, name)
    for package in PACKAGES:
        assert name not in importlib.import_module(package).__all__, package


@pytest.mark.parametrize(
    "target, keyword",
    REMOVED_PARAMETERS,
    ids=[f"{target.partition(':')[2]}-{kw}" for target, kw in REMOVED_PARAMETERS],
)
def test_removed_parameters_raise(target, keyword):
    fn = _resolve(target)
    positional = [
        p for p in inspect.signature(fn).parameters.values()
        if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        fn(*[None] * len(positional), **{keyword: None})


@functools.lru_cache(maxsize=None)
def _texts(path):
    """``(file, text)`` for each text file under ``path``, this one aside."""
    top = ROOT / path
    assert top.exists(), f"{path} does not exist"
    out = []
    for file in [top] if top.is_file() else sorted(top.rglob("*")):
        if file.is_file() and "__pycache__" not in file.parts and file != THIS:
            try:
                out.append((file.relative_to(ROOT), file.read_text(encoding="utf-8")))
            except UnicodeDecodeError:
                pass  # not a text file
    return out


@pytest.mark.parametrize("pattern, paths", SCANS, ids=[pattern for pattern, _ in SCANS])
def test_removed_text_is_absent(pattern, paths):
    hits = [
        f"{file}:{text.count(chr(10), 0, match.start()) + 1}: {match.group()}"
        for path in paths
        for file, text in _texts(path)
        for match in re.finditer(pattern, text)
    ]
    assert not hits


@pytest.mark.parametrize(
    "needle, path, count", _rows("count"), ids=[f"{p}:{n}" for n, p, _ in _rows("count")]
)
def test_call_sites_are_counted(needle, path, count):
    lines = [line for _, text in _texts(path) for line in text.splitlines() if needle in line]
    assert len(lines) == count, lines


@pytest.mark.parametrize("module", [module for module, in _rows("module")])
def test_removed_modules_are_gone(module):
    assert not (ROOT / "src" / module.replace(".", "/")).with_suffix(".py").exists()
    with pytest.raises(ModuleNotFoundError) as caught:
        importlib.import_module(module)
    assert caught.value.name == module


@pytest.mark.parametrize(
    "spec, value", _rows("default"), ids=[spec.partition(":")[2] for spec, _ in _rows("default")]
)
def test_former_defaults_are_the_constants(spec, value):
    """A removed parameter's default is the behaviour, unchanged."""
    assert _resolve(spec) == value


def test_no_row_is_listed_twice():
    """A name, keyword, module, count or default is one row, and no branch of a
    scan's regex (a ``|`` outside parentheses; none nest) is scanned twice on a path."""
    keys = [(kind, fields[0]) for kind, *fields in DELETED if kind != "text"]
    keys += [
        (branch, path)
        for pattern, paths in SCANS
        for branch in re.split(r"\|(?![^(]*\))", pattern)
        for path in paths
    ]
    assert [key for key, n in collections.Counter(keys).items() if n > 1] == []
