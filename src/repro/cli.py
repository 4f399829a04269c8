"""Command-line interface: compile, check, and inspect stateful programs.

Usage (also via ``python -m repro``)::

    python -m repro show-ets  program.snk --topology firewall
    python -m repro check     program.snk --topology star --initial 0
    python -m repro compile   program.snk --topology firewall \
                              [--cache-dir DIR] [--strict-cache] \
                              [--report] [--json] [--trace OUT.json]
    python -m repro trace summarize OUT.json

Every flag of ``compile`` sets an option two real callers need
different values for (cache placement and trust, output format);
there is one compile path and one executor, so no flag selects an
implementation.  ``--report`` prints the per-stage timing report
including the pipeline ``health`` counters (per-configuration
compile retries, cache integrity rejections, swallowed cache errors) and the artifact-cache hit/miss load counts; ``health ok``
means nothing was absorbed.  ``--report
--json`` emits the report as one JSON object (the same shape the
compilation service serves) instead of the human-readable output.
``--trace OUT.json`` records a :mod:`repro.obs.trace` span tree of the
compile (every pipeline stage, cache access, and per-configuration
compile attempt) and writes it in Chrome trace event format —
drag-and-drop loadable in Perfetto, or fold it into a self-time
breakdown with ``trace summarize``.
    python -m repro serve     [--host HOST] [--port PORT] \
                              [--cache-dir DIR] [--strict-cache] \
                              [--memo-size N]

``serve`` starts the compilation-as-a-service daemon
(:mod:`repro.service`): a controller fleet POSTs programs to
``/compile`` / ``/compile/batch`` / ``/update`` and reads ``/health`` /
``/stats`` / ``/version`` instead of linking the compiler.
    python -m repro update    program.snk --topology firewall \
                              [--set-state COMPONENT=VALUE]... \
                              [--new-program FILE] [--report]
    python -m repro optimize  program.snk --topology firewall
    python -m repro apps

``update`` compiles the program cold, applies the delta
(:class:`repro.pipeline.Delta`), and recompiles **incrementally**
through :meth:`repro.pipeline.Pipeline.update`, printing the updated
tables and how much of the previous build was reused.

Programs are written in the concrete syntax of
:mod:`repro.netkat.parser`; ``--topology`` selects one of the built-in
Figure 8 topologies (``firewall``, ``learning``, ``star``, ``ring:N``),
and ``--initial`` gives the starting state vector as comma-separated
ints.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional, Sequence

from .events.ets_to_nes import ETSConversionError, nes_of_ets
from .events.locality import locality_violations
from .netkat.flowtable import TagFieldError
from .netkat.parser import ParseError, parse_policy
from .obs import export as obs_export
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .optimize.sharing import optimize_compiled_nes
from .pipeline import CompileOptions, Delta, Pipeline, PipelineError
from .runtime.compiler import LocalityError
from .service.launcher import add_serve_arguments
from .stateful.ast import StateVector
from .stateful.ets import build_ets
from .topology import (
    Topology,
    firewall_topology,
    learning_topology,
    ring_topology,
    star_topology,
)

__all__ = ["main"]

_TOPOLOGIES = {
    "firewall": firewall_topology,
    "learning": learning_topology,
    "star": star_topology,
}


def _topology_of(spec: str) -> Topology:
    if spec in _TOPOLOGIES:
        return _TOPOLOGIES[spec]()
    kind, _, diameter = spec.partition(":")
    if kind == "ring" and diameter.isdecimal() and int(diameter) >= 1:
        return ring_topology(int(diameter))
    raise SystemExit(
        f"unknown topology {spec!r}; choose from "
        f"{sorted(_TOPOLOGIES)} or ring:N"
    )


def _initial_of(spec: str) -> StateVector:
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise SystemExit(f"--initial must be comma-separated ints, got {spec!r}")


def _load_program(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    try:
        return parse_policy(source)
    except ParseError as exc:
        raise SystemExit(f"parse error in {path}: {exc}")


def _cmd_show_ets(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    ets = build_ets(program, _initial_of(args.initial))
    print(ets)
    print(f"\n{len(ets.states())} states, {len(ets.edges)} edges, "
          f"loops: {ets.has_loops()}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the section 3.1 conditions and the locality restriction."""
    program = _load_program(args.program)
    _topology_of(args.topology)  # an unknown spec exits here, as in compile
    ets = build_ets(program, _initial_of(args.initial))
    print(f"ETS: {len(ets.states())} states, {len(ets.edges)} edges")
    try:
        nes = nes_of_ets(ets)
    except ETSConversionError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"family F(T): {len(nes.event_sets())} event-sets  [ok]")
    bad_locality = locality_violations(nes)
    if bad_locality:
        sample = next(iter(bad_locality))
        print(f"FAIL: not locally determined; {set(sample)} spans switches")
        return 1
    print("locally determined  [ok]")
    print(f"events: {len(nes.events)}; configurations: "
          f"{len(nes.configuration_states())}")
    print("program is implementable (sections 3.1 + 2 conditions hold)")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    topology = _topology_of(args.topology)
    if args.json and not args.report:
        raise SystemExit("--json requires --report")
    options = CompileOptions(
        cache_dir=args.cache_dir,
        strict_cache=args.strict_cache,
    )
    pipeline = Pipeline(program, topology, _initial_of(args.initial), options)
    registry = tracer = None
    with contextlib.ExitStack() as stack:
        if args.report or args.trace:
            # A private registry for this one compile: cache hit/miss
            # counts for the human --report output (never in to_dict —
            # that shape is pinned).
            registry = stack.enter_context(obs_metrics.collecting())
        if args.trace:
            tracer = stack.enter_context(obs_trace.recording())
            stack.enter_context(
                obs_trace.span("repro.compile", program=args.program)
            )
        try:
            compiled = pipeline.compiled
            tables = compiled.guarded_tables()  # tag-collision check runs here
        except (ETSConversionError, LocalityError, TagFieldError, PipelineError) as exc:
            print(f"FAIL: {exc}")
            return 1
    if args.trace:
        spans = obs_export.write_chrome_trace(args.trace, tracer)
        trace_note = (
            f"wrote {spans} span(s) to {args.trace} (Chrome trace; load in "
            f"Perfetto or `python -m repro trace summarize {args.trace}`)"
        )
    if args.json:
        # Machine-readable mode: exactly one JSON object on stdout (the
        # PipelineReport.to_dict shape the service also serves).
        if args.trace:
            print(trace_note, file=sys.stderr)
        print(json.dumps(pipeline.report().to_dict(), indent=2))
        return 0
    print(f"{compiled}\n")
    for switch, table in sorted(tables.items()):
        print(f"switch {switch} ({len(table)} rules):")
        for rule in table:
            print(f"  {rule!r}")
    print(f"\nforwarding rules: {compiled.forwarding_rule_count()}")
    print(f"stamp rules:      {compiled.stamp_rule_count()}")
    print(f"total:            {compiled.total_rule_count()}")
    if args.report:
        print(f"\n{pipeline.report()}")
        hits = int(registry.value("repro_cache_loads_total", result="hit"))
        misses = int(registry.value("repro_cache_loads_total", result="miss"))
        print(f"  artifact cache loads: {hits} hit(s), {misses} miss(es)")
    if args.trace:
        print(f"\n{trace_note}")
    return 0


def _set_state_of(specs: Sequence[str]):
    updates = []
    for spec in specs:
        component, sep, value = spec.partition("=")
        try:
            if not sep:
                raise ValueError(spec)
            updates.append((int(component), int(value)))
        except ValueError:
            raise SystemExit(
                f"--set-state must be COMPONENT=VALUE with ints, got {spec!r}"
            )
    return tuple(updates)


def _cmd_update(args: argparse.Namespace) -> int:
    """Compile, apply a delta, and recompile incrementally."""
    program = _load_program(args.program)
    topology = _topology_of(args.topology)
    replace = with_ = None
    if args.new_program is not None:
        replace, with_ = program, _load_program(args.new_program)
    pipeline = Pipeline(program, topology, _initial_of(args.initial))
    try:
        delta = Delta(
            set_state=_set_state_of(args.set_state),
            replace_policy=replace,
            with_policy=with_,
        )
        pipeline.compiled  # cold build the base artifacts
        updated = pipeline.update(delta)
        tables = updated.compiled.guarded_tables()
    except (ETSConversionError, LocalityError, TagFieldError, PipelineError,
            ValueError) as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"{updated.compiled}\n")
    for switch, table in sorted(tables.items()):
        print(f"switch {switch} ({len(table)} rules):")
        for rule in table:
            print(f"  {rule!r}")
    stats = dict(updated.report().stats)
    print(
        f"\nreuse: {stats['update.reuse_percent']}% of configurations "
        f"({stats['update.configurations_reused']} reused, "
        f"{stats['update.configurations_recompiled']} recompiled; "
        f"ETS states: {stats['update.states_reused']} reused, "
        f"{stats['update.states_reinstantiated']} reinstantiated)"
    )
    if args.report:
        print(f"\n{updated.report()}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    topology = _topology_of(args.topology)
    pipeline = Pipeline(program, topology, _initial_of(args.initial))
    try:
        compiled = pipeline.compiled
        result = optimize_compiled_nes(compiled)
    except (ETSConversionError, LocalityError, TagFieldError) as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"{'switch':>6s}  {'original':>8s}  {'optimized':>9s}")
    for sw in result.per_switch:
        print(f"{sw.switch:>6d}  {sw.original:>8d}  {sw.optimized:>9d}")
    print(f"{'total':>6s}  {result.original:>8d}  {result.optimized:>9d}  "
          f"({result.savings_fraction * 100:.0f}% saved)")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Print the self-time breakdown tree of a ``--trace`` output file."""
    try:
        with open(args.file, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{args.file} is not valid JSON: {exc}")
    problems = obs_export.validate_chrome_trace(doc)
    if problems:
        print(f"FAIL: {args.file} is not a valid Chrome trace:")
        for problem in problems[:10]:
            print(f"  {problem}")
        return 1
    spans = obs_export.spans_from_chrome(doc)
    if not spans:
        print("no spans recorded")
        return 0
    tree = obs_export.summarize(spans)
    print(obs_export.format_summary(tree))
    total = sum(node["total"] for node in tree)
    dropped = doc.get("otherData", {}).get("dropped_spans", 0)
    tail = f"  (+{dropped} dropped)" if dropped else ""
    print(f"\n{len(spans)} span(s), {total * 1e3:.3f} ms at top level{tail}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compilation daemon (blocks until interrupted)."""
    from .service.launcher import run

    return run(args)


def _cmd_apps(args: argparse.Namespace) -> int:
    from . import apps as apps_module

    makers = [
        apps_module.firewall_app,
        apps_module.learning_switch_app,
        apps_module.learning_multi_app,
        apps_module.authentication_app,
        apps_module.bandwidth_cap_app,
        apps_module.ids_app,
    ]
    print(f"{'name':>22s}  {'states':>6s}  {'events':>6s}  {'rules':>6s}")
    for make in makers:
        app = make()
        print(
            f"{app.name:>22s}  {len(app.compiled.states):>6d}  "
            f"{len(app.nes.events):>6d}  {app.compiled.total_rule_count():>6d}"
        )
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Event-Driven Network Programming (PLDI 2016) toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_program_command(name: str, handler, help_text: str, needs_topology: bool):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("program", help="Stateful NetKAT source file")
        cmd.add_argument("--initial", default="0", help="initial state vector (e.g. 0,0)")
        if needs_topology:
            cmd.add_argument(
                "--topology",
                default="firewall",
                help="firewall | learning | star | ring:N",
            )
        cmd.set_defaults(handler=handler)

    add_program_command("show-ets", _cmd_show_ets,
                        "print the event-driven transition system", False)
    add_program_command("check", _cmd_check,
                        "check the section 3.1 + locality conditions", True)
    add_program_command("compile", _cmd_compile,
                        "compile to guarded flow tables", True)
    compile_cmd = sub.choices["compile"]
    compile_cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent artifact cache directory (default: disabled); "
        "set REPRO_CACHE_HMAC_KEY to sign/verify artifacts",
    )
    compile_cmd.add_argument(
        "--strict-cache",
        action="store_true",
        help="treat a cached artifact failing HMAC verification as a "
        "hard error instead of a recorded miss",
    )
    compile_cmd.add_argument(
        "--report",
        action="store_true",
        help="print per-stage pipeline timings and stats (including the "
        "ets symbolic-vs-instantiate split)",
    )
    compile_cmd.add_argument(
        "--json",
        action="store_true",
        help="with --report: emit the report as one JSON object "
        "(PipelineReport.to_dict) instead of the human-readable output",
    )
    compile_cmd.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="record a span trace of the compile and write it as a "
        "Chrome trace event file (Perfetto-loadable; inspect with "
        "`repro trace summarize OUT.json`)",
    )
    add_program_command("update", _cmd_update,
                        "recompile incrementally after a delta", True)
    update_cmd = sub.choices["update"]
    update_cmd.add_argument(
        "--set-state",
        action="append",
        default=[],
        metavar="COMPONENT=VALUE",
        help="overwrite one initial-state component (repeatable)",
    )
    update_cmd.add_argument(
        "--new-program",
        default=None,
        metavar="FILE",
        help="replace the whole program with this source file",
    )
    update_cmd.add_argument(
        "--report",
        action="store_true",
        help="print per-stage pipeline timings and stats for the update",
    )
    add_program_command("optimize", _cmd_optimize,
                        "report the section 5.3 rule sharing", True)

    apps_cmd = sub.add_parser("apps", help="list the built-in case studies")
    apps_cmd.set_defaults(handler=_cmd_apps)

    trace_cmd = sub.add_parser(
        "trace", help="inspect span traces written by compile --trace"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    summarize_cmd = trace_sub.add_parser(
        "summarize", help="print a per-stage total/self-time breakdown tree"
    )
    summarize_cmd.add_argument(
        "file", help="Chrome trace JSON written by `repro compile --trace`"
    )
    summarize_cmd.set_defaults(handler=_cmd_trace_summarize)

    serve_cmd = sub.add_parser(
        "serve", help="run the compilation-as-a-service daemon"
    )
    add_serve_arguments(serve_cmd)
    serve_cmd.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
