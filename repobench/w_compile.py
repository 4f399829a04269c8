"""The three compiler workloads: cold compiles of chains, cold compiles
of the case-study apps, and incremental updates of warm pipelines.

All three drive the compiler through ``parse_policy``, ``Pipeline`` and
``protocol.tables_to_wire`` only.  The plain op takes the path a caller
would; the traced op touches the same lazy stages one at a time
(``.ets``, ``.nes``, ``.compiled``, ``.guarded_tables()``), each under a
span, so both execute the same program path.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.netkat.parser import parse_policy
from repro.optimize.sharing import optimize_compiled_nes
from repro.pipeline import Pipeline
from repro.service import protocol

from . import inputs, oracles
from .harness import RunData, Workload, layer_count, layer_seconds, mean, span_medians
from .spans import Recorder

VARIANT_POOL = 4


class _Target:
    """One op class's inputs: program texts, topology, expected bytes."""

    def __init__(self, name: str, programs: List[inputs.ProgramInput]):
        self.name = name
        self.programs = programs
        base = programs[0]
        self.topology = protocol.topology_from_wire(base.topology)
        self.initial_state = base.initial_state
        self.expected: List[bytes] = []
        self.rules = 0


def serialise(compiled) -> bytes:
    """The form every compile and update op returns and every table
    digest pins: the JSON of ``protocol.tables_to_wire``."""
    return json.dumps(protocol.tables_to_wire(compiled)).encode()


def compile_text(text: str, topology, initial_state) -> bytes:
    """The compile op: program text in, serialised guarded tables out."""
    program = parse_policy(text)
    return serialise(Pipeline(program, topology, initial_state).compiled)


def ast_nodes(node) -> int:
    """Nodes of a (Stateful) NetKAT term, policies and predicates alike."""
    children = (
        getattr(node, name, None)
        for name in ("left", "right", "operand", "predicate")
    )
    return 1 + sum(ast_nodes(child) for child in children if child is not None)


def traced_compile(
    rec: Recorder, op: str, text: str, topology, initial_state
) -> Tuple[bytes, float]:
    """The same op, one span per layer boundary."""
    with rec.span("op", op) as op_span:
        with rec.span("netkat.parser.parse") as span:
            program = parse_policy(text)
        span.set(ast_nodes=ast_nodes(program))
        pipeline = Pipeline(program, topology, initial_state)
        with rec.span("stateful.ets.build") as span:
            ets = pipeline.ets
        span.set(states=len(ets.states()), edges=len(ets.edges))
        with rec.span("events.nes.convert") as span:
            nes = pipeline.nes
        span.set(events=len(nes.events))
        with rec.span("runtime.compiler.compile") as span:
            compiled = pipeline.compiled
        span.set(configurations=len(compiled.states))
        with rec.span("runtime.compiler.guarded_tables"):
            compiled.guarded_tables()
        with rec.span("service.protocol.tables_to_wire") as span:
            out = json.dumps(protocol.tables_to_wire(compiled)).encode()
        span.set(wire_bytes=len(out))
    # Not part of the op: the artifact key a service would address the
    # result by, and the rule-sharing optimiser (Fig. 17), which is not
    # in the pipeline today and is recorded so it has a number.
    with rec.span("pipeline.artifact_key", op):
        pipeline.artifact_key()
    with rec.span("optimize.sharing.optimize", op) as span:
        optimised = optimize_compiled_nes(compiled)
    span.set(rules_saved=optimised.original - optimised.optimized)
    return out, op_span.seconds


_COMPILE_STAGES = (
    "netkat.parser.parse",
    "stateful.ets.build",
    "events.nes.convert",
    "runtime.compiler.compile",
    "runtime.compiler.guarded_tables",
    "service.protocol.tables_to_wire",
)


def compile_layer_metrics(rec: Recorder) -> Dict[str, float]:
    out = {f"{stage}_s": layer_seconds(rec, stage) for stage in _COMPILE_STAGES}
    out.update({
        "netkat.parser.ast_nodes": layer_count(rec, "netkat.parser.parse", "ast_nodes"),
        "stateful.ets.states": layer_count(rec, "stateful.ets.build", "states"),
        "stateful.ets.edges": layer_count(rec, "stateful.ets.build", "edges"),
        "events.nes.events": layer_count(rec, "events.nes.convert", "events"),
        "runtime.compiler.configurations": layer_count(
            rec, "runtime.compiler.compile", "configurations"),
        "service.protocol.wire_bytes": layer_count(
            rec, "service.protocol.tables_to_wire", "wire_bytes"),
        "pipeline.artifact_key_s": layer_seconds(rec, "pipeline.artifact_key"),
        "optimize.sharing.optimize_s": layer_seconds(rec, "optimize.sharing.optimize"),
        "optimize.sharing.rules_saved": layer_count(
            rec, "optimize.sharing.optimize", "rules_saved"),
    })
    # What the façade adds: the op minus the stages it is made of.
    ops = span_medians(rec, "op")
    staged = {
        c: sum(span_medians(rec, stage).get(c, 0.0) for stage in _COMPILE_STAGES)
        for c in ops
    }
    out["pipeline.facade_overhead_s"] = mean(ops[c] - staged[c] for c in ops)
    return out


class _CompileWorkload(Workload):
    """Cold text -> tables compiles over a fixed list of targets."""

    def targets(self) -> List[_Target]:
        raise NotImplementedError

    def setup(self) -> None:
        self._targets = self.targets()
        pinned = oracles.load_expected()["tables"]
        for target in self._targets:
            for index, program_input in enumerate(target.programs):
                # The warm-up pass: one op per program (in its parts, to
                # keep the compiled artifact), its output put through the
                # heavy oracles before it becomes the bytes timed ops are
                # compared with.
                program = parse_policy(program_input.text)
                compiled = Pipeline(
                    program, target.topology, target.initial_state
                ).compiled
                out = serialise(compiled)
                if program_input.name in pinned:
                    self.expect(
                        oracles.sha256_hex(out) == pinned[program_input.name],
                        f"pinned table digest of {program_input.name}",
                    )
                if index == 0:
                    target.rules = compiled.total_rule_count()
                made, wrong = oracles.probe_compiled(
                    self.rng, program_input.text, program, compiled
                )
                self.expect(
                    not wrong,
                    f"{program_input.name} vs semantics: {wrong[:2]}",
                    checks=made,
                )
                target.expected.append(out)

    def op(self, ci: int, k: int) -> bytes:
        target = self._targets[ci]
        text = target.programs[k % len(target.programs)].text
        return compile_text(text, target.topology, target.initial_state)

    def traced_op(self, ci: int, k: int, rec: Recorder) -> Tuple[bytes, float]:
        target = self._targets[ci]
        text = target.programs[k % len(target.programs)].text
        return traced_compile(
            rec, f"{target.name}#{k}", text, target.topology, target.initial_state
        )

    def check(self, ci: int, k: int, output: bytes) -> bool:
        target = self._targets[ci]
        return output == target.expected[k % len(target.expected)]

    def rules_total(self) -> int:
        return sum(target.rules for target in self._targets)

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        return compile_layer_metrics(rec)


class CompileChain(_CompileWorkload):
    name = "compile_chain"

    def targets(self) -> List[_Target]:
        return [_Target(c, [inputs.program(c)]) for c in self.classes]


class CompileApps(_CompileWorkload):
    name = "compile_apps"

    def targets(self) -> List[_Target]:
        out = []
        for op_class in self.classes:
            if op_class.startswith("var."):
                base = inputs.program(op_class[4:])
                pool = 1 if self.smoke else VARIANT_POOL
                programs = [
                    base.variant(k) for k in inputs.variant_ids(self.rng, pool)
                ]
            else:
                programs = [inputs.program(op_class)]
            out.append(_Target(op_class, programs))
        return out


class UpdateStream(Workload):
    """One ``Delta`` -> serialised tables of the updated pipeline."""

    name = "update_stream"

    def setup(self) -> None:
        self._bases: Dict[str, Pipeline] = {}
        self._rules = 0
        # per class: (base pipeline, [delta], [expected bytes])
        self._targets: List[Tuple[Pipeline, List[Any], List[bytes]]] = []
        for op_class in self.classes:
            base_name, kind = op_class.split(".")
            base_input = inputs.program(base_name)
            base = self._bases.get(base_name)
            if base is None:
                base = Pipeline(
                    parse_policy(base_input.text),
                    protocol.topology_from_wire(base_input.topology),
                    base_input.initial_state,
                )
                self._rules += base.compiled.total_rule_count()
                self._bases[base_name] = base
            wires = inputs.delta_wires(self.rng, base_input, kind)
            if self.smoke:
                wires = wires[:1]
            deltas = [protocol.delta_from_wire(w) for w in wires]
            expected = []
            for delta in deltas:
                # The oracle: a cold pipeline built on the post-delta
                # inputs, never touched by update().
                rebuilt = serialise(self._cold(base, delta).compiled)
                self.expect(
                    self._update(base, delta) == rebuilt,
                    f"{op_class} update equals cold rebuild",
                )
                expected.append(rebuilt)
            self._targets.append((base, deltas, expected))

    @staticmethod
    def _cold(base: Pipeline, delta) -> Pipeline:
        return Pipeline(
            delta.apply_program(base.program),
            delta.apply_topology(base.topology),
            delta.apply_initial_state(base.initial_state),
        )

    @staticmethod
    def _update(base: Pipeline, delta) -> bytes:
        return serialise(base.update(delta).compiled)

    def op(self, ci: int, k: int) -> bytes:
        base, deltas, _ = self._targets[ci]
        return self._update(base, deltas[k % len(deltas)])

    def traced_op(self, ci: int, k: int, rec: Recorder) -> Tuple[bytes, float]:
        base, deltas, _ = self._targets[ci]
        delta = deltas[k % len(deltas)]
        op = f"{self.classes[ci]}#{k}"
        with rec.span("op", op) as op_span:
            with rec.span("pipeline.update.apply") as span:
                updated = base.update(delta)
                compiled = updated.compiled
            stats = dict(updated.report().stats)
            states = (
                stats["update.states_reused"] + stats["update.states_reinstantiated"]
            )
            span.set(
                configs_recompiled=stats["update.configurations_recompiled"],
                states_reused_share=(
                    stats["update.states_reused"] / states if states else 1.0
                ),
            )
            with rec.span("service.protocol.tables_to_wire") as span:
                out = serialise(compiled)
            span.set(wire_bytes=len(out))
        # The comparison point, outside the op: the same result cold.
        with rec.span("cold_rebuild", op):
            self._cold(base, delta).compiled
        return out, op_span.seconds

    def check(self, ci: int, k: int, output: bytes) -> bool:
        expected = self._targets[ci][2]
        return output == expected[k % len(expected)]

    def rules_total(self) -> int:
        return self._rules

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        apply_s = span_medians(rec, "pipeline.update.apply")
        cold_s = span_medians(rec, "cold_rebuild")
        return {
            "pipeline.update.apply_s": mean(apply_s.values()),
            "pipeline.update.configs_recompiled": layer_count(
                rec, "pipeline.update.apply", "configs_recompiled"),
            "pipeline.update.states_reused_share": layer_count(
                rec, "pipeline.update.apply", "states_reused_share"),
            "pipeline.update.vs_cold_ratio": mean(
                apply_s[c] / cold_s[c] for c in apply_s if cold_s.get(c)
            ),
            "service.protocol.tables_to_wire_s": layer_seconds(
                rec, "service.protocol.tables_to_wire"),
            "service.protocol.wire_bytes": layer_count(
                rec, "service.protocol.tables_to_wire", "wire_bytes"),
        }
