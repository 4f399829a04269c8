"""The checker workload: one ``NetworkTrace`` -> one Definition-6 verdict.

Traces are built in set-up by the operational semantics (``Runtime``)
under seeded interleavings, and every one has a known answer.  Traces of
the compiled program are correct (Theorem 1).  Traces of an
*uncoordinated* network are not: ``stale`` runs the same script on a
network that never leaves its initial configuration (the event fires but
no switch updates, so later packets are handled "too late"), and
``premature`` on one that starts in the final configuration ("too
early").  Both are the program's own projections compiled as static
programs, so they come through the same public ``Pipeline``/``Runtime``
entry points.  The checker must accept the first kind and reject the
other two; a wrong verdict is a failed op.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.consistency import NESChecker
from repro.netkat.parser import parse_policy
from repro.pipeline import Pipeline
from repro.runtime.semantics import Runtime
from repro.service import protocol
from repro.stateful.projection import project

from . import inputs
from .harness import RunData, Workload, layer_count, layer_seconds, mean
from .spans import Recorder

TRACE_POOL = 4

# family -> app, and the state whose static projection the "premature"
# network runs (the last state of the app's event chain).
FAMILIES: Dict[str, Tuple[str, Tuple[int, ...]]] = {
    "firewall": ("firewall", (1,)),
    "ids": ("ids", (2,)),
    "authentication": ("authentication", (2,)),
    "learning": ("learning_switch", (1,)),
    "cap4": ("cap4", (5,)),
}


class _Family:
    def __init__(self, app: str):
        program_input = inputs.program(app)
        self.program = parse_policy(program_input.text)
        self.topology = protocol.topology_from_wire(program_input.topology)
        self.initial_state = program_input.initial_state
        self.pipeline = Pipeline(self.program, self.topology, self.initial_state)
        self.compiled = self.pipeline.compiled
        self.nes = self.pipeline.nes

    def static_network(self, state: Tuple[int, ...]):
        """The uncoordinated baseline: the configuration of ``state``
        compiled as a program without state, so no event moves it."""
        return Pipeline(project(self.program, state), self.topology, ()).compiled


def build_trace(compiled, script: List[inputs.Injection], seed: int, burst: int):
    """Run ``script`` through the operational semantics, ``burst``
    injections at a time, under the seeded random interleaving."""
    runtime = Runtime(compiled, seed=seed)
    for start in range(0, len(script), burst):
        for host, fields in script[start:start + burst]:
            runtime.inject(host, fields)
        runtime.run_until_quiescent()
    return runtime.network_trace()


class VerifyTraces(Workload):
    name = "verify_traces"

    def setup(self) -> None:
        families: Dict[str, _Family] = {}
        # per class: (family, known answer, [trace])
        self._targets: List[Tuple[_Family, bool, List[Any]]] = []
        pool = 1 if self.smoke else TRACE_POOL
        for op_class in self.classes:
            name, kind = op_class.split(".")
            app, final_state = FAMILIES[name]
            family = families.get(name)
            if family is None:
                family = families[name] = _Family(app)
            if kind == "ok":
                network, burst = family.compiled, 2
            elif kind == "stale":
                network, burst = family.static_network(family.initial_state), 1
            else:
                network, burst = family.static_network(final_state), 1
            traces = [
                build_trace(
                    network,
                    inputs.trace_script(self.rng, name),
                    self.rng.randrange(1 << 16),
                    burst,
                )
                for _ in range(pool)
            ]
            known = kind == "ok"
            for trace in traces:
                # The warm-up pass is the oracle check itself: the
                # verdict must equal the answer known by construction.
                report = NESChecker(family.nes, family.topology).check(trace)
                self.expect(
                    bool(report) == known,
                    f"{op_class}: verdict {bool(report)}, known answer {known}",
                )
            self._targets.append((family, known, traces))
        self._rules = sum(f.compiled.total_rule_count() for f in families.values())

    def op(self, ci: int, k: int) -> bool:
        family, _, traces = self._targets[ci]
        checker = NESChecker(family.nes, family.topology)
        return bool(checker.check(traces[k % len(traces)]))

    def traced_op(self, ci: int, k: int, rec: Recorder) -> Tuple[bool, float]:
        family, _, traces = self._targets[ci]
        trace = traces[k % len(traces)]
        with rec.span("op", f"{self.classes[ci]}#{k}") as op_span:
            checker = NESChecker(family.nes, family.topology)
            with rec.span("consistency.checker.check") as span:
                verdict = bool(checker.check(trace))
        span.set(
            positions=len(trace.packets),
            positions_per_s=len(trace.packets) / span.seconds,
            sequences_tried=checker.sequences_tried,
        )
        return verdict, op_span.seconds

    def check(self, ci: int, k: int, output: bool) -> bool:
        return output == self._targets[ci][1]

    def rules_total(self) -> int:
        return self._rules

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        check = "consistency.checker.check"
        # Trace construction is set-up work; timed here, once per class,
        # so the cost of producing checker input has a number too.
        build_s = []
        for (family, known, _), op_class in zip(self._targets, self.classes):
            if known:
                name = op_class.split(".")[0]
                with rec.span("consistency.traces.build", f"{op_class}#build") as span:
                    build_trace(
                        family.compiled, inputs.trace_script(self.rng, name), 0, 2
                    )
                build_s.append(span.seconds)
        return {
            "consistency.traces.build_s": mean(build_s),
            "consistency.checker.check_s": layer_seconds(rec, check),
            "consistency.checker.positions_per_s": layer_count(
                rec, check, "positions_per_s"),
            "consistency.checker.sequences_tried": layer_count(
                rec, check, "sequences_tried"),
            "consistency.checker.verdicts_wrong": float(
                data.failed + self.check_failures),
        }
