"""The two simulator workloads.

An op is one episode: build ``SimNetwork`` + a switch logic from a
pre-compiled app, inject the scenario's frames, ``run()`` to quiescence
(or the scenario's horizon), and verify the records.  ``sim_stream``
replays one header, so nearly every hop replays a cached plan and the
scheduler and link bookkeeping in ``network.simulator`` dominate;
``sim_churn`` changes the header on every frame and keeps firing events,
so every hop goes through ``switch_logic.process`` and table lookup.  The
same layer, used the other way round.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.apps import SIGNAL_FIELD
from repro.baselines import ReferenceLogic, UncoordinatedLogic
from repro.netkat.packet import Packet
from repro.netkat.parser import parse_policy
from repro.network import (
    CorrectLogic,
    Frame,
    FrameBatch,
    LinkParams,
    SimNetwork,
    goodput,
    install_ping_responders,
    ping_outcomes,
    send_bulk,
    send_ping,
)
from repro.pipeline import Pipeline
from repro.service import protocol

from . import inputs, oracles
from .harness import RunData, Workload, geomean, layer_count, layer_seconds
from .spans import Recorder

_now = time.perf_counter

STREAM_FRAMES = 2000
CHURN_FRAMES = 400
PINNED_FRAMES = 200  # the canonical episodes whose full digests are pinned
PAYLOAD_BYTES = 64


class _ProcessTimer:
    """Mixed in front of a switch logic in traced episodes: busy time
    and call count of ``process`` (a hop that replays a cached plan in
    the simulator never reaches it)."""

    process_s = 0.0
    process_calls = 0

    def process(self, net, location, frame):
        start = _now()
        out = super().process(net, location, frame)
        self.process_s += _now() - start
        self.process_calls += 1
        return out


class _TimedCorrect(_ProcessTimer, CorrectLogic):
    pass


class _TimedUncoordinated(_ProcessTimer, UncoordinatedLogic):
    pass


def compile_app(name: str):
    """A scenario's app, compiled from generated text and wire."""
    program_input = inputs.program(name)
    topology = protocol.topology_from_wire(program_input.topology)
    pipeline = Pipeline(
        parse_policy(program_input.text), topology, program_input.initial_state
    )
    return pipeline.compiled, topology


class _Scenario:
    """One op class: how to build, load and run its network."""

    def __init__(self, compiled, topology, sim_seed: int):
        self.compiled = compiled
        self.topology = topology
        self.sim_seed = sim_seed
        self.horizon: Optional[float] = None
        # Signature and outcome of the set-up episode (the simulator is
        # deterministic: every timed episode must reproduce them).
        self.expected: Optional[Tuple] = None
        self.seen: Dict[str, float] = {}

    def logic(self, traced: bool):
        return (_TimedCorrect if traced else CorrectLogic)(self.compiled)

    def load(self, net: SimNetwork) -> None:
        raise NotImplementedError

    def outcome(self, net: SimNetwork) -> Dict[str, float]:
        """The scenario's result read off a finished network."""
        return {}

    def valid(self, outcome: Dict[str, float], net: SimNetwork) -> bool:
        return True

    def run(self) -> SimNetwork:
        net = SimNetwork(self.topology, self.logic(False), seed=self.sim_seed)
        self.load(net)
        net.run(until=self.horizon)
        return net

    def run_traced(self, rec: Recorder, op: str) -> Tuple[SimNetwork, float]:
        with rec.span("op", op) as op_span:
            logic = self.logic(True)
            net = SimNetwork(self.topology, logic, seed=self.sim_seed)
            with rec.span("network.simulator.inject"):
                self.load(net)
            with rec.span("network.simulator.run") as span:
                net.run(until=self.horizon)
        events = net.sim.events_processed
        span.set(
            events=events,
            deliveries=len(net.deliveries),
            drops=len(net.drops),
            process_s=logic.process_s,
            process_calls=logic.process_calls,
            # Every switch-processing event is caused by exactly one
            # injection or link-arrival event, so they are half of all
            # events; those that never reached process() replayed a plan.
            fast_path_share=max(0.0, 1.0 - 2.0 * logic.process_calls / events),
            events_per_s=events / span.seconds,
        )
        return net, op_span.seconds


class StreamScenario(_Scenario):
    def __init__(self, compiled, topology, sim_seed, streams: List[inputs.Stream]):
        super().__init__(compiled, topology, sim_seed)
        self.streams = streams

    def load(self, net: SimNetwork) -> None:
        for stream in self.streams:
            net.inject_stream(
                stream.host,
                FrameBatch(
                    stream.columns,
                    stream.count,
                    payload_bytes=PAYLOAD_BYTES,
                    flow=("bench", stream.host),
                    spacing=stream.spacing,
                    start=stream.start,
                ),
            )

    def valid(self, outcome: Dict[str, float], net: SimNetwork) -> bool:
        # Conservation: every injected frame is delivered or dropped
        # (these apps forward each packet to at most one host).
        injected = sum(s.count for s in self.streams)
        return len(net.deliveries) + len(net.drops) == injected


# The Fig. 10/11 schedule: H1 pings H4 ten times; replies take the
# reverse path the event enables.
PING_COUNT = 10
PING_START = 1.0
PING_INTERVAL = 0.4
PING_HORIZON = 30.0
UNCOORDINATED_DELAY = 2.0


class PingScenario(_Scenario):
    def __init__(self, compiled, topology, sim_seed, coordinated: bool):
        super().__init__(compiled, topology, sim_seed)
        self.coordinated = coordinated
        self.horizon = PING_HORIZON
        self.pings = [
            ("H1", "H4", ident, PING_START + i * PING_INTERVAL)
            for i, ident in enumerate(range(1, PING_COUNT + 1))
        ]

    def logic(self, traced: bool):
        if self.coordinated:
            return super().logic(traced)
        cls = _TimedUncoordinated if traced else UncoordinatedLogic
        return cls(self.compiled, update_delay=UNCOORDINATED_DELAY)

    def load(self, net: SimNetwork) -> None:
        install_ping_responders(net)
        for src, dst, ident, at in self.pings:
            send_ping(net, src, dst, ident, at)

    def outcome(self, net: SimNetwork) -> Dict[str, float]:
        outcomes = ping_outcomes(net, self.pings)
        return {"dropped_pings": float(sum(1 for o in outcomes if not o.succeeded))}

    def valid(self, outcome: Dict[str, float], net: SimNetwork) -> bool:
        # The paper's claim (Fig. 10/11): the event-driven runtime loses
        # no ping; an uncoordinated update loses some.
        dropped = outcome["dropped_pings"]
        return dropped == 0 if self.coordinated else dropped > 0


SIGNAL_AT = 1.0
SIGNAL_PINGS = 60
SIGNAL_HORIZON = 30.0


class SignalScenario(_Scenario):
    """Fig. 16(b): a signal packet flips the ring; background pings
    gossip the event; how long until every switch has learned it."""

    def __init__(self, compiled, topology, sim_seed):
        super().__init__(compiled, topology, sim_seed)
        self.horizon = SIGNAL_HORIZON

    def load(self, net: SimNetwork) -> None:
        install_ping_responders(net)
        signal = Frame(
            packet=Packet({"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0}),
            flow=("signal",),
        )
        net.inject("H1", signal, at=SIGNAL_AT)
        for i in range(SIGNAL_PINGS):
            send_ping(net, "H1", "H2", 100 + i, at=0.5 + i * 0.1)

    def outcome(self, net: SimNetwork) -> Dict[str, float]:
        learned = [t - SIGNAL_AT for t in net.event_learned_at.values()]
        return {
            "convergence_sim_s": max(learned, default=0.0),
            "switches_learned": float(len(learned)),
        }

    def valid(self, outcome: Dict[str, float], net: SimNetwork) -> bool:
        return outcome["switches_learned"] == len(self.topology.switches)


class _SimWorkload(Workload):
    # scenario name -> app name
    apps: Dict[str, str] = {}

    def scenario(self, op_class: str, compiled, topology, seeded: bool) -> _Scenario:
        raise NotImplementedError

    def setup(self) -> None:
        pinned = oracles.load_expected()["records"]
        compiled_apps: Dict[str, Tuple[Any, Any]] = {}
        self._scenarios: List[_Scenario] = []
        self._rules = 0
        for op_class in self.classes:
            app = self.apps[op_class]
            if app not in compiled_apps:
                compiled_apps[app] = compile_app(app)
                self._rules += compiled_apps[app][0].total_rule_count()
            compiled, topology = compiled_apps[app]
            # The canonical (seed-free) episode, whose full record
            # sequence is pinned ...
            canonical = self.scenario(op_class, compiled, topology, seeded=False)
            net = canonical.run()
            self.expect(
                oracles.record_digest(net) == pinned[f"{self.name}.{op_class}"],
                f"pinned record digest of {op_class}",
            )
            self.expect(
                canonical.valid(canonical.outcome(net), net),
                f"canonical {op_class} outcome",
            )
            # ... and the seeded one the timed region repeats, whose
            # signature every op is compared with.
            scenario = self.scenario(op_class, compiled, topology, seeded=True)
            net = scenario.run()
            scenario.seen = scenario.outcome(net)
            self.expect(
                scenario.valid(scenario.seen, net), f"seeded {op_class} outcome"
            )
            scenario.expected = oracles.record_signature(net)
            self._scenarios.append(scenario)

    def op(self, ci: int, k: int) -> SimNetwork:
        return self._scenarios[ci].run()

    def traced_op(self, ci: int, k: int, rec: Recorder) -> Tuple[SimNetwork, float]:
        return self._scenarios[ci].run_traced(rec, f"{self.classes[ci]}#{k}")

    def check(self, ci: int, k: int, output: SimNetwork) -> bool:
        scenario = self._scenarios[ci]
        return (
            oracles.record_signature(output) == scenario.expected
            and scenario.valid(scenario.outcome(output), output)
        )

    def rules_total(self) -> int:
        return self._rules

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        run = "network.simulator.run"
        run_s = layer_seconds(rec, run)
        process_s = layer_count(rec, run, "process_s")
        return {
            "network.simulator.inject_s": layer_seconds(rec, "network.simulator.inject"),
            "network.simulator.run_s": run_s,
            "network.simulator.self_s": run_s - process_s,
            "network.simulator.events": layer_count(rec, run, "events"),
            "network.simulator.events_per_s": layer_count(rec, run, "events_per_s"),
            "network.simulator.deliveries": layer_count(rec, run, "deliveries"),
            "network.simulator.drops": layer_count(rec, run, "drops"),
            "network.switch_logic.process_s": process_s,
            "network.switch_logic.process_calls": layer_count(rec, run, "process_calls"),
            "network.switch_logic.fast_path_share": layer_count(rec, run, "fast_path_share"),
        }


class SimStream(_SimWorkload):
    name = "sim_stream"
    apps = {name: spec[0] for name, spec in inputs.STREAM_SCENARIOS.items()}

    def scenario(self, op_class, compiled, topology, seeded):
        if seeded:
            frames = STREAM_FRAMES // 20 if self.smoke else STREAM_FRAMES
            ident, sim_seed = self.rng.randrange(1, 1 << 16), self.rng.randrange(1 << 16)
        else:
            frames, ident, sim_seed = PINNED_FRAMES, 0, 7
        return StreamScenario(
            compiled, topology, sim_seed,
            inputs.constant_stream(op_class, frames, ident),
        )

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        out = super().layer_metrics(data, rec)
        out["network.goodput_ratio"] = self._goodput_ratio()
        return out

    def _goodput_ratio(self) -> float:
        """Fig. 16(a): simulated-time goodput of the tag/digest logic
        over a plain static switch on the ring, diameters 2/4/8 --
        what the consistency machinery costs in bandwidth.  Exact."""
        ratios = []
        fast_link = LinkParams(latency=0.001, capacity=1.25e9)
        for diameter in (2, 4) if self.smoke else (2, 4, 8):
            compiled, topology = compile_app(f"ring{diameter}")
            rates = []
            for logic in (
                CorrectLogic(compiled),
                ReferenceLogic(compiled.config_for_state(compiled.nes.initial_state)),
            ):
                net = SimNetwork(
                    topology, logic, seed=5, default_link=fast_link, switch_delay=1e-4
                )
                send_bulk(net, "H1", "H2", packets=100)
                net.run(until=600.0)
                rates.append(goodput(net, "H1", "H2"))
            ratios.append(rates[0] / rates[1])
        ratio = geomean(ratios)
        self.expect(0.5 < ratio <= 1.0, f"goodput ratio {ratio} out of range")
        return ratio


class SimChurn(_SimWorkload):
    name = "sim_churn"
    apps = {
        **{name: spec[0] for name, spec in inputs.CHURN_SCENARIOS.items()},
        "pings_correct": "firewall",
        "pings_uncoordinated": "firewall",
        "signal_ring4": "ring4",
    }

    def scenario(self, op_class, compiled, topology, seeded):
        sim_seed = self.rng.randrange(1 << 16) if seeded else 7
        if op_class == "pings_correct":
            return PingScenario(compiled, topology, sim_seed, coordinated=True)
        if op_class == "pings_uncoordinated":
            return PingScenario(compiled, topology, sim_seed, coordinated=False)
        if op_class == "signal_ring4":
            return SignalScenario(compiled, topology, sim_seed)
        if seeded:
            frames = CHURN_FRAMES // 10 if self.smoke else CHURN_FRAMES
            rng = self.rng
        else:
            frames, rng = PINNED_FRAMES, random.Random(0)
        return StreamScenario(
            compiled, topology, sim_seed, inputs.churn_streams(rng, op_class, frames)
        )

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        out = super().layer_metrics(data, rec)
        seen = {c: s.seen for c, s in zip(self.classes, self._scenarios)}
        out["network.correct.dropped_pings"] = seen["pings_correct"]["dropped_pings"]
        out["baselines.uncoordinated.dropped_pings"] = (
            seen["pings_uncoordinated"]["dropped_pings"]
        )
        out["network.convergence_sim_s"] = seen["signal_ring4"]["convergence_sim_s"]
        return out
