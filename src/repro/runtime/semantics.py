"""Executable operational semantics (Figure 7).

The six transition rules -- IN, OUT, SWITCH, LINK, CTRLRECV, CTRLSEND --
implemented over :class:`repro.runtime.model.NetworkState`, driven by a
seeded scheduler.  Executions record the induced network trace, so
Theorem 1 (every execution's trace is correct w.r.t. the NES) can be
checked empirically by the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Set, Tuple

from ..consistency.traces import NetworkTrace
from ..events.event import Event, EventSet
from ..netkat.packet import Location, Packet, PT
from .compiler import CompiledNES
from .model import NetworkState, RuntimePacket, TraceRecorder

__all__ = [
    "RuntimeInvariantError",
    "Transition",
    "Runtime",
    "detect_events",
    "merge_in_enabling_order",
]

# The most controller transitions one drain_controller() may fire.
MAX_DRAIN_STEPS = 10_000


def detect_events(
    nes, combined: EventSet, packet: Packet, location: Location
) -> List[Event]:
    """The detection half of the SWITCH rule: the events newly enabled
    by ``packet`` arriving at ``location`` of a switch that knows
    ``combined`` (its register joined with the packet's digest).

    Enabling is judged against the pre-arrival view (E ∪ pkt.digest, as
    in the figure); consistency additionally accounts for events chosen
    in this very step so the register never becomes inconsistent.
    """
    structure = nes.structure
    detected: List[Event] = []
    for event in sorted(nes.events, key=repr):
        if event in combined:
            continue
        if not event.matches_packet(packet, location):
            continue
        if not structure.enables(combined, event):
            continue
        if not structure.con(combined | frozenset(detected) | {event}):
            continue
        detected.append(event)
    return detected


def merge_in_enabling_order(
    structure, known: Iterable[Event], incoming: Iterable[Event]
) -> Set[Event]:
    """The CTRLSEND merge: ``known`` plus every event of ``incoming``
    that can be added in enabling order, so the result stays a valid
    event-set."""
    known = set(known)
    remaining = set(incoming) - known
    progress = True
    while progress and remaining:
        progress = False
        for event in sorted(remaining, key=repr):
            if structure.enables(frozenset(known), event) and structure.con(
                frozenset(known) | {event}
            ):
                known.add(event)
                remaining.discard(event)
                progress = True
    return known


class RuntimeInvariantError(Exception):
    """An internal invariant of the implementation was violated (e.g. a
    switch register no longer holds a valid event-set of the NES)."""


@dataclass(frozen=True)
class Transition:
    """One enabled transition of the operational semantics."""

    rule: str  # "SWITCH" | "LINK" | "OUT" | "CTRLRECV" | "CTRLSEND"
    args: Tuple

    def __repr__(self) -> str:
        return f"{self.rule}{self.args!r}"


class Runtime:
    """An executing network: compiled NES + global state + scheduler."""

    def __init__(
        self,
        compiled: CompiledNES,
        seed: int = 0,
        controller_assist: bool = False,
    ):
        self.compiled = compiled
        self.topology = compiled.topology
        self.state = NetworkState(compiled.topology.switches)
        self.recorder = TraceRecorder()
        self.random = random.Random(seed)
        self.controller_assist = controller_assist
        self.steps_taken = 0

    # -- IN: host injects a packet ------------------------------------------------

    def inject(self, host_name: str, fields: Mapping[str, int]) -> RuntimePacket:
        """The IN rule: admit a packet from a host at its edge port.

        The packet is stamped with the tag of the local switch's current
        event-set (``pkt[C <- g(E)]``) and an empty digest.
        """
        host = self.topology.host(host_name)
        location = host.attachment
        switch = self.state.switch(location.switch)
        tag = frozenset(switch.known_events)
        self._require_event_set(tag, f"IN at {location}")
        packet = Packet(dict(fields)).at(location)
        index = self.recorder.record(packet, location)
        runtime_packet = RuntimePacket(
            packet=packet, tag=tag, digest=frozenset(), trace_path=(index,)
        )
        switch.enqueue_in(location.port, runtime_packet)
        return runtime_packet

    # -- enabled-transition enumeration ----------------------------------------

    def enabled_transitions(self) -> List[Transition]:
        out: List[Transition] = []
        for switch_id, switch in self.state.switches.items():
            for port in switch.ports_with_input():
                out.append(Transition("SWITCH", (switch_id, port)))
            for port in switch.ports_with_output():
                location = Location(switch_id, port)
                if self.topology.link_targets(location):
                    out.append(Transition("LINK", (location,)))
                if self.topology.host_at(location) is not None:
                    out.append(Transition("OUT", (location,)))
        if self.state.controller_queue:
            for event in sorted(self.state.controller_queue, key=repr):
                out.append(Transition("CTRLRECV", (event,)))
        if self.controller_assist and self.state.controller:
            for switch_id, switch in self.state.switches.items():
                new = self.state.controller - switch.known_events
                if new:
                    out.append(Transition("CTRLSEND", (switch_id,)))
        return out

    def apply(self, transition: Transition) -> None:
        handler = {
            "SWITCH": self._step_switch,
            "LINK": self._step_link,
            "OUT": self._step_out,
            "CTRLRECV": self._step_ctrl_recv,
            "CTRLSEND": self._step_ctrl_send,
        }[transition.rule]
        handler(*transition.args)
        self.steps_taken += 1

    # -- SWITCH ------------------------------------------------------------------

    def _step_switch(self, switch_id: int, port: int) -> None:
        """Process one packet: learn digest, detect events, forward by pkt.C."""
        switch = self.state.switch(switch_id)
        packet = switch.in_queues[port].popleft()
        location = Location(switch_id, port)
        combined = frozenset(switch.known_events) | packet.digest
        new_events = frozenset(
            detect_events(self.compiled.nes, combined, packet.packet, location)
        )
        new_known = combined | new_events
        self._require_event_set(new_known, f"SWITCH at {location}")
        switch.known_events = set(new_known)
        self.state.controller_queue |= set(new_events)

        # Forward using the packet's own configuration (per-packet
        # consistency: pkt.C was fixed at ingress).
        config = self.compiled.config_for_event_set(packet.tag)
        arrival = packet.packet.at(location)
        outputs = config.table(switch_id).apply(arrival)
        out_digest = packet.digest | new_known

        if not outputs:
            self.recorder.finish(packet.trace_path)
            self.state.dropped.append((location, packet))
            return
        for out_packet in sorted(outputs, key=repr):
            egress_port = out_packet[PT]
            egress = Location(switch_id, egress_port)
            index = self.recorder.record(out_packet, egress)
            child = RuntimePacket(
                packet=out_packet.at(egress),
                tag=packet.tag,
                digest=out_digest,
                trace_path=packet.trace_path + (index,),
            )
            switch.enqueue_out(egress_port, child)

    # -- LINK ----------------------------------------------------------------------

    def _step_link(self, src: Location) -> None:
        switch = self.state.switch(src.switch)
        packet = switch.out_queues[src.port].popleft()
        targets = sorted(
            self.topology.link_targets(src), key=lambda l: (l.switch, l.port)
        )
        if not targets:
            raise RuntimeInvariantError(f"LINK fired at {src} with no link")
        if len(targets) > 1:
            raise RuntimeInvariantError(
                f"port {src} has multiple outgoing links; the model assumes "
                "one link per port"
            )
        dst = targets[0]
        moved = packet.packet.at(dst)
        index = self.recorder.record(moved, dst)
        self.state.switch(dst.switch).enqueue_in(
            dst.port,
            RuntimePacket(moved, packet.tag, packet.digest, packet.trace_path + (index,)),
        )

    # -- OUT -----------------------------------------------------------------------

    def _step_out(self, location: Location) -> None:
        switch = self.state.switch(location.switch)
        packet = switch.out_queues[location.port].popleft()
        self.recorder.finish(packet.trace_path)
        self.state.delivered.append((location, packet))

    # -- controller ---------------------------------------------------------------

    def _step_ctrl_recv(self, event: Event) -> None:
        self.state.controller_queue.discard(event)
        self.state.controller.add(event)

    def _step_ctrl_send(self, switch_id: int) -> None:
        """Broadcast the controller's view to one switch (§4.1 optimization).

        The controller's events are merged in enabling order so the
        switch register stays a valid event-set.
        """
        switch = self.state.switch(switch_id)
        known = merge_in_enabling_order(
            self.compiled.nes.structure, switch.known_events, self.state.controller
        )
        self._require_event_set(frozenset(known), f"CTRLSEND to switch {switch_id}")
        switch.known_events = known

    # -- schedulers ----------------------------------------------------------------

    def run_until_quiescent(
        self, max_steps: int = 100_000, policy: str = "random"
    ) -> int:
        """Fire transitions until no packets remain in flight.

        ``policy`` is "random" (seeded uniform choice -- explores
        interleavings) or "fifo" (first enabled transition -- fast and
        deterministic).  Controller transitions are included when
        enabled.  Returns the number of steps taken.
        """
        taken = 0
        while taken < max_steps:
            if self.state.quiescent():
                break  # only controller work remains; drain_controller() if needed
            transitions = self.enabled_transitions()
            if not transitions:
                break
            if policy == "random":
                choice = self.random.choice(transitions)
            else:
                choice = transitions[0]
            self.apply(choice)
            taken += 1
        else:
            raise RuntimeInvariantError(
                f"execution did not quiesce within {max_steps} steps"
            )
        return taken

    def drain_controller(self) -> None:
        """Run all pending controller transitions (CTRLRECV + CTRLSEND)."""
        for _ in range(MAX_DRAIN_STEPS):
            transitions = [
                t
                for t in self.enabled_transitions()
                if t.rule in ("CTRLRECV", "CTRLSEND")
            ]
            if not transitions:
                return
            self.apply(transitions[0])
        raise RuntimeInvariantError("controller draining did not terminate")

    # -- trace extraction ------------------------------------------------------------

    def network_trace(self) -> NetworkTrace:
        """The network trace of the execution so far (pending packets
        contribute their partial paths)."""
        pending = []
        for switch in self.state.switches.values():
            for queue in list(switch.in_queues.values()) + list(
                switch.out_queues.values()
            ):
                for packet in queue:
                    pending.append(packet.trace_path)
        return self.recorder.network_trace(iter(pending))

    # -- invariants -------------------------------------------------------------------

    def _require_event_set(self, events: EventSet, context: str) -> None:
        try:
            self.compiled.nes.state_of(events)
        except KeyError as exc:
            raise RuntimeInvariantError(
                f"{context}: register {set(events)} is not an event-set "
                "of the NES"
            ) from exc
