"""The static reference switch: one fixed configuration, no tags.

This models the unmodified OpenFlow 1.0 reference switch used as the
bandwidth baseline in Figure 16(a): packets carry no tag or digest
overhead and switches do no event bookkeeping.  The controller-driven
baselines share :func:`untagged_frame`, their IN rule, and
:func:`punt_events`, their controller's half.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..netkat.compiler import Configuration
from ..netkat.packet import Location, Packet, PT
from ..network.simulator import Frame, SimNetwork
# The correct logic's own constants, so comparisons are fair.
from ..network.switch_logic import BASE_HEADER_BYTES, EVENT_NOTIFY_LATENCY
from ..stateful.ast import StateVector

__all__ = ["ReferenceLogic", "BASE_HEADER_BYTES"]


def punt_events(
    logic,
    net: SimNetwork,
    location: Location,
    frame: Frame,
    on_transition: Callable[[SimNetwork, StateVector], None],
) -> None:
    """Report the first event ``frame`` matches at ``location`` to the
    controller (the switch itself keeps no event state).

    After ``EVENT_NOTIFY_LATENCY`` the controller renames the
    event to its next occurrence and, when that is an enabled transition
    of ``logic.compiled.nes``, adds it to ``logic.controller_events``,
    moves ``logic.controller_state`` and calls ``on_transition`` with
    the new state; any other report is ignored.
    """
    nes = logic.compiled.nes
    for event in sorted(nes.events, key=repr):
        if event.base().matches_packet(frame.packet, location):
            base_event = event.base()
            break
    else:
        return

    def receive() -> None:
        seen = logic.controller_events
        occurrence = sum(1 for e in seen if e.base() == base_event)
        renamed = base_event.renamed(occurrence)
        try:
            new_state = nes.state_of(frozenset(seen) | {renamed})
        except KeyError:
            return
        if not nes.enables(frozenset(seen), renamed):
            return
        seen.add(renamed)
        logic.controller_state = new_state
        on_transition(net, new_state)

    net.sim.schedule(EVENT_NOTIFY_LATENCY, receive)


def untagged_frame(
    location: Location, packet: Packet, payload_bytes: int, flow: Tuple,
    ident: int, now: float,
) -> Frame:
    """The IN rule of a switch that stamps nothing: the frame a host
    emits, located at its edge port, with no tag and no digest."""
    return Frame(
        packet.at(location), payload_bytes, flow=flow, ident=ident, injected_at=now
    )


class ReferenceLogic:
    """Plain static forwarding with a fixed configuration."""

    def __init__(self, configuration: Configuration):
        self.configuration = configuration

    def header_bytes(self, frame: Frame) -> int:
        return BASE_HEADER_BYTES

    ingress_frame = staticmethod(untagged_frame)

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        table = self.configuration.table(location.switch)
        outputs = table.apply(frame.packet.at(location))
        return [
            (out_packet[PT], frame.replace(packet=out_packet))
            for out_packet in sorted(outputs, key=repr)
        ]
