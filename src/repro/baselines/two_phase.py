"""Two-phase per-packet consistent updates (Reitblatt et al. [33]).

The classic *consistent update*: every packet is processed entirely by
one configuration (version).  Packets are stamped with a version number
at ingress; both versions' rules are installed (guarded by version);
the controller flips the ingress stamping to the new version once the
internal rules are ready.

This baseline is deliberately *stronger* than the uncoordinated one --
no packet ever sees a mixed configuration -- and still fails the
paper's applications: per-packet consistency says nothing about *when*
the flip happens relative to the triggering event, so the stateful
firewall drops replies that arrive between the event and the (round
trip delayed) version flip.  That gap is exactly what event-driven
consistent updates close (sections 1-2 of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..events.event import Event
from ..netkat.packet import Location, Packet, PT
from ..runtime.compiler import CompiledNES
from ..network.simulator import Frame, SimNetwork
from ..stateful.ast import StateVector
from .reference import BASE_HEADER_BYTES, punt_events, untagged_frame

__all__ = ["TwoPhaseLogic", "VERSION_FIELD"]

# The version stamp travels in a dedicated header field (one VLAN-style
# tag, exactly as in the consistent-updates paper).
VERSION_FIELD = "version"

# Seconds between two consecutive ingress flips of one update.
FLIP_GAP = 0.01


class TwoPhaseLogic:
    """Versioned forwarding with controller-driven version flips.

    All configurations are pre-installed (version-guarded); an event
    notification makes the controller advance its ETS copy and -- after
    ``flip_delay`` -- flip every ingress switch's stamping version, one
    switch at a time.
    """

    def __init__(self, compiled: CompiledNES, flip_delay: float = 0.5):
        self.compiled = compiled
        self.flip_delay = flip_delay
        initial = compiled.nes.initial_state
        self.initial_version = compiled.config_ids[initial]
        # Per-switch ingress stamping version (phase-one state).
        self.stamp_version: Dict[int, int] = {
            switch: self.initial_version for switch in compiled.topology.switches
        }
        self.controller_events: Set[Event] = set()
        self.controller_state: StateVector = initial
        self.flips_completed_at: Optional[float] = None

    # -- SwitchLogic interface ---------------------------------------------------

    def header_bytes(self, frame: Frame) -> int:
        return BASE_HEADER_BYTES + 1  # the version tag

    def ingress_frame(
        self, location: Location, packet: Packet, payload_bytes: int, flow: Tuple,
        ident: int, now: float,
    ) -> Frame:
        version = self.stamp_version[location.switch]
        packet = packet.set(VERSION_FIELD, version)
        return untagged_frame(location, packet, payload_bytes, flow, ident, now)

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        # Event detection is punted to the controller, as in the
        # uncoordinated baseline (versioning adds consistency, not
        # event-locality).
        punt_events(self, net, location, frame, self._schedule_flips)

        version = frame.packet.get(VERSION_FIELD, self.initial_version)
        state = self._state_of_version(version)
        config = self.compiled.config_for_state(state)
        # The version field is metadata: forwarding rules never test it,
        # so strip it for the lookup and restore it on outputs.
        lookup_packet = frame.packet.without(VERSION_FIELD).at(location)
        outputs = config.table(location.switch).apply(lookup_packet)
        return [
            (
                out_packet[PT],
                frame.replace(packet=out_packet.set(VERSION_FIELD, version)),
            )
            for out_packet in sorted(outputs, key=repr)
        ]

    def _state_of_version(self, version: int) -> StateVector:
        for state, config_id in self.compiled.config_ids.items():
            if config_id == version:
                return state
        return self.compiled.nes.initial_state

    # -- controller --------------------------------------------------------------

    def _schedule_flips(self, net: SimNetwork, state: StateVector) -> None:
        """Phase two: flip ingress stamping to the new version."""
        version = self.compiled.config_ids[state]
        switches = sorted(self.compiled.topology.switches)
        net.sim.random.shuffle(switches)
        remaining = len(switches)

        for i, switch_id in enumerate(switches):

            def flip(sw: int = switch_id) -> None:
                nonlocal remaining
                # A later update may have superseded this one; only move
                # the version forward.
                if self.stamp_version[sw] < version:
                    self.stamp_version[sw] = version
                remaining -= 1
                if remaining == 0:
                    self.flips_completed_at = net.sim.now

            net.sim.schedule(self.flip_delay + i * FLIP_GAP, flip)
