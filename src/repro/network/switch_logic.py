"""The correct (tag-and-digest) switch logic for the simulator.

This is the timed counterpart of the rules of Figure 7 -- IN, SWITCH,
CTRLRECV and CTRLSEND -- embedded in the discrete-event world:
per-switch event registers, ingress stamping, digest gossip, optional
controller assistance (CTRLSEND broadcasts after
:data:`CONTROLLER_LATENCY`), and measurable header overhead for the tag
and digest fields (Figure 16a's ~6% bandwidth cost).

:class:`CorrectLogic` runs every rule on interned event bitmasks, off the
artifact the daemon serves: registers and the controller's view are
ints, the frame's masks are read and written as they are, and one
descent of the switch's guarded table (:meth:`CompiledNES.classify
<repro.runtime.compiler.CompiledNES.classify>`, published to the
simulator as ``classify``) yields both the rule to forward by and the
mask of events the packet matches, which ``enables_mask``/``con_mask``
then detect from.  Nothing is remembered between packets here; the
decision trees live on the ``CompiledNES`` and the emission plans in the
simulator.  The frozenset reference it is compared against,
``Figure7Logic``, lives in ``tests/naive_oracles.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..netkat.packet import Location, Packet
from ..runtime.compiler import CompiledNES
from .simulator import Frame, SimNetwork

__all__ = ["CorrectLogic", "BASE_HEADER_BYTES"]

# A plausible L2+L3+L4 header for an untagged packet (Ethernet + IPv4 +
# TCP).  The baselines import this one definition, so the Fig. 16a
# overhead comparisons are apples to apples.
BASE_HEADER_BYTES = 54

# Seconds from a switch detecting an event to the controller hearing of
# it; the controller-driven baselines punt with the same delay.
EVENT_NOTIFY_LATENCY = 0.01
# Seconds from the controller hearing of an event to its CTRLSEND
# broadcast (controller assistance only).
CONTROLLER_LATENCY = 0.05
# Per-packet cost of the guard/stamp/learn pipeline relative to plain
# forwarding (Figure 16a; ~6 microseconds approximates the paper's
# modified OpenFlow reference switch).
EXTRA_PROCESSING_DELAY = 6e-6


class CorrectLogic:
    """Tag-based forwarding with event detection, digest gossip and
    controller assistance, on interned event bitmasks."""

    # Read by the simulator as the per-hop processing cost.
    extra_processing_delay = EXTRA_PROCESSING_DELAY

    def __init__(self, compiled: CompiledNES, controller_assist: bool = False):
        self.compiled = compiled
        self.controller_assist = controller_assist
        structure = compiled.nes.structure
        self._structure = structure
        self._universe = structure.universe
        switches = compiled.topology.switches
        # Tag (one config id) + digest (one bit per event), rounded up to
        # whole bytes -- the "single unused header field" of section 4.1.
        n_events = max(1, len(compiled.nes.events))
        n_states = max(2, len(compiled.states))
        self.tag_bytes = max(1, math.ceil(math.log2(n_states) / 8))
        self.digest_bytes = max(1, math.ceil(n_events / 8))
        # classify/last_plan/plan_generations/header_overhead are the
        # simulator's plan-cache protocol (see simulator._Plan).
        self.header_overhead = BASE_HEADER_BYTES + self.tag_bytes + self.digest_bytes
        self.classify = compiled.classify
        self.last_plan: Optional[Tuple] = None
        self.plan_generations: Dict[int, int] = {n: 0 for n in switches}
        self._register_masks: Dict[int, int] = {n: 0 for n in switches}
        # The events the controller has heard of (CTRLRECV).
        self._controller_mask = 0

    def header_bytes(self, frame: Frame) -> int:
        return self.header_overhead

    def ingress_frame(
        self, location: Location, packet: Packet, payload_bytes: int, flow: Tuple,
        ident: int, now: float,
    ) -> Frame:
        """The IN rule: stamp the local register mask."""
        swpt = packet._swpt
        if swpt[0] != location.switch or swpt[1] != location.port:
            packet = packet.at(location)
        stamped = Frame.__new__(Frame)
        stamped.packet = packet
        stamped.payload_bytes = payload_bytes
        stamped.flow = flow
        stamped.ident = ident
        stamped.injected_at = now
        stamped.tag_mask = self._register_masks[location.switch]
        stamped.digest_mask = 0
        stamped.structure = self._structure
        return stamped

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        """The SWITCH rule on interned bitmasks (no per-packet frozensets)."""
        switch_id = location.switch
        structure = self._structure
        packet = frame.packet.at(location)
        tag_mask = frame.tag_mask
        digest_mask = frame.digest_mask
        register_mask = self._register_masks[switch_id]
        combined = register_mask | digest_mask
        # One descent of the guarded table: the rule to forward by and
        # the events this packet matches.
        leaf = self.classify(switch_id, tag_mask, packet)

        # Detection in bit order == sorted-by-repr order (the universe is
        # interned sorted by repr), exactly as semantics.detect_events.
        detected_mask = 0
        free = leaf.events & ~combined
        if free:
            acc = combined
            while free:
                low = free & -free
                free ^= low
                if structure.enables_mask(
                    combined, low.bit_length() - 1
                ) and structure.con_mask(acc | low):
                    detected_mask |= low
                    acc |= low

        new_known = combined | detected_mask
        if new_known != register_mask:
            self._learn(net, switch_id, new_known)
        scan = detected_mask
        while scan:
            low = scan & -scan
            scan ^= low
            self._notify_controller(net, low)

        # Side-effect-free run with outputs in a fixed order: offer the
        # outcome to the simulator's emission-plan cache (valid until
        # this switch's generation bumps on a register write).
        if leaf.ordered and new_known == register_mask:
            self.last_plan = (leaf, tag_mask, digest_mask)
        if tag_mask is None:
            tag_mask = 0
        payload_bytes = frame.payload_bytes
        flow = frame.flow
        ident = frame.ident
        injected_at = frame.injected_at
        results: List[Tuple[int, Frame]] = []
        for out_packet in leaf.outputs(packet):
            out = Frame.__new__(Frame)
            out.packet = out_packet
            out.payload_bytes = payload_bytes
            out.flow = flow
            out.ident = ident
            out.injected_at = injected_at
            out.tag_mask = tag_mask
            out.digest_mask = new_known
            out.structure = structure
            results.append((out_packet._swpt[1], out))
        return results

    def _learn(self, net: SimNetwork, switch_id: int, known: int) -> None:
        """Grow ``switch_id``'s register to ``known``: the one register
        write, so it invalidates the switch's plans and reports each new
        event to the network."""
        fresh = known & ~self._register_masks[switch_id]
        self._register_masks[switch_id] = known
        self.plan_generations[switch_id] += 1
        universe = self._universe
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            net.note_event_learned(switch_id, universe[low.bit_length() - 1])

    # -- controller ---------------------------------------------------------------

    def _notify_controller(self, net: SimNetwork, event_bit: int) -> None:
        """CTRLRECV: the controller hears of the event after
        :data:`EVENT_NOTIFY_LATENCY`."""

        def receive() -> None:
            self._controller_mask |= event_bit
            if self.controller_assist:
                net.sim.schedule(CONTROLLER_LATENCY, lambda: self._broadcast(net))

        net.sim.schedule(EVENT_NOTIFY_LATENCY, receive)

    def _broadcast(self, net: SimNetwork) -> None:
        """CTRLSEND to every switch: merge the controller's events into
        each register in enabling order, to a fixpoint (the bit order is
        the universe's repr order, as in the frozenset merge), so every
        register stays a valid event-set."""
        structure = self._structure
        incoming = self._controller_mask
        for switch_id, register in self._register_masks.items():
            known = register
            remaining = incoming & ~known
            progress = True
            while progress and remaining:
                progress = False
                scan = remaining
                while scan:
                    low = scan & -scan
                    scan ^= low
                    if structure.enables_mask(
                        known, low.bit_length() - 1
                    ) and structure.con_mask(known | low):
                        known |= low
                        remaining ^= low
                        progress = True
            if known != register:
                self._learn(net, switch_id, known)
