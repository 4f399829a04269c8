"""The correct (tag-and-digest) switch logic for the simulator.

This is the timed counterpart of the SWITCH/IN rules of Figure 7,
embedded in the discrete-event world: per-switch event registers,
ingress stamping, digest gossip, optional controller assistance
(CTRLSEND broadcasts after :data:`CONTROLLER_LATENCY`), and measurable
header overhead for the tag and digest fields (Figure 16a's ~6%
bandwidth cost).

:class:`Figure7Logic` is the rule as the figure writes it: frozenset
registers, tags and digests, detection and the CTRLSEND merge taken from
:mod:`repro.runtime.semantics`, forwarding by ``tag -> Configuration ->
table.apply``.  Frames carry their tag and digest as interned bitmasks
only, so it decodes a frame's masks on entry and encodes them on exit.
It keeps no memo and publishes none of the simulator's plan-cache
protocol, and is the reference that ``tests/test_sim_streaming.py``
compares records against.  :class:`CorrectLogic` is the same rule on
interned event bitmasks, run off the artifact the daemon serves:
registers are ints, the frame's masks are read and written as they
are, and one descent of the switch's guarded table (:meth:`CompiledNES.classify
<repro.runtime.compiler.CompiledNES.classify>`, published to the
simulator as ``classify``) yields both the rule to forward by and the
mask of events the packet matches, which ``enables_mask``/``con_mask``
then detect from.  Nothing is remembered between packets here; the
decision trees live on the ``CompiledNES`` and the emission plans in the
simulator.  Its ``registers`` attribute is a mapping of set-like views
backed by the masks, so code (and tests) that mutate
``logic.registers[sw]`` sees and drives the same state.
"""

from __future__ import annotations

import math
from collections.abc import MutableSet
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..events.event import Event, EventSet
from ..netkat.packet import Location, Packet, PT
from ..runtime.compiler import CompiledNES
from ..runtime.semantics import detect_events, merge_in_enabling_order
from .simulator import Frame, SimNetwork

__all__ = ["CorrectLogic", "Figure7Logic", "BASE_HEADER_BYTES"]

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


class _MaskRegister(MutableSet):
    """A set-like view of one switch's register bitmask.

    The mask dict is the single source of truth (shared with the hot
    path); every set operation reads or rewrites the int, so external
    mutation (``logic.registers[sw].add(event)``) is visible to masked
    processing and vice versa.
    """

    __slots__ = ("_masks", "_switch", "_structure", "_generations")

    def __init__(self, masks: Dict[int, int], switch: int, structure, generations):
        self._masks = masks
        self._switch = switch
        self._structure = structure
        # Shared plan-generation counters: any register mutation must
        # invalidate the simulator's cached emission plans.
        self._generations = generations

    # Set operators on views return plain sets, not registers.
    @classmethod
    def _from_iterable(cls, iterable) -> Set[Event]:
        return set(iterable)

    @property
    def mask(self) -> int:
        return self._masks[self._switch]

    def __contains__(self, event: object) -> bool:
        index = self._structure.event_index.get(event)
        return index is not None and bool(self._masks[self._switch] >> index & 1)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._structure.decode(self._masks[self._switch]))

    def __len__(self) -> int:
        return self._masks[self._switch].bit_count()

    def add(self, event: Event) -> None:
        index = self._structure.event_index.get(event)
        if index is None:
            raise KeyError(f"{event!r} is not an event of this structure")
        self._masks[self._switch] |= 1 << index
        self._generations[self._switch] += 1

    def discard(self, event: Event) -> None:
        index = self._structure.event_index.get(event)
        if index is not None:
            self._masks[self._switch] &= ~(1 << index)
            self._generations[self._switch] += 1

    def clear(self) -> None:
        self._masks[self._switch] = 0
        self._generations[self._switch] += 1

    def update(self, events) -> None:
        for event in events:
            self.add(event)

    def __repr__(self) -> str:
        return repr(set(self))


class Figure7Logic:
    """The SWITCH/IN/CTRLSEND rules of Figure 7 on frozensets."""

    # Read by the simulator as the per-hop processing cost.
    extra_processing_delay = EXTRA_PROCESSING_DELAY

    def __init__(self, compiled: CompiledNES, controller_assist: bool = False):
        self.compiled = compiled
        self.controller_assist = controller_assist
        self.registers: Dict[int, Set[Event]] = {
            n: set() for n in compiled.topology.switches
        }
        self.controller_view: Set[Event] = set()
        # Tag (one config id) + digest (one bit per event), rounded up to
        # whole bytes -- the "single unused header field" of section 4.1.
        n_events = max(1, len(compiled.nes.events))
        n_states = max(2, len(compiled.states))
        self.tag_bytes = max(1, math.ceil(math.log2(n_states) / 8))
        self.digest_bytes = max(1, math.ceil(n_events / 8))

    # -- SwitchLogic interface -------------------------------------------------

    def header_bytes(self, frame: Frame) -> int:
        return BASE_HEADER_BYTES + self.tag_bytes + self.digest_bytes

    def ingress_frame(
        self, location: Location, packet: Packet, payload_bytes: int, flow: Tuple,
        ident: int, now: float,
    ) -> Frame:
        """The IN rule: stamp the tag of the local event-set."""
        structure = self.compiled.nes.structure
        return Frame(
            packet.at(location),
            payload_bytes,
            flow=flow,
            ident=ident,
            injected_at=now,
            tag_mask=structure.encode(self.registers[location.switch]),
            structure=structure,
        )

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        """The SWITCH rule: learn, detect, forward by the packet's tag."""
        structure = self.compiled.nes.structure
        switch_id = location.switch
        register = self.registers[switch_id]
        combined = frozenset(register) | frame.digest
        detected = detect_events(self.compiled.nes, combined, frame.packet, location)
        new_known = combined | frozenset(detected)
        register.update(new_known)
        for event in new_known:
            net.note_event_learned(switch_id, event)
        for event in detected:
            self._notify_controller(net, event)

        tag = frame.tag or frozenset()
        table = self.compiled.config_for_event_set(tag).table(switch_id)
        outputs = sorted(table.apply(frame.packet.at(location)), key=repr)
        tag_mask = structure.encode(tag)
        digest_mask = structure.encode(new_known)
        return [
            (
                out[PT],
                frame.replace(
                    packet=out,
                    tag_mask=tag_mask,
                    digest_mask=digest_mask,
                    structure=structure,
                ),
            )
            for out in outputs
        ]

    # -- controller ---------------------------------------------------------------

    def _notify_controller(self, net: SimNetwork, event: Event) -> None:
        def receive() -> None:
            self.controller_view.add(event)
            if self.controller_assist:
                net.sim.schedule(CONTROLLER_LATENCY, lambda: self._broadcast(net))

        net.sim.schedule(EVENT_NOTIFY_LATENCY, receive)

    def _broadcast(self, net: SimNetwork) -> None:
        """CTRLSEND to every switch, merging in enabling order."""
        structure = self.compiled.nes.structure
        for switch_id, register in self.registers.items():
            known = merge_in_enabling_order(structure, register, self.controller_view)
            if known != register:
                register.update(known)
                for event in known:
                    net.note_event_learned(switch_id, event)


class CorrectLogic(Figure7Logic):
    """Tag-based forwarding with event detection and digest gossip, on
    interned event bitmasks."""

    def __init__(self, compiled: CompiledNES, controller_assist: bool = False):
        super().__init__(compiled, controller_assist)
        structure = compiled.nes.structure
        self._structure = structure
        self._universe = structure.universe
        switches = compiled.topology.switches
        # classify/last_plan/plan_generations/header_overhead are the
        # simulator's plan-cache protocol (see simulator._Plan).
        self.classify = compiled.classify
        self.last_plan: Optional[Tuple] = None
        self.plan_generations: Dict[int, int] = {n: 0 for n in switches}
        self._register_masks: Dict[int, int] = {n: 0 for n in switches}
        self.registers = {
            n: _MaskRegister(self._register_masks, n, structure, self.plan_generations)
            for n in switches
        }
        # Events already reported to net.note_event_learned per switch
        # (only never-before-noted bits are decoded).
        self._noted_masks: Dict[int, int] = {n: 0 for n in switches}
        # header_bytes is frame-independent; publishing the constant
        # lets the simulator's plan replay skip the per-frame call.
        self.header_overhead = BASE_HEADER_BYTES + self.tag_bytes + self.digest_bytes

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
        register_masks = self._register_masks
        register_mask = register_masks[switch_id]
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
            register_masks[switch_id] = new_known
            self.plan_generations[switch_id] += 1
        noted = self._noted_masks[switch_id]
        fresh = new_known & ~noted
        if fresh:
            self._noted_masks[switch_id] = noted | fresh
            self.plan_generations[switch_id] += 1
            universe = self._universe
            scan = fresh
            while scan:
                low = scan & -scan
                scan ^= low
                net.note_event_learned(switch_id, universe[low.bit_length() - 1])
        if detected_mask:
            universe = self._universe
            scan = detected_mask
            while scan:
                low = scan & -scan
                scan ^= low
                self._notify_controller(net, universe[low.bit_length() - 1])

        # Side-effect-free run with outputs in a fixed order: offer the
        # outcome to the simulator's emission-plan cache (valid until
        # this switch's generation bumps on any register/noted mutation).
        if (
            leaf.ordered
            and detected_mask == 0
            and fresh == 0
            and new_known == register_mask
        ):
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
