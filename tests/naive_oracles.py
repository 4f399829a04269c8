"""Tests-only reference implementations.

The quadratic finite-completeness check and the brute-force
minimally-inconsistent-set enumeration, moved verbatim out of
``repro.events``: the differential oracles of
``test_finite_complete_property.py`` and ``test_locality_bitset.py``;
``ETS(p)`` by one Figure 5-6 walk per state, the reference the
symbolic engine of ``repro.stateful.symbolic`` is compared against;
an FDD builder with every cache of the compile path off;
Definition 2 on frozensets, the reference for ``NESChecker``'s masks;
and the pieces it is built from, each the reference for its fast
counterpart in ``repro.consistency.traces``: happens-before as a
frozenset transitive closure, per-position event masks by one
``Event.matches`` per event, and ``Traces(C)`` membership by
materialising ``Configuration.step``; and ``Figure7Logic``, the IN,
SWITCH, CTRLRECV and CTRLSEND rules of Figure 7 on frozenset registers,
the reference the simulator's ``CorrectLogic`` is compared against.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.consistency.checker import CorrectnessReport
from repro.consistency.traces import NetworkTrace
from repro.events.event import Event, EventSet
from repro.events.ets_to_nes import _sorted_masks
from repro.events.structure import EventStructure
from repro.netkat.ast import Policy
from repro.netkat.compiler import Configuration
from repro.netkat.fdd import FDD, FDDBuilder
from repro.netkat.packet import LocatedPacket, Location, Packet, PT
from repro.network.simulator import Frame, SimNetwork
from repro.network.switch_logic import (
    BASE_HEADER_BYTES,
    CONTROLLER_LATENCY,
    EVENT_NOTIFY_LATENCY,
    EXTRA_PROCESSING_DELAY,
)
from repro.runtime.compiler import CompiledNES
from repro.runtime.semantics import detect_events, merge_in_enabling_order
from repro.stateful.ast import StateVector, validate_state_references
from repro.stateful.ets import ETS
from repro.stateful.events import extract
from repro.stateful.projection import project


def build_ets_naive(program: Policy, initial: StateVector) -> ETS:
    """``build_ets``'s breadth-first search, with each reached state's
    edges from ``extract(program, state)`` and its configuration from
    ``project(program, state)`` instead of a symbolic instantiation."""
    validate_state_references(program, len(initial))
    visited = {initial}
    order = [initial]
    edges = set()
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for edge in sorted(extract(program, state).edges, key=attrgetter("dst")):
            if edge.dst == edge.src:
                continue  # identity transitions are omitted
            edges.add(edge)
            if edge.dst not in visited:
                visited.add(edge.dst)
                order.append(edge.dst)
                queue.append(edge.dst)
    vertices = tuple((state, project(program, state)) for state in order)
    return ETS(initial=initial, vertices=vertices, edges=frozenset(edges))


def check_finite_complete_naive(
    family: Dict[EventSet, StateVector]
) -> List[Tuple[EventSet, EventSet]]:
    """The retained quadratic reference for :func:`check_finite_complete`.

    Scans every pair of members globally and seeks an upper bound among
    the maximal elements per missing lub.  Kept as the differential
    oracle for the antichain-driven version.
    """
    sets, masks = _sorted_masks(family)
    mask_family = set(masks)
    maximal = [
        m
        for m in mask_family
        if not any(m != other and m | other == other for other in mask_family)
    ]
    violations: List[Tuple[EventSet, EventSet]] = []
    for i, m1 in enumerate(masks):
        for j in range(i + 1, len(masks)):
            lub = m1 | masks[j]
            if lub in mask_family:
                continue
            if any(lub | upper == upper for upper in maximal):
                violations.append((sets[i], sets[j]))
    return violations


def minimally_inconsistent_sets_naive(
    structure: EventStructure,
    max_size: Optional[int] = None,
) -> FrozenSet[EventSet]:
    """Reference brute force over all subsets (golden tests only).

    Enumerates subsets by increasing size, pruning supersets of sets
    already found (any strict superset of an inconsistent set is
    inconsistent but not minimal).  Exponential in the event count; the
    production path is :func:`minimally_inconsistent_sets`.
    """
    events = sorted(structure.events, key=repr)
    bound = max_size if max_size is not None else len(events)
    found: List[FrozenSet[Event]] = []
    for size in range(1, bound + 1):
        for combo in combinations(events, size):
            candidate = frozenset(combo)
            if any(m <= candidate for m in found):
                continue
            if not structure.con(candidate):
                found.append(candidate)
    return frozenset(found)


class _Forgetful(dict):
    """A memo that never remembers: every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


class ReferenceFDDBuilder(FDDBuilder):
    """:class:`FDDBuilder` with its compile-path caches off: the ITE is
    the original mask/union route (two guard FDDs, two applies and a
    union) instead of the ordered-insert walk, ``of_policy`` /
    ``of_predicate`` keep no id-keyed memo, and
    ``netkat.compiler.knowledge_fdd`` recompiles every knowledge
    predicate from a fresh AST.  Hash-consing and the operation memos
    stay: they make FDDs canonical, so both builders must produce the
    same diagrams."""

    def __init__(self) -> None:
        super().__init__()
        self._memo_mask: dict = {}
        self._memo_of_policy = _Forgetful()
        self._memo_of_predicate = _Forgetful()
        self.knowledge_fdds = _Forgetful()

    def mask(self, guard: FDD, d: FDD) -> FDD:
        """Behave as ``d`` where the predicate ``guard`` passes, drop
        elsewhere."""
        return self._apply(
            lambda g, a: a if g else frozenset(), self._memo_mask, guard, d
        )

    def ite_test(self, field: str, value: int, hi: FDD, lo: FDD) -> FDD:
        if hi is lo:
            return hi
        guard = self.branch(field, value, self.id, self.drop)
        n_guard = self.branch(field, value, self.drop, self.id)
        return self.union(self.mask(guard, hi), self.mask(n_guard, lo))


def reachable_naive(trace: NetworkTrace) -> Tuple[FrozenSet[int], ...]:
    """Happens-before (Definition 1) as a frozenset closure: entry ``i``
    holds every ``j`` with ``lp_i ≺ lp_j``."""
    n = len(trace.packets)
    successors: List[Set[int]] = [set() for _ in range(n)]
    # (a) total order per switch, in trace order.
    by_switch: Dict[int, List[int]] = {}
    for index, lp in enumerate(trace.packets):
        by_switch.setdefault(lp.location.switch, []).append(index)
    for indices in by_switch.values():
        for i in range(len(indices) - 1):
            successors[indices[i]].add(indices[i + 1])
    # (b) order within each packet trace.
    for t in trace.trace_indices:
        for i in range(len(t) - 1):
            successors[t[i]].add(t[i + 1])
    # Edges go from smaller to larger indices: one reverse sweep closes them.
    reachable: List[Set[int]] = [set() for _ in range(n)]
    for index in range(n - 1, -1, -1):
        acc: Set[int] = set()
        for nxt in successors[index]:
            acc.add(nxt)
            acc |= reachable[nxt]
        reachable[index] = acc
    return tuple(frozenset(r) for r in reachable)


def position_event_masks_naive(
    trace: NetworkTrace, universe: Sequence[Event]
) -> Tuple[int, ...]:
    """Per-position bitmask of matching events, one ``Event.matches``
    per (position, event)."""
    masks: List[int] = []
    for lp in trace.packets:
        mask = 0
        for index, event in enumerate(universe):
            if event.matches(lp):
                mask |= 1 << index
        masks.append(mask)
    return tuple(masks)


def packet_trace_in_traces_naive(
    config: Configuration, packet_trace: Sequence[LocatedPacket]
) -> bool:
    """``Traces(C)`` membership on the materialised successor sets: from a
    host port, each position in ``step`` of the one before, and maximal
    (delivered to a host, or ``step`` is empty at the end)."""
    if not packet_trace or config.topology.host_at(packet_trace[0].location) is None:
        return False
    for a, b in zip(packet_trace, packet_trace[1:]):
        if b not in config.step(a):
            return False
    last = packet_trace[-1]
    if len(packet_trace) > 1 and config.topology.host_at(last.location) is not None:
        return True
    return not config.step(last)


NO_FO = "FO(ntr, U) does not exist"


@dataclass(frozen=True)
class EventDrivenUpdate:
    """``(U, E)``: ``C0 -e0-> C1 ... -en-> Cn+1`` and the ambient events."""

    configurations: Tuple[Configuration, ...]
    events: Tuple[Event, ...]
    ambient_events: FrozenSet[Event]

    def __post_init__(self) -> None:
        if len(self.configurations) != len(self.events) + 1:
            raise ValueError("an update needs one more configuration than events")
        if not frozenset(self.events) <= self.ambient_events:
            raise ValueError("update events must be drawn from the ambient set E")

    @staticmethod
    def single(initial: Configuration, event: Event, final: Configuration):
        """``Ci -e-> Cf``, with ``{e}`` as its ambient set."""
        return EventDrivenUpdate((initial, final), (event,), frozenset((event,)))


def first_occurrences(
    trace: NetworkTrace, update: EventDrivenUpdate
) -> Optional[Tuple[int, ...]]:
    """``FO(ntr, U)``, or None when an event does not occur in order,
    its trigger was not processed by the preceding configuration, or an
    unfired ambient event occurs after the last one."""
    packets = trace.packets
    indices: List[int] = []
    previous = -1
    for config, event in zip(update.configurations, update.events):
        later = [j for j in range(previous + 1, len(packets))
                 if event.matches(packets[j])]
        if not later or not any(
            packet_trace_in_traces_naive(config, trace.packet_trace(t))
            for t in trace.traces_through(later[0])
        ):
            return None
        previous = later[0]
        indices.append(previous)
    unfired = update.ambient_events - frozenset(update.events)
    if any(e.matches(lp) for lp in packets[previous + 1:] for e in unfired):
        return None
    return tuple(indices)


def check_update_correctness(
    trace: NetworkTrace, update: EventDrivenUpdate
) -> CorrectnessReport:
    """Definition 2: is ``trace`` correct with respect to ``update``?"""
    fo = first_occurrences(trace, update)
    if fo is None:
        return CorrectnessReport(False, NO_FO)
    reachable = reachable_naive(trace)
    last = len(update.configurations) - 1
    for t in sorted(trace.trace_indices):
        processed_by = [
            idx
            for idx, config in enumerate(update.configurations)
            if packet_trace_in_traces_naive(config, trace.packet_trace(t))
        ]
        if not processed_by:
            return CorrectnessReport(
                False,
                "packet trace is in Traces(C) for no configuration of the chain",
                t,
            )
        for i, ki in enumerate(fo):
            where = (f"event {i} (position {ki}) "
                     f"but is only in configurations {processed_by}")
            if all(ki in reachable[j] for j in t) and min(processed_by) > i:
                return CorrectnessReport(
                    False,
                    f"packet trace precedes {where}; "
                    f"expected one of C_0..C_{i} (update happened too early)",
                    t,
                )
            if reachable[ki].issuperset(t) and max(processed_by) <= i:
                return CorrectnessReport(
                    False,
                    f"packet trace follows {where}; "
                    f"expected one of C_{i + 1}..C_{last} (update happened too late)",
                    t,
                )
    return CorrectnessReport(True)


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
