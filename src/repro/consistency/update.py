"""Event-driven consistent updates and their correctness (Definition 2).

An update is a sequence ``C0 -e0-> C1 -e1-> ... -en-> Cn+1`` together
with the ambient event set ``E``.  A network trace is correct with
respect to the update when the *first-occurrence* positions of the
events exist (``FO``), every packet trace is processed entirely by one
configuration of the chain, packets wholly before event ``ei`` use a
preceding configuration, and packets wholly after it use a following
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..events.event import Event
from ..netkat.compiler import Configuration
from .traces import HappensBefore, NetworkTrace, packet_trace_in_traces

__all__ = [
    "EventDrivenUpdate",
    "first_occurrences",
    "CorrectnessReport",
    "check_update_correctness",
]


@dataclass(frozen=True)
class EventDrivenUpdate:
    """``(U, E)``: a chain of configurations joined by triggering events.

    ``configurations`` has one more element than ``events``:
    ``C0 -e0-> C1 -e1-> ... -en-> Cn+1``.
    """

    configurations: Tuple[Configuration, ...]
    events: Tuple[Event, ...]
    ambient_events: FrozenSet[Event]

    def __post_init__(self) -> None:
        if len(self.configurations) != len(self.events) + 1:
            raise ValueError(
                "an update needs exactly one more configuration than events"
            )
        if not frozenset(self.events) <= self.ambient_events:
            raise ValueError("update events must be drawn from the ambient set E")

    @staticmethod
    def single(
        initial: Configuration, event: Event, final: Configuration
    ) -> "EventDrivenUpdate":
        """The one-step update ``Ci -e-> Cf`` of the introduction, with
        ``{e}`` as its ambient set."""
        return EventDrivenUpdate((initial, final), (event,), frozenset((event,)))


def first_occurrences(
    trace: NetworkTrace,
    update: EventDrivenUpdate,
    *,
    position_masks: Optional[Sequence[int]] = None,
    event_bits: Optional[Sequence[int]] = None,
    ambient_mask: int = 0,
    membership: Optional[Callable] = None,
) -> Optional[Tuple[int, ...]]:
    """``FO(ntr, U)``: the first-occurrence index of each update event.

    Returns None when the sequence does not exist: an event never occurs
    in order, a between-gap contains a stray occurrence of the next
    event, some position after the last event matches an ambient event,
    or the triggering packet was not processed by the immediately
    preceding configuration.

    The mask-threaded checker passes per-position match masks
    (``position_masks``, bit ``i`` set iff event ``i`` matches that
    position), the per-step event bits, and the ambient-set mask, so the
    occurrence scans are single int tests; ``membership(config, trace,
    t)`` replaces :func:`packet_trace_in_traces` so the checker can
    memoize membership across candidate sequences.  Results are
    identical to the default (frozenset) path.
    """
    use_masks = position_masks is not None and event_bits is not None
    n = len(trace.packets)
    indices: List[int] = []
    previous = -1
    for step, event in enumerate(update.events):
        found: Optional[int] = None
        if use_masks:
            bit = event_bits[step]
            for j in range(previous + 1, n):
                if position_masks[j] & bit:
                    found = j
                    break
        else:
            for j in range(previous + 1, n):
                if event.matches(trace.packets[j]):
                    found = j
                    break
        if found is None:
            return None
        # The event can be triggered only by a packet processed in the
        # immediately preceding configuration C_step.
        config = update.configurations[step]
        if membership is not None:
            if not any(membership(config, trace, t) for t in trace.traces_through(found)):
                return None
        elif not any(
            packet_trace_in_traces(config, trace.packet_trace(t))
            for t in trace.traces_through(found)
        ):
            return None
        indices.append(found)
        previous = found
    # No *unfired* event may occur after the final first-occurrence.
    # Packets re-matching an event already in the update's sequence do
    # not re-trigger it (the firewall's second outgoing packet matches
    # the same pattern but the transition already happened), so only
    # ambient events absent from the sequence invalidate FO.  Renamed
    # copies are distinct events here: a packet matching the *next*
    # occurrence of a chain event forces the Definition 6 search onto
    # the longer sequence that includes it.
    if use_masks:
        fired_mask = 0
        for bit in event_bits:
            fired_mask |= bit
        remaining_mask = ambient_mask & ~fired_mask
        for j in range(previous + 1, n):
            if position_masks[j] & remaining_mask:
                return None
        return tuple(indices)
    fired = frozenset(update.events)
    remaining = update.ambient_events - fired
    for j in range(previous + 1, n):
        if any(e.matches(trace.packets[j]) for e in remaining):
            return None
    return tuple(indices)


@dataclass(frozen=True)
class CorrectnessReport:
    """Outcome of a Definition 2 check, with the first violation found."""

    correct: bool
    reason: str = ""
    violating_trace: Optional[Tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.correct


def check_update_correctness(
    trace: NetworkTrace,
    update: EventDrivenUpdate,
    *,
    happens_before: Optional[HappensBefore] = None,
    position_masks: Optional[Sequence[int]] = None,
    event_bits: Optional[Sequence[int]] = None,
    ambient_mask: int = 0,
    membership: Optional[Callable] = None,
) -> CorrectnessReport:
    """Definition 2: is ``trace`` correct with respect to ``update``?

    The keyword arguments are the mask-threaded checker's hoists (see
    :func:`first_occurrences`); ``happens_before`` may be precomputed
    once per trace since it does not depend on the update.  All are
    optional and behaviour-preserving.
    """
    fo = first_occurrences(
        trace,
        update,
        position_masks=position_masks,
        event_bits=event_bits,
        ambient_mask=ambient_mask,
        membership=membership,
    )
    if fo is None:
        return CorrectnessReport(False, "FO(ntr, U) does not exist")

    if happens_before is None:
        happens_before = trace.happens_before()
    chain = update.configurations

    for t in sorted(trace.trace_indices):
        if membership is not None:
            processed_by = [
                idx
                for idx, config in enumerate(chain)
                if membership(config, trace, t)
            ]
        else:
            packet_trace = trace.packet_trace(t)
            processed_by = [
                idx
                for idx, config in enumerate(chain)
                if packet_trace_in_traces(config, packet_trace)
            ]
        if not processed_by:
            return CorrectnessReport(
                False,
                "packet trace is in Traces(C) for no configuration of the chain",
                t,
            )
        for i, ki in enumerate(fo):
            if happens_before.all_before(t, ki):
                # Entirely before event e_i: must use C_0..C_i.
                if not any(idx <= i for idx in processed_by):
                    return CorrectnessReport(
                        False,
                        f"packet trace precedes event {i} (position {ki}) "
                        f"but is only in configurations {processed_by}; "
                        f"expected one of C_0..C_{i} (update happened too early)",
                        t,
                    )
            if happens_before.all_after(ki, t):
                # Entirely after event e_i: must use C_{i+1}..C_{n+1}.
                if not any(idx >= i + 1 for idx in processed_by):
                    return CorrectnessReport(
                        False,
                        f"packet trace follows event {i} (position {ki}) "
                        f"but is only in configurations {processed_by}; "
                        f"expected one of C_{i + 1}..C_{len(chain) - 1} "
                        "(update happened too late)",
                        t,
                    )
    return CorrectnessReport(True)
