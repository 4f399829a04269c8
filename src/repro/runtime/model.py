"""Runtime state: the ``(Q, R, S)`` triple of Figure 7.

Each switch is ``(n, qm_in, E, qm_out)``: an ID, input/output queue maps
(port -> packet queue), and the local event-set register ``E`` -- the
switch's view of which events have occurred.  Packets in flight carry
two pieces of metadata invisible to user policies:

- ``tag``: the event-set stamped at ingress; its ``g``-image is the
  configuration (``pkt.C``) that must process the packet for its whole
  lifetime (per-packet consistency), and
- ``digest``: the set of events the packet has heard about, used to
  gossip event occurrences between switches (the happens-before wire
  protocol).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterator, List, Set, Tuple

from ..events.event import Event, EventSet
from ..netkat.packet import LocatedPacket, Location, Packet

__all__ = ["RuntimePacket", "SwitchState", "NetworkState", "TraceRecorder"]


@dataclass(frozen=True)
class RuntimePacket:
    """A packet in flight: payload + tag + digest + trace bookkeeping.

    ``trace_path`` records the indices of this packet's positions in the
    network trace being built (see :class:`TraceRecorder`); it threads
    the tree structure of multicast copies through the execution.
    """

    packet: Packet
    tag: EventSet
    digest: EventSet = frozenset()
    trace_path: Tuple[int, ...] = ()


class SwitchState:
    """One switch: ``(n, qm_in, E, qm_out)``."""

    def __init__(self, switch_id: int):
        self.switch_id = switch_id
        self.in_queues: Dict[int, Deque[RuntimePacket]] = {}
        self.out_queues: Dict[int, Deque[RuntimePacket]] = {}
        self.known_events: Set[Event] = set()

    def enqueue_in(self, port: int, packet: RuntimePacket) -> None:
        self.in_queues.setdefault(port, deque()).append(packet)

    def enqueue_out(self, port: int, packet: RuntimePacket) -> None:
        self.out_queues.setdefault(port, deque()).append(packet)

    def ports_with_input(self) -> List[int]:
        return sorted(p for p, q in self.in_queues.items() if q)

    def ports_with_output(self) -> List[int]:
        return sorted(p for p, q in self.out_queues.items() if q)

    def pending_packets(self) -> int:
        return sum(len(q) for q in self.in_queues.values()) + sum(
            len(q) for q in self.out_queues.values()
        )

    def __repr__(self) -> str:
        return (
            f"Switch({self.switch_id}, E={sorted(map(repr, self.known_events))}, "
            f"in={{{', '.join(f'{p}:{len(q)}' for p, q in self.in_queues.items() if q)}}}, "
            f"out={{{', '.join(f'{p}:{len(q)}' for p, q in self.out_queues.items() if q)}}})"
        )


class NetworkState:
    """The global state ``(Q, R, S)``."""

    def __init__(self, switch_ids: Iterator[int] | List[int] | FrozenSet[int]):
        self.controller_queue: Set[Event] = set()  # Q
        self.controller: Set[Event] = set()  # R
        self.switches: Dict[int, SwitchState] = {
            n: SwitchState(n) for n in sorted(switch_ids)
        }
        self.delivered: List[Tuple[Location, RuntimePacket]] = []
        self.dropped: List[Tuple[Location, RuntimePacket]] = []

    def switch(self, switch_id: int) -> SwitchState:
        return self.switches[switch_id]

    def quiescent(self) -> bool:
        """No packets in any queue (controller events may remain)."""
        return all(s.pending_packets() == 0 for s in self.switches.values())

    def __repr__(self) -> str:
        return (
            f"NetworkState(Q={sorted(map(repr, self.controller_queue))}, "
            f"R={sorted(map(repr, self.controller))}, "
            f"switches={list(self.switches.values())!r})"
        )


class TraceRecorder:
    """Builds the network trace corresponding to an execution.

    Every position a packet occupies (ingress, per-switch egress, link
    arrival) is appended as a located packet; each in-flight packet
    carries the index path of its positions so far, and finished paths
    (delivered, dropped, or still pending at harvest time) become the
    index sequences ``T``.
    """

    def __init__(self) -> None:
        self.positions: List[LocatedPacket] = []
        self.finished_paths: List[Tuple[int, ...]] = []

    def record(self, packet: Packet, location: Location) -> int:
        index = len(self.positions)
        self.positions.append(LocatedPacket(packet.at(location), location))
        return index

    def finish(self, path: Tuple[int, ...]) -> None:
        if path:
            self.finished_paths.append(path)

    def network_trace(self, pending_paths: Iterator[Tuple[int, ...]] = iter(())):
        """Produce the NetworkTrace (importing lazily to avoid cycles)."""
        from ..consistency.traces import NetworkTrace

        paths = list(self.finished_paths)
        paths.extend(p for p in pending_paths if p)
        return NetworkTrace(tuple(self.positions), frozenset(map(tuple, paths)))
