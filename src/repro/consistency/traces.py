"""Network traces and the happens-before relation (section 2).

A *network trace* is an interleaving of *packet traces*: a sequence of
located packets together with a set ``T`` of increasing index sequences,
one per packet trace, forming a family of trees rooted at host-injected
packets (trees, because a configuration may copy one packet into several
outputs).

The *happens-before* relation (Definition 1) is the least partial order
on trace positions that respects (a) the switch-local processing order
and (b) the order within each packet trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..netkat.compiler import Configuration
from ..netkat.packet import LocatedPacket, Location
from ..topology import Topology

__all__ = [
    "NetworkTrace",
    "TraceValidationError",
    "HappensBefore",
    "packet_trace_in_traces",
    "position_event_masks",
]


class TraceValidationError(Exception):
    """The candidate network trace violates a structural condition."""


@dataclass(frozen=True)
class NetworkTrace:
    """``ntr = (lp0 lp1 ..., T)`` with ``T`` a set of index sequences."""

    packets: Tuple[LocatedPacket, ...]
    trace_indices: FrozenSet[Tuple[int, ...]]

    def __post_init__(self) -> None:
        n = len(self.packets)
        covered: Set[int] = set()
        for t in self.trace_indices:
            if not t:
                raise TraceValidationError("empty index sequence in T")
            if any(k < 0 or k >= n for k in t):
                raise TraceValidationError(f"index sequence {t} out of range")
            if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise TraceValidationError(f"index sequence {t} is not increasing")
            covered.update(t)
        if covered != set(range(n)):
            missing = sorted(set(range(n)) - covered)
            raise TraceValidationError(
                f"positions {missing} are not covered by any packet trace"
            )
        _check_tree_condition(self.trace_indices)

    # -- projections (the paper's ntr↓k and ntr↓t) -----------------------------

    def traces_through(self, index: int) -> FrozenSet[Tuple[int, ...]]:
        """``ntr↓k``: the index sequences passing through position k."""
        return frozenset(t for t in self.trace_indices if index in t)

    def packet_trace(self, t: Sequence[int]) -> Tuple[LocatedPacket, ...]:
        """``ntr↓t``: the located packets along an index sequence."""
        return tuple(self.packets[k] for k in t)

    def __len__(self) -> int:
        return len(self.packets)

    def happens_before(self) -> "HappensBefore":
        return HappensBefore(self)


def position_event_masks(
    trace: NetworkTrace, universe: Sequence
) -> Tuple[int, ...]:
    """Per-position bitmask of matching events (bit ``i`` ↔ ``universe[i]``).

    The mask-threaded Definition 6 checker computes this once per trace;
    every downstream scan -- the quiet case, candidate-sequence pruning,
    first-occurrence search, and the trailing ambient-event check -- is
    then a single int operation per position instead of an
    events × positions match loop per candidate sequence.
    """
    masks: List[int] = []
    for lp in trace.packets:
        mask = 0
        for index, event in enumerate(universe):
            if event.matches(lp):
                mask |= 1 << index
        masks.append(mask)
    return tuple(masks)


def _check_tree_condition(trace_indices: FrozenSet[Tuple[int, ...]]) -> None:
    """Condition 3: the successor graph forms a family of trees.

    Edges ``(t[i], t[i+1])`` over all sequences must give every node at
    most one parent, and roots are exactly the sequence heads.
    """
    parent: Dict[int, int] = {}
    roots: Set[int] = set()
    for t in trace_indices:
        roots.add(t[0])
        for i in range(len(t) - 1):
            child, par = t[i + 1], t[i]
            existing = parent.get(child)
            if existing is not None and existing != par:
                raise TraceValidationError(
                    f"position {child} has two parents ({existing} and {par}); "
                    "T is not a family of trees"
                )
            parent[child] = par
    conflict = roots & set(parent)
    if conflict:
        raise TraceValidationError(
            f"positions {sorted(conflict)} are both roots and children"
        )


class HappensBefore:
    """The happens-before partial order ``≺ntr`` on trace positions."""

    def __init__(self, trace: NetworkTrace):
        self._trace = trace
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
        # Transitive closure by reverse-order DFS (edges always go from
        # smaller to larger indices, so a reverse sweep suffices).
        reachable: List[Set[int]] = [set() for _ in range(n)]
        for index in range(n - 1, -1, -1):
            acc: Set[int] = set()
            for nxt in successors[index]:
                acc.add(nxt)
                acc |= reachable[nxt]
            reachable[index] = acc
        self._reachable = tuple(frozenset(r) for r in reachable)

    def before(self, i: int, j: int) -> bool:
        """``lp_i ≺ lp_j``."""
        return j in self._reachable[i]

    def all_before(self, indices: Iterable[int], j: int) -> bool:
        """Do all of ``indices`` happen before position j?"""
        return all(self.before(i, j) for i in indices)

    def all_after(self, i: int, indices: Iterable[int]) -> bool:
        """Does position i happen before all of ``indices``?"""
        return all(self.before(i, j) for j in indices)


# ---------------------------------------------------------------------------
# Traces(C): packet-trace membership for a configuration
# ---------------------------------------------------------------------------


def packet_trace_in_traces(
    config: Configuration, packet_trace: Sequence[LocatedPacket]
) -> bool:
    """Is the packet trace in ``Traces(config)``?

    The trace must start at a host attachment point, follow the
    configuration's step relation, and be *maximal*: it either ends
    delivered at a host port, or ends at a position from which the
    configuration offers no further step (the packet was dropped exactly
    where the configuration drops it).  Maximality is what gives the
    "processed entirely by one configuration" clauses of Definition 2
    their force: a packet silently dropped mid-path is in no
    configuration's traces.
    """
    if not packet_trace:
        return False
    topology = config.topology
    first = packet_trace[0]
    if topology.host_at(first.location) is None:
        return False
    if not all(
        config.relates(packet_trace[i], packet_trace[i + 1])
        for i in range(len(packet_trace) - 1)
    ):
        return False
    last = packet_trace[-1]
    if len(packet_trace) > 1 and topology.host_at(last.location) is not None:
        return True  # delivered to a host
    # Dropped (or never forwarded): correct only if C agrees there is no
    # continuation from the final position.
    return not config.step(last)
