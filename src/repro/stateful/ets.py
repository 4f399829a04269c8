"""Event-driven transition systems (Definition 7) and ``ETS(p)``.

An ETS is a graph whose vertices are labeled by network configurations
and whose edges are labeled by events.  For a Stateful NetKAT program
``p`` with initial state ``~k0``, the construction of section 3.3 yields
vertices ``(~k, ⟦p⟧~k)`` and edges ``fst(⟬p⟭~k true)``.

We build the reachable fragment by breadth-first exploration from the
initial state; unreachable state vectors never influence runtime
behavior.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..netkat.ast import Policy
from .ast import StateVector, validate_state_references
from .symbolic import EventEdge, SymbolicProgram

__all__ = ["ETS", "build_ets"]

# The most vertices one exploration may reach.
MAX_STATES = 10_000


@dataclass(frozen=True)
class ETS:
    """An event-driven transition system over state vectors.

    ``vertices`` maps each state vector to its projected configuration
    policy; ``edges`` are the event-labeled transitions; ``initial`` is
    ``v0``.
    """

    initial: StateVector
    vertices: Tuple[Tuple[StateVector, Policy], ...]
    edges: FrozenSet[EventEdge]

    def configuration(self, state: StateVector) -> Policy:
        by_state = self.__dict__.get("_by_state")
        if by_state is None:
            by_state = {}
            for vertex_state, policy in self.vertices:
                # First match wins, like the linear scan this replaces
                # (nothing forbids hand-built ETSs with duplicate states).
                by_state.setdefault(vertex_state, policy)
            object.__setattr__(self, "_by_state", by_state)
        try:
            return by_state[state]
        except KeyError:
            raise KeyError(f"state {state} is not a vertex of this ETS") from None

    def states(self) -> Tuple[StateVector, ...]:
        return tuple(state for state, _ in self.vertices)

    def out_edges(self, state: StateVector) -> Tuple[EventEdge, ...]:
        # The ETS -> NES walk asks for a state's out-edges once per path visit;
        # index and sort the edge set per source state on first use.
        index = self.__dict__.get("_out_edges")
        if index is None:
            grouped: Dict[StateVector, List[EventEdge]] = {}
            for e in self.edges:
                grouped.setdefault(e.src, []).append(e)
            index = {
                src: tuple(sorted(es, key=lambda e: (repr(e.event), e.dst)))
                for src, es in grouped.items()
            }
            object.__setattr__(self, "_out_edges", index)
        return index.get(state, ())

    def has_loops(self) -> bool:
        """Is any state reachable from itself via one or more edges?

        Kahn's peeling, iterative (deep state chains would overflow
        CPython's recursion limit in a recursive DFS): states with no
        remaining in-edge are removed; one on or behind a cycle never is.
        The answer is kept on the ETS, like its other derived indexes.
        """
        cyclic = self.__dict__.get("_has_loops")
        if cyclic is not None:
            return cyclic
        successors: Dict[StateVector, List[StateVector]] = {}
        indegree: Dict[StateVector, int] = {}
        for e in self.edges:
            successors.setdefault(e.src, []).append(e.dst)
            indegree[e.dst] = indegree.get(e.dst, 0) + 1
        ready = [state for state in successors if state not in indegree]
        while ready:
            for nxt in successors.get(ready.pop(), ()):
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    ready.append(nxt)
        cyclic = any(indegree.values())
        object.__setattr__(self, "_has_loops", cyclic)
        return cyclic

    def __repr__(self) -> str:
        lines = [f"ETS(initial={list(self.initial)})"]
        for state, _ in self.vertices:
            marker = "*" if state == self.initial else " "
            lines.append(f" {marker} {list(state)}")
            for e in self.out_edges(state):
                lines.append(f"     --{e.event!r}--> {list(e.dst)}")
        return "\n".join(lines)


def build_ets(
    program: Policy,
    initial: StateVector,
    symbolic: Optional[SymbolicProgram] = None,
) -> ETS:
    """Construct ``ETS(program)`` from the initial state.

    Only states reachable from ``initial`` become vertices, at most
    :data:`MAX_STATES` of them.

    The program is partially evaluated **once** over all state-component
    values (:class:`~repro.stateful.symbolic.SymbolicProgram`) and the
    BFS instantiates each state's edges and configuration from the
    guarded result -- linear in the chain depth for the cap apps, and
    byte-identical to a BFS over the per-state Figure 5-6 walks
    (``build_ets_naive`` in ``tests/naive_oracles.py``).

    ``symbolic`` is a prebuilt
    :class:`~repro.stateful.symbolic.SymbolicProgram` for ``program``:
    :class:`repro.pipeline.Pipeline` passes one to time the partial
    evaluation separately, and to share it (per-state memo and all)
    with an update that leaves the program untouched.
    """
    # Projection prunes dead segments without walking their bodies, so
    # out-of-range state references are checked once for the whole program.
    validate_state_references(program, len(initial))
    if symbolic is None:
        symbolic = SymbolicProgram(program)

    visited: Set[StateVector] = {initial}
    order: List[StateVector] = [initial]
    edges: Set[EventEdge] = set()
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        # Destination order, not frozenset order: the vertex sequence
        # must not depend on PYTHONHASHSEED or on which walk built the set.
        for edge in sorted(symbolic.edges_at(state), key=attrgetter("dst")):
            if edge.dst == edge.src:
                # An update that rewrites the state to its current value is
                # an identity transition; the paper's ETSs omit them (e.g.
                # the learning switch re-"learns" H1 in state [1] without a
                # new event occurrence).
                continue
            edges.add(edge)
            dst = edge.dst
            if dst not in visited:
                if len(visited) >= MAX_STATES:
                    raise RuntimeError(
                        f"ETS exploration exceeded {MAX_STATES} states"
                    )
                visited.add(dst)
                order.append(dst)
                queue.append(dst)

    vertices = tuple((state, symbolic.configuration_at(state)) for state in order)
    return ETS(initial=initial, vertices=vertices, edges=frozenset(edges))
