"""Tests-only reference implementations.

The quadratic finite-completeness check and the brute-force
minimally-inconsistent-set enumeration, moved verbatim out of
``repro.events``: the differential oracles of
``test_finite_complete_property.py`` and ``test_locality_bitset.py``;
``ETS(p)`` by one Figure 5-6 walk per state, the reference the
symbolic engine of ``repro.stateful.symbolic`` is compared against;
and an FDD builder with every cache of the compile path off.
"""

from collections import deque
from itertools import combinations
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.events.event import Event, EventSet
from repro.events.ets_to_nes import _sorted_masks
from repro.events.structure import EventStructure
from repro.netkat.ast import Policy
from repro.netkat.fdd import FDD, FDDBuilder
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
