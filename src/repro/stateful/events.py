"""Event-edge extraction ``⟬p⟭~k`` (Figure 6).

Walking the program for a fixed state vector ``~k``, this collects the
conjunction ``phi`` of header-field tests seen along each control path
and records an *event edge* ``(~k, (phi, s2, p2), ~k[m -> n])`` at every
state-updating link.  The result is the pair ``(D, P)``: the set of
event edges, and the set of updated path formulas.

Faithful to the figure:

- ``sw``/``pt`` tests (and assignments) do not refine ``phi`` -- the
  event's location comes from the link destination, not the formula;
- a field assignment ``f <- n`` replaces knowledge about ``f``
  (``(exists f: phi) AND f=n``);
- state tests are resolved against ``~k``;
- negation is pushed to literals (``L not (v = n)M = L v != nM``);
- ``a AND b`` extracts like ``a ; b`` and ``a OR b`` like ``a + b``;
- ``p*`` is the join of the iterates ``F_p^j``, computed to fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set, Tuple

from ..events.event import Event
from ..netkat.ast import (
    Assign,
    Conj,
    Disj,
    Dup,
    Filter,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    Test,
    Union,
)
from ..netkat.packet import PT, SW
from .ast import LinkUpdate, StateTest, StateVector, vector_update
from ..formula import EQ, Formula, Literal, NE

__all__ = ["EventEdge", "ExtractResult", "extract", "STAR_EXTRACT_FUEL"]

STAR_EXTRACT_FUEL = 100


@dataclass(frozen=True)
class EventEdge:
    """An ETS edge: state ``src`` transitions to ``dst`` on ``event``."""

    src: StateVector
    event: Event
    dst: StateVector

    def __repr__(self) -> str:
        return f"{list(self.src)} --{self.event!r}--> {list(self.dst)}"


@dataclass(frozen=True)
class ExtractResult:
    """The pair ``(D, P)`` of Figure 6."""

    edges: FrozenSet[EventEdge]
    formulas: FrozenSet[Formula]

    @staticmethod
    def of(phi: Optional[Formula]) -> "ExtractResult":
        if phi is None:
            return ExtractResult(frozenset(), frozenset())
        return ExtractResult(frozenset(), frozenset((phi,)))

    def join(self, other: "ExtractResult") -> "ExtractResult":
        """Pointwise union (the figure's ⊔)."""
        if not self.edges and not self.formulas:
            return other
        if not other.edges and not other.formulas:
            return self
        return ExtractResult(
            self.edges | other.edges, self.formulas | other.formulas
        )


_EMPTY = ExtractResult(frozenset(), frozenset())


def extract(
    p: Policy,
    state: StateVector,
    phi: Optional[Formula] = None,
    _memo: Optional[dict] = None,
) -> ExtractResult:
    """Compute ``⟬p⟭~k phi``.

    Results are memoized per top-level call on ``(subterm, phi)`` --
    the state is fixed for the whole walk, and the star fixpoint
    re-extracts its body for formulas already seen in earlier iterates.
    """
    if phi is None:
        phi = Formula.true()
    if _memo is None:
        _memo = {}
    key = (p, phi)
    result = _memo.get(key)
    if result is not None:
        return result
    # Dispatch ordered by observed frequency on the seed apps.
    if isinstance(p, Seq):
        result = _kleisli(p.left, p.right, state, phi, _memo)
    elif isinstance(p, Filter):
        result = _extract_predicate(p.predicate, state, phi, positive=True)
    elif isinstance(p, Union):
        result = extract(p.left, state, phi, _memo).join(
            extract(p.right, state, phi, _memo)
        )
    elif isinstance(p, Assign):
        if p.field in (SW, PT):
            result = ExtractResult.of(phi)
        else:
            updated = phi.without_field(p.field).conjoin(
                Literal(p.field, EQ, p.value)
            )
            result = ExtractResult.of(updated)
    elif isinstance(p, LinkUpdate):
        event = Event(phi, p.dst)
        edge = EventEdge(state, event, vector_update(state, p.updates))
        result = ExtractResult(frozenset((edge,)), frozenset((phi,)))
    elif isinstance(p, Link):
        result = ExtractResult.of(phi)
    elif isinstance(p, Star):
        result = _extract_star(p.operand, state, phi, _memo)
    elif isinstance(p, Dup):
        result = ExtractResult.of(phi)
    else:
        raise TypeError(f"not a stateful policy: {p!r}")
    _memo[key] = result
    return result


def _kleisli(
    left: Policy, right: Policy, state: StateVector, phi: Formula, memo: dict
) -> ExtractResult:
    """``(⟬left⟭ ‚ ⟬right⟭) phi`` -- thread each left formula through right."""
    first = extract(left, state, phi, memo)
    if not first.formulas:
        # Nothing to thread (e.g. a state guard resolved false).
        return first
    if len(first.formulas) == 1:
        (psi,) = first.formulas
        threaded = extract(right, state, psi, memo)
        if not first.edges:
            return threaded
        return ExtractResult(first.edges | threaded.edges, threaded.formulas)
    edges = set(first.edges)
    formulas: Set[Formula] = set()
    for psi in first.formulas:
        threaded = extract(right, state, psi, memo)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return ExtractResult(frozenset(edges), frozenset(formulas))


def _extract_star(
    body: Policy, state: StateVector, phi: Formula, memo: dict
) -> ExtractResult:
    """``⟬p*⟭ phi = ⊔_j F_p^j(phi, ~k)`` iterated to fixpoint."""
    # F^0 = ({}, {phi}); F^(j+1) = ⟬p⟭ ‚ F^j.
    total = ExtractResult.of(phi)
    frontier_formulas: FrozenSet[Formula] = frozenset((phi,))
    for _ in range(STAR_EXTRACT_FUEL):
        step_edges: Set[EventEdge] = set()
        step_formulas: Set[Formula] = set()
        for psi in frontier_formulas:
            unfolded = extract(body, state, psi, memo)
            step_edges.update(unfolded.edges)
            step_formulas.update(unfolded.formulas)
        step = ExtractResult(frozenset(step_edges), frozenset(step_formulas))
        new_total = total.join(step)
        new_frontier = step.formulas - total.formulas
        if new_total == total and not new_frontier:
            return total
        total = new_total
        frontier_formulas = step.formulas
        if not frontier_formulas:
            return total
    raise RuntimeError(
        f"event extraction for p* did not converge in {STAR_EXTRACT_FUEL} steps"
    )


def _extract_predicate(
    a: Predicate, state: StateVector, phi: Formula, positive: bool
) -> ExtractResult:
    """Extract from a test, with negation pushed down to literals."""
    if isinstance(a, PTrue):
        return ExtractResult.of(phi) if positive else _EMPTY
    if isinstance(a, PFalse):
        return _EMPTY if positive else ExtractResult.of(phi)
    if isinstance(a, Test):
        if a.field in (SW, PT):
            # Location tests never refine the event guard (Figure 6).
            return ExtractResult.of(phi)
        op = EQ if positive else NE
        return ExtractResult.of(phi.conjoin(Literal(a.field, op, a.value)))
    if isinstance(a, StateTest):
        holds = state[a.component] == a.value
        if not positive:
            holds = not holds
        return ExtractResult.of(phi) if holds else _EMPTY
    if isinstance(a, Neg):
        return _extract_predicate(a.operand, state, phi, not positive)
    if isinstance(a, Conj):
        if positive:
            return _pred_seq(a.left, a.right, state, phi, True, True)
        # not (a and b) = (not a) or (not b)
        return _extract_predicate(a.left, state, phi, False).join(
            _extract_predicate(a.right, state, phi, False)
        )
    if isinstance(a, Disj):
        if positive:
            return _extract_predicate(a.left, state, phi, True).join(
                _extract_predicate(a.right, state, phi, True)
            )
        # not (a or b) = (not a) and (not b)
        return _pred_seq(a.left, a.right, state, phi, False, False)
    raise TypeError(f"not a predicate: {a!r}")


def _pred_seq(
    left: Predicate,
    right: Predicate,
    state: StateVector,
    phi: Formula,
    left_positive: bool,
    right_positive: bool,
) -> ExtractResult:
    """Conjunction as sequencing: thread left's formulas through right."""
    first = _extract_predicate(left, state, phi, left_positive)
    edges = set(first.edges)
    formulas: Set[Formula] = set()
    for psi in first.formulas:
        threaded = _extract_predicate(right, state, psi, right_positive)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return ExtractResult(frozenset(edges), frozenset(formulas))
