"""Symbolic all-states extraction and projection: one partial-evaluation
pass over the program instead of one ``extract``/``project`` walk per
state vector.

The per-state construction of Figures 5-6 resolves every ``state(m)=n``
test against a concrete ``~k``, so building ``ETS(p)`` costs
O(states x program size) -- the dominant ``ets``-stage cost on the deep
bandwidth-cap chains (~7k ``extract`` calls at cap 24).  This module
walks the program **once**, treating each state test as a constraint on
a symbolic state vector:

- event extraction threads *guarded* formulas ``(g, phi)`` -- ``g`` is a
  :class:`~repro.formula.StateGuard`, the same canonical-conjunction
  algebra as the packet formula ``phi`` with state-component indices
  for keys -- and collects *guarded* event edges ``(g, event, updates)``
  whose concrete source and destination states are instantiated later;
- projection produces a guarded decision structure: a partition of the
  state space into :class:`StateGuard` cells, each carrying the
  projected configuration policy shared by every state in the cell.

Instantiating a concrete state is then a guard-indexed filter
(:meth:`SymbolicProgram.edges_at` / :meth:`.configuration_at`) instead
of a fresh AST walk.  Both halves are linear in the chain depth of the
cap apps: a cold ``Pipeline(...).nes`` on cap-24 / cap-48 makes 136 /
256 ``meet`` and 51 / 99 ``holds`` calls.

Byte identity with the per-state walks (``extract`` / ``project``) is
load-bearing: both apply the *same* smart constructors and formula
combinators in the *same* order, so for every state consistent with a
guard the instantiated edges, formulas, and configuration policies are
equal -- the goldens in ``tests/test_pipeline.py`` and the seeded
property tests in ``tests/test_differential.py`` pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..events.event import Event
from ..formula import EQ, Formula, Literal, NE, StateGuard
from ..netkat.ast import (
    Assign,
    Conj,
    DROP,
    Disj,
    Dup,
    FALSE,
    Filter,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    TRUE,
    Test,
    Union,
    conj,
    disj,
    neg,
    seq,
    star,
    union,
)
from ..netkat.packet import PT, SW
from .ast import LinkUpdate, StateTest, StateVector, uses_state, vector_update
from .events import EventEdge, STAR_EXTRACT_FUEL

__all__ = [
    "StateGuard",
    "GuardedEdge",
    "SymbolicExtract",
    "SymbolicProgram",
]


_TRUE_GUARD = StateGuard.true()


# ---------------------------------------------------------------------------
# Symbolic event extraction: Figure 6 over all states at once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardedEdge:
    """A symbolic ETS edge: fires at every source state satisfying
    ``guard``; the destination is ``vector_update(src, updates)``."""

    guard: StateGuard
    event: Event
    updates: Tuple[Tuple[int, int], ...]

    def __repr__(self) -> str:
        ups = ",".join(f"state({m})<-{n}" for m, n in self.updates)
        return f"[{self.guard!r}] --{self.event!r}--> <{ups}>"


GuardedFormula = Tuple[StateGuard, Formula]


@dataclass(frozen=True)
class SymbolicExtract:
    """The guarded pair ``(D, P)``: Figure 6's result for every state.

    Restricting to the items whose guard a concrete state satisfies
    yields exactly ``extract(p, state)`` (see
    :meth:`SymbolicProgram.edges_at` / :meth:`.formulas_at`).
    """

    edges: FrozenSet[GuardedEdge]
    formulas: FrozenSet[GuardedFormula]

    @staticmethod
    def of(guard: StateGuard, phi: Optional[Formula]) -> "SymbolicExtract":
        if phi is None:
            return _EMPTY
        return SymbolicExtract(frozenset(), frozenset(((guard, phi),)))

    def join(self, other: "SymbolicExtract") -> "SymbolicExtract":
        """Pointwise union (the figure's ⊔, guard-indexed)."""
        if not self.edges and not self.formulas:
            return other
        if not other.edges and not other.formulas:
            return self
        return SymbolicExtract(
            self.edges | other.edges, self.formulas | other.formulas
        )


_EMPTY = SymbolicExtract(frozenset(), frozenset())


def _sx(p: Policy, guard: StateGuard, phi: Formula, memo: dict) -> SymbolicExtract:
    """Compute ``⟬p⟭~k phi`` for every ``~k`` in one walk.

    The walk is :func:`repro.stateful.events.extract` with the fixed
    concrete state replaced by a threaded :class:`StateGuard`: a state
    test refines the guard (both outcomes stay live, each under its own
    constraint) instead of resolving to keep/drop.  Memoized in ``memo``
    on ``(id(subterm), guard, phi)``, the guarded analogue of the
    concrete walk's ``(id(subterm), phi)`` key.
    """
    key = (id(p), guard, phi)
    result = memo.get(key)
    if result is not None:
        return result
    # Dispatch ordered like the concrete walk (observed frequency).
    if isinstance(p, Seq):
        result = _sx_kleisli(p.left, p.right, guard, phi, memo)
    elif isinstance(p, Filter):
        result = _sx_predicate(p.predicate, guard, phi, positive=True)
    elif isinstance(p, Union):
        result = _sx(p.left, guard, phi, memo).join(
            _sx(p.right, guard, phi, memo)
        )
    elif isinstance(p, Assign):
        if p.field in (SW, PT):
            result = SymbolicExtract.of(guard, phi)
        else:
            updated = phi.without_field(p.field).conjoin(
                Literal(p.field, EQ, p.value)
            )
            result = SymbolicExtract.of(guard, updated)
    elif isinstance(p, LinkUpdate):
        event = Event(phi, p.dst)
        edge = GuardedEdge(guard, event, p.updates)
        result = SymbolicExtract(frozenset((edge,)), frozenset(((guard, phi),)))
    elif isinstance(p, Link):
        result = SymbolicExtract.of(guard, phi)
    elif isinstance(p, Star):
        result = _sx_star(p.operand, guard, phi, memo)
    elif isinstance(p, Dup):
        result = SymbolicExtract.of(guard, phi)
    else:
        raise TypeError(f"not a stateful policy: {p!r}")
    memo[key] = result
    return result


def _sx_kleisli(
    left: Policy, right: Policy, guard: StateGuard, phi: Formula, memo: dict
) -> SymbolicExtract:
    """``(⟬left⟭ ‚ ⟬right⟭) phi`` -- thread each guarded formula through
    right, under the guard it was produced with."""
    first = _sx(left, guard, phi, memo)
    if not first.formulas:
        # Nothing to thread (e.g. a state guard refined to contradiction).
        return first
    if len(first.formulas) == 1:
        ((g1, psi),) = first.formulas
        threaded = _sx(right, g1, psi, memo)
        if not first.edges:
            return threaded
        return SymbolicExtract(first.edges | threaded.edges, threaded.formulas)
    edges = set(first.edges)
    formulas: set = set()
    for g1, psi in first.formulas:
        threaded = _sx(right, g1, psi, memo)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return SymbolicExtract(frozenset(edges), frozenset(formulas))


def _sx_star(
    body: Policy, guard: StateGuard, phi: Formula, memo: dict
) -> SymbolicExtract:
    """``⟬p*⟭ phi = ⊔_j F_p^j(phi)`` iterated to a guarded fixpoint.

    Each iterate unfolds every frontier pair under its own guard; the
    loop runs until the *global* fixpoint, which restricted to any
    single consistent state is the concrete per-state fixpoint (extra
    global iterations re-derive pairs a state's walk already holds, so
    they never change that state's restriction).
    """
    total = SymbolicExtract.of(guard, phi)
    frontier: FrozenSet[GuardedFormula] = frozenset(((guard, phi),))
    for _ in range(STAR_EXTRACT_FUEL):
        step_edges: set = set()
        step_formulas: set = set()
        for g1, psi in frontier:
            unfolded = _sx(body, g1, psi, memo)
            step_edges.update(unfolded.edges)
            step_formulas.update(unfolded.formulas)
        step = SymbolicExtract(frozenset(step_edges), frozenset(step_formulas))
        new_total = total.join(step)
        new_frontier = step.formulas - total.formulas
        if new_total == total and not new_frontier:
            return total
        total = new_total
        frontier = step.formulas
        if not frontier:
            return total
    raise RuntimeError(
        f"symbolic event extraction for p* did not converge in "
        f"{STAR_EXTRACT_FUEL} steps"
    )


def _sx_predicate(
    a: Predicate, guard: StateGuard, phi: Formula, positive: bool
) -> SymbolicExtract:
    """Extract from a test, with negation pushed down to literals."""
    if isinstance(a, PTrue):
        return SymbolicExtract.of(guard, phi) if positive else _EMPTY
    if isinstance(a, PFalse):
        return _EMPTY if positive else SymbolicExtract.of(guard, phi)
    if isinstance(a, Test):
        if a.field in (SW, PT):
            # Location tests never refine the event guard (Figure 6).
            return SymbolicExtract.of(guard, phi)
        op = EQ if positive else NE
        return SymbolicExtract.of(guard, phi.conjoin(Literal(a.field, op, a.value)))
    if isinstance(a, StateTest):
        # The symbolic core: instead of resolving against ~k, constrain
        # the symbolic state.  A contradictory refinement is the guarded
        # spelling of the concrete walk's dropped branch.
        op = EQ if positive else NE
        refined = guard.conjoin(Literal(a.component, op, a.value))
        if refined is None:
            return _EMPTY
        return SymbolicExtract.of(refined, phi)
    if isinstance(a, Neg):
        return _sx_predicate(a.operand, guard, phi, not positive)
    if isinstance(a, Conj):
        if positive:
            return _sx_pred_seq(a.left, a.right, guard, phi, True, True)
        # not (a and b) = (not a) or (not b)
        return _sx_predicate(a.left, guard, phi, False).join(
            _sx_predicate(a.right, guard, phi, False)
        )
    if isinstance(a, Disj):
        if positive:
            return _sx_predicate(a.left, guard, phi, True).join(
                _sx_predicate(a.right, guard, phi, True)
            )
        # not (a or b) = (not a) and (not b)
        return _sx_pred_seq(a.left, a.right, guard, phi, False, False)
    raise TypeError(f"not a predicate: {a!r}")


def _sx_pred_seq(
    left: Predicate,
    right: Predicate,
    guard: StateGuard,
    phi: Formula,
    left_positive: bool,
    right_positive: bool,
) -> SymbolicExtract:
    """Conjunction as sequencing: thread left's guarded formulas through
    right."""
    first = _sx_predicate(left, guard, phi, left_positive)
    edges = set(first.edges)
    formulas: set = set()
    for g1, psi in first.formulas:
        threaded = _sx_predicate(right, g1, psi, right_positive)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return SymbolicExtract(frozenset(edges), frozenset(formulas))


# ---------------------------------------------------------------------------
# Symbolic projection: Figure 5 over all states at once
# ---------------------------------------------------------------------------

GuardedCells = Tuple[Tuple[StateGuard, Policy], ...]


def _sp(p: Policy, memo: dict) -> GuardedCells:
    """Partition the state space into guard cells, each carrying the
    configuration ``⟦p⟧~k`` shared by every state in the cell.

    The cells are pairwise disjoint and cover every state vector, so
    :meth:`SymbolicProgram.configuration_at` is a unique-match lookup.
    Each cell's policy is built by the *same* smart-constructor calls
    the per-state walk makes (including its short-circuits: a false
    conjunct kills its conjunction, a drop kills its sequence), so it is
    structurally identical to ``project(p, state)``.  Memoized in
    ``memo`` on ``id(subterm)``.
    """
    if not uses_state(p):
        # State-free subtrees project to themselves under every state.
        return ((_TRUE_GUARD, p),)
    key = id(p)
    cells = memo.get(key)
    if cells is not None:
        return cells
    if isinstance(p, LinkUpdate):
        cells = ((_TRUE_GUARD, Link(p.src, p.dst)),)
    elif isinstance(p, Filter):
        cells = tuple(
            (g, Filter(a)) for g, a in _sp_predicate(p.predicate, memo)
        )
    elif isinstance(p, Union):
        cells = _sp_union(_sp(p.left, memo), _sp(p.right, memo))
    elif isinstance(p, Seq):
        out: List[Tuple[StateGuard, Policy]] = []
        for g, left in _sp(p.left, memo):
            if isinstance(left, Filter) and isinstance(left.predicate, PFalse):
                # drop ; q = drop: a resolved-false state guard kills its
                # whole segment without touching the body's cells.
                out.append((g, DROP))
                continue
            for g2, right in _sp(p.right, memo):
                refined = g.meet(g2)
                if refined is not None:
                    out.append((refined, seq(left, right)))
        cells = tuple(out)
    elif isinstance(p, Star):
        cells = tuple((g, star(q)) for g, q in _sp(p.operand, memo))
    else:
        cells = ((_TRUE_GUARD, p),)  # assignments, dup, plain links
    memo[key] = cells
    return cells


def _sp_predicate(
    a: Predicate, memo: dict
) -> Tuple[Tuple[StateGuard, Predicate], ...]:
    if not uses_state(a):
        return ((_TRUE_GUARD, a),)
    key = ("pred", id(a))
    cells = memo.get(key)
    if cells is not None:
        return cells
    if isinstance(a, StateTest):
        cells = _state_test_cells(a.component, a.value)
    elif isinstance(a, Neg):
        cells = tuple((g, neg(x)) for g, x in _sp_predicate(a.operand, memo))
    elif isinstance(a, (Conj, Disj)):
        # false AND b = false, true OR b = true: b's cells are not met.
        zero, combine = (FALSE, conj) if isinstance(a, Conj) else (TRUE, disj)
        out: List[Tuple[StateGuard, Predicate]] = []
        for g, left in _sp_predicate(a.left, memo):
            if isinstance(left, type(zero)):
                out.append((g, zero))
                continue
            for g2, right in _sp_predicate(a.right, memo):
                refined = g.meet(g2)
                if refined is not None:
                    out.append((refined, combine(left, right)))
        cells = tuple(out)
    else:
        cells = ((_TRUE_GUARD, a),)  # true / false / field tests
    memo[key] = cells
    return cells


@lru_cache(maxsize=4096)
def _state_test_cells(
    component: int, value: int
) -> Tuple[Tuple[StateGuard, Predicate], ...]:
    """``state(component)=value`` as two cells, interned per test."""
    literal = Literal(component, EQ, value)
    return ((StateGuard((literal,)), TRUE), (StateGuard((literal.negated(),)), FALSE))


def _test_split(cells: GuardedCells) -> Optional[Tuple[int, int, Policy, Policy]]:
    """``(c, v, P, Q)`` when ``cells`` is a partition on one state test,
    ``c=v -> P`` then ``c!=v -> Q``; else ``None``."""
    if len(cells) == 2:
        (g1, p1), (g2, p2) = cells
        if len(g1.positive) == len(g1.literals) == 1:
            ((component, value),) = g1.positive.items()
            if g2.literals == {Literal(component, NE, value)}:
                return component, value, p1, p2
    return None


def _sp_union(left: GuardedCells, right: GuardedCells) -> GuardedCells:
    """Refine two partitions, uniting the policies of each consistent
    intersection (contradictory intersections are empty cells).

    When ``right`` splits on one state test and a left guard fixes the
    tested component, the guard meets exactly one right cell and the
    meet is the guard itself: read off its positive map, no ``meet``.
    A union of N state-guarded branches then makes O(N) meets, not
    O(N^2), with the cells and policies of the plain pairwise fold.
    """
    # No split: no guard has a positive literal on component None.
    component, value, if_equal, otherwise = _test_split(right) or (None,) * 4
    out: List[Tuple[StateGuard, Policy]] = []
    for g, lp in left:
        known = g.positive.get(component)
        if known is not None:
            rp = if_equal if known == value else otherwise
            out.append((g, lp if rp is DROP else union(lp, rp)))  # lp + drop = lp
            continue
        for g2, rp in right:
            refined = g.meet(g2)
            if refined is not None:
                out.append((refined, lp if rp is DROP else union(lp, rp)))
    return tuple(out)


def _walk(program: Policy, sx_memo: dict, sp_memo: dict):
    """Both partial evaluations of ``program``, memoized in the dicts."""
    return (
        _sx(program, _TRUE_GUARD, Formula.true(), sx_memo),
        _sp(program, sp_memo),
    )


def _by_literal(items, guard_of) -> Dict[Optional[Tuple[int, int]], list]:
    """Bucket items under one positive literal of their guard,
    ``(component, value)``, or ``None`` when it has none."""
    index: Dict[Optional[Tuple[int, int]], list] = {}
    for item in items:
        key = min(guard_of(item).positive.items(), default=None)
        index.setdefault(key, []).append(item)
    return index


def _candidates(index, state: StateVector):
    """The items whose guard may hold at ``state``."""
    for key in enumerate(state):
        yield from index.get(key, ())
    yield from index.get(None, ())


# ---------------------------------------------------------------------------
# The façade: one partial evaluation, many cheap instantiations
# ---------------------------------------------------------------------------


class SymbolicProgram:
    """A Stateful NetKAT program partially evaluated over all states.

    Built once per program (the pipeline times this as the
    ``ets.symbolic`` sub-stage); the per-state accessors are guard
    filters over the shared structures (the ``ets.instantiate``
    sub-stage), memoized per state while the owning pipeline builds its
    ETS.  :meth:`freeze` then stops the memos growing: an update that
    leaves the program untouched shares the engine and reads every
    entry, but a state only it reaches (a client may ``set_state`` any
    value) is computed without being stored.  A frozen engine is
    read-only, so pipelines on any number of threads may share it.

    A successor's program shares every node a delta left in place with
    its lineage root's, so its engine is built from ``lender`` (the
    root's engine): the walks start from copies of the memos of
    :meth:`lendable`, and only the changed spine is walked again.
    ``entries_new`` counts the walk entries this engine made beyond the
    ones it was lent.
    """

    def __init__(self, program: Policy, lender: Optional["SymbolicProgram"] = None):
        self.program = program
        sx_memo, sp_memo = (
            map(dict, lender.lendable()) if lender is not None else ({}, {})
        )
        lent = len(sx_memo) + len(sp_memo)
        self.extraction, self.cells = _walk(program, sx_memo, sp_memo)
        self.entries_new = len(sx_memo) + len(sp_memo) - lent
        self._lendable: Optional[Tuple[dict, dict]] = None
        self._frozen = False
        self._edge_index = _by_literal(self.extraction.edges, attrgetter("guard"))
        self._cell_index = _by_literal(self.cells, itemgetter(0))
        self._edges_at: Dict[StateVector, FrozenSet[EventEdge]] = {}
        self._configuration_at: Dict[StateVector, Policy] = {}
        self._policies: Dict[Policy, Policy] = {}

    def lendable(self) -> Tuple[dict, dict]:
        """The ``_sx`` / ``_sp`` memos of a walk of ``program``.

        Built on the first call -- one more walk, published by one
        assignment (a racing duplicate builds equal memos) -- and never
        written again; a cold engine that lends nothing keeps none.  The
        keys are the ``id()`` values of this program's nodes, which
        ``self.program`` keeps alive, so no node of a borrower's program
        can collide with one.
        """
        memos = self._lendable
        if memos is None:
            memos = ({}, {})
            _walk(self.program, *memos)
            self._lendable = memos
        return memos

    def freeze(self) -> None:
        """Store no further per-state entries (see the class docstring)."""
        self._frozen = True

    def edges_at(self, state: StateVector) -> FrozenSet[EventEdge]:
        """``fst(⟬p⟭~k true)``: the concrete event edges out of ``state``."""
        edges = self._edges_at.get(state)
        if edges is None:
            edges = frozenset(
                EventEdge(state, ge.event, vector_update(state, ge.updates))
                for ge in _candidates(self._edge_index, state)
                if ge.guard.holds(state)
            )
            if not self._frozen:
                self._edges_at[state] = edges
        return edges

    def formulas_at(self, state: StateVector) -> FrozenSet[Formula]:
        """``snd(⟬p⟭~k true)``: the concrete path formulas at ``state``."""
        return frozenset(
            phi for g, phi in self.extraction.formulas if g.holds(state)
        )

    def configuration_at(self, state: StateVector) -> Policy:
        """``⟦p⟧~k``: the configuration policy at ``state``."""
        policy = self._configuration_at.get(state)
        if policy is None:
            for g, policy in _candidates(self._cell_index, state):
                if g.holds(state):
                    if not self._frozen:
                        # One object per distinct policy (compile lookups).
                        policy = self._policies.setdefault(policy, policy)
                        self._configuration_at[state] = policy
                    return policy
            raise RuntimeError(  # pragma: no cover - the cells cover all states
                f"no projection cell covers state {state}"
            )
        return policy

    def __repr__(self) -> str:
        return (
            f"SymbolicProgram({len(self.extraction.edges)} guarded edges, "
            f"{len(self.extraction.formulas)} guarded formulas, "
            f"{len(self.cells)} projection cells)"
        )
