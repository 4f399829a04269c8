"""Tests-only reference implementations.

The frozenset ETS -> NES conversion (``F(T)`` as a dict of frozensets,
the antichain finite-completeness check over them, and the family
construction that visits every member), the reference the mask walk of
``repro.events.ets_to_nes`` is held equal to; the quadratic
finite-completeness check and the brute-force
minimally-inconsistent-set enumeration, moved verbatim out of
``repro.events``: the differential oracles of
``test_finite_complete_property.py`` and ``test_locality_bitset.py``;
the Figure 6 event extraction ``extract`` for one state vector and
``ETS(p)`` by one Figure 5-6 walk per state, the references the
symbolic engine of ``repro.stateful.symbolic`` is compared against
(with ``formulas_at``, the engine's path formulas at one state);
an FDD builder with every cache of the compile path off; the guarded
merge rule by rule;
Definition 2 on frozensets, the reference for ``NESChecker``'s masks;
and the pieces it is built from, each the reference for its fast
counterpart in ``repro.consistency.traces``: happens-before as a
frozenset transitive closure, per-position event masks by one
``Event.matches`` per event, and ``Traces(C)`` membership by
materialising ``Configuration.step``; and ``Figure7Logic``, the IN,
SWITCH, CTRLRECV and CTRLSEND rules of Figure 7 on frozenset registers,
the reference the simulator's ``CorrectLogic`` is compared against.

Helpers that only tests call live here too, not in ``src/``:
``conjoin_all``, ``implies`` and ``to_predicate`` on conjunctions,
``eval_fdd``, an FDD applied to one packet, and the structural queries
``policy_fields`` and ``policy_size``.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.consistency.checker import CorrectnessReport
from repro.consistency.traces import NetworkTrace
from repro.events.event import Event, EventSet
from repro.events.ets_to_nes import (
    ETSConversionError,
    FiniteCompletenessError,
    UniqueConfigurationError,
)
from repro.events.nes import NES
from repro.events.structure import EventStructure, _extremal
from repro.formula import EQ, Formula, Literal, NE
from repro.netkat.ast import (
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
    TRUE,
    Test,
    Union,
    conj,
    neg,
    test,
)
from repro.netkat.compiler import Configuration
from repro.netkat.fdd import FDD, Branch, FDDBuilder
from repro.netkat.flowtable import FlowTable, Rule
from repro.netkat.packet import LocatedPacket, Location, Packet, PT, SW
from repro.network.simulator import Frame, SimNetwork
from repro.network.switch_logic import (
    BASE_HEADER_BYTES,
    CONTROLLER_LATENCY,
    EVENT_NOTIFY_LATENCY,
    EXTRA_PROCESSING_DELAY,
)
from repro.runtime.compiler import TAG_FIELD, CompiledNES
from repro.runtime.semantics import detect_events, merge_in_enabling_order
from repro.stateful.ast import (
    LinkUpdate,
    StateTest,
    StateVector,
    validate_state_references,
    vector_update,
)
from repro.stateful.ets import ETS
from repro.stateful.projection import project
from repro.stateful.symbolic import STAR_EXTRACT_FUEL, EventEdge, SymbolicProgram


@dataclass(frozen=True)
class ExtractResult:
    """The pair ``(D, P)`` of Figure 6: event edges and path formulas."""

    edges: FrozenSet[EventEdge]
    formulas: FrozenSet[Formula]

    @staticmethod
    def of(phi: Optional[Formula]) -> "ExtractResult":
        if phi is None:
            return _EMPTY
        return ExtractResult(frozenset(), frozenset((phi,)))

    def join(self, other: "ExtractResult") -> "ExtractResult":
        """Pointwise union (the figure's ⊔)."""
        if not self.edges and not self.formulas:
            return other
        if not other.edges and not other.formulas:
            return self
        return ExtractResult(self.edges | other.edges, self.formulas | other.formulas)


_EMPTY = ExtractResult(frozenset(), frozenset())


def extract(
    p: Policy, state: StateVector, phi: Optional[Formula] = None, _memo: Optional[dict] = None
) -> ExtractResult:
    """``⟬p⟭~k phi`` by the Figure 6 walk for one fixed state vector ``~k``.

    Collects the conjunction ``phi`` of header-field tests along each
    control path and records an event edge ``(~k, (phi, s2, p2), ~k')``
    at every state-updating link.  ``sw``/``pt`` tests and assignments
    do not refine ``phi``; ``f <- n`` replaces what ``phi`` knows of
    ``f``; state tests are resolved against ``~k``; negation is pushed
    to literals; ``a AND b`` extracts like ``a ; b`` and ``a OR b``
    like ``a + b``; ``p*`` is the join of its iterates, to fixpoint.
    Memoized per top-level call on ``(subterm, phi)``.

    The per-state reference for ``repro.stateful.symbolic``, which
    computes the same pair for every state in one walk.
    """
    if phi is None:
        phi = Formula.true()
    if _memo is None:
        _memo = {}
    key = (p, phi)
    result = _memo.get(key)
    if result is not None:
        return result
    if isinstance(p, Seq):
        result = _kleisli(p.left, p.right, state, phi, _memo)
    elif isinstance(p, Filter):
        result = _extract_predicate(p.predicate, state, phi, positive=True)
    elif isinstance(p, Union):
        result = extract(p.left, state, phi, _memo).join(extract(p.right, state, phi, _memo))
    elif isinstance(p, Assign):
        if p.field in (SW, PT):
            result = ExtractResult.of(phi)
        else:
            updated = phi.without_field(p.field).conjoin(Literal(p.field, EQ, p.value))
            result = ExtractResult.of(updated)
    elif isinstance(p, LinkUpdate):
        edge = EventEdge(state, Event(phi, p.dst), vector_update(state, p.updates))
        result = ExtractResult(frozenset((edge,)), frozenset((phi,)))
    elif isinstance(p, (Link, Dup)):
        result = ExtractResult.of(phi)
    elif isinstance(p, Star):
        result = _extract_star(p.operand, state, phi, _memo)
    else:
        raise TypeError(f"not a stateful policy: {p!r}")
    _memo[key] = result
    return result


def _kleisli(
    left: Policy, right: Policy, state: StateVector, phi: Formula, memo: dict
) -> ExtractResult:
    """``(⟬left⟭ ‚ ⟬right⟭) phi`` -- thread each left formula through right."""
    first = extract(left, state, phi, memo)
    edges = set(first.edges)
    formulas: Set[Formula] = set()
    for psi in first.formulas:
        threaded = extract(right, state, psi, memo)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return ExtractResult(frozenset(edges), frozenset(formulas))


def _extract_star(body: Policy, state: StateVector, phi: Formula, memo: dict) -> ExtractResult:
    """``⟬p*⟭ phi = ⊔_j F_p^j(phi, ~k)`` iterated to fixpoint."""
    total = ExtractResult.of(phi)
    frontier: FrozenSet[Formula] = frozenset((phi,))
    for _ in range(STAR_EXTRACT_FUEL):
        step = _EMPTY
        for psi in frontier:
            step = step.join(extract(body, state, psi, memo))
        new_total = total.join(step)
        if new_total == total and not step.formulas - total.formulas:
            return total
        total, frontier = new_total, step.formulas
        if not frontier:
            return total
    raise RuntimeError(f"event extraction for p* did not converge in {STAR_EXTRACT_FUEL} steps")


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
            return ExtractResult.of(phi)  # location tests never refine the guard
        return ExtractResult.of(phi.conjoin(Literal(a.field, EQ if positive else NE, a.value)))
    if isinstance(a, StateTest):
        holds = (state[a.component] == a.value) == positive
        return ExtractResult.of(phi) if holds else _EMPTY
    if isinstance(a, Neg):
        return _extract_predicate(a.operand, state, phi, not positive)
    if isinstance(a, (Conj, Disj)):
        if isinstance(a, Conj) == positive:
            # a AND b, and not (a OR b) = (not a) AND (not b): sequencing.
            return _pred_seq(a.left, a.right, state, phi, positive)
        # a OR b, and not (a AND b) = (not a) OR (not b): a join.
        return _extract_predicate(a.left, state, phi, positive).join(
            _extract_predicate(a.right, state, phi, positive)
        )
    raise TypeError(f"not a predicate: {a!r}")


def _pred_seq(
    left: Predicate, right: Predicate, state: StateVector, phi: Formula, positive: bool
) -> ExtractResult:
    """Conjunction as sequencing: thread left's formulas through right."""
    first = _extract_predicate(left, state, phi, positive)
    edges = set(first.edges)
    formulas: Set[Formula] = set()
    for psi in first.formulas:
        threaded = _extract_predicate(right, state, psi, positive)
        edges.update(threaded.edges)
        formulas.update(threaded.formulas)
    return ExtractResult(frozenset(edges), frozenset(formulas))


def formulas_at(symbolic: SymbolicProgram, state: StateVector) -> FrozenSet[Formula]:
    """``snd(⟬p⟭~k true)`` read off the symbolic walk: the path formulas
    whose guard holds at ``state``, to compare with ``extract``'s."""
    return frozenset(phi for g, phi in symbolic.extraction.formulas if g.holds(state))


def conjoin_all(conjunction, literals: Iterable[Literal]):
    """``conjunction`` with every literal conjoined, or ``None`` once contradictory."""
    for literal in literals:
        if conjunction is None:
            return None
        conjunction = conjunction.conjoin(literal)
    return conjunction


def implies(a, b) -> bool:
    """Syntactic implication of two conjunctions: meeting ``b`` adds nothing to ``a``."""
    return a.meet(b) is a


def to_predicate(phi: Formula) -> Predicate:
    """An event guard rendered as a NetKAT predicate."""
    terms = []
    for l in sorted(phi.literals):
        t = test(l.field, l.value)
        terms.append(t if l.op == EQ else neg(t))
    return conj(*terms) if terms else TRUE


def eval_fdd(d: FDD, packet: Packet) -> FrozenSet[Packet]:
    """An FDD applied to a packet: the set of output packets."""
    while isinstance(d, Branch):
        d = d.hi if packet.get(d.field) == d.value else d.lo
    out = set()
    for mod in d.actions:
        result = packet
        for field, value in mod:
            result = result.set(field, value)
        out.add(result)
    return frozenset(out)


def _predicate_fields(a: Predicate) -> FrozenSet[str]:
    if isinstance(a, (PTrue, PFalse)):
        return frozenset()
    if isinstance(a, Test):
        return frozenset((a.field,))
    if isinstance(a, Neg):
        return _predicate_fields(a.operand)
    if isinstance(a, (Conj, Disj)):
        return _predicate_fields(a.left) | _predicate_fields(a.right)
    raise TypeError(f"not a predicate: {a!r}")


def policy_fields(p: Policy) -> FrozenSet[str]:
    """All field names a policy tests or assigns (a link's are sw and pt)."""
    if isinstance(p, Filter):
        return _predicate_fields(p.predicate)
    if isinstance(p, Assign):
        return frozenset((p.field,))
    if isinstance(p, (Union, Seq)):
        return policy_fields(p.left) | policy_fields(p.right)
    if isinstance(p, Star):
        return policy_fields(p.operand)
    if isinstance(p, Dup):
        return frozenset()
    if isinstance(p, Link):
        return frozenset((SW, PT))
    raise TypeError(f"not a policy: {p!r}")


def _predicate_size(a: Predicate) -> int:
    if isinstance(a, (PTrue, PFalse, Test)):
        return 1
    if isinstance(a, Neg):
        return 1 + _predicate_size(a.operand)
    if isinstance(a, (Conj, Disj)):
        return 1 + _predicate_size(a.left) + _predicate_size(a.right)
    raise TypeError(f"not a predicate: {a!r}")


def policy_size(p: Policy) -> int:
    """Number of AST nodes (predicates count one node per connective)."""
    if isinstance(p, Filter):
        return 1 + _predicate_size(p.predicate)
    if isinstance(p, (Assign, Dup, Link)):
        return 1
    if isinstance(p, (Union, Seq)):
        return 1 + policy_size(p.left) + policy_size(p.right)
    if isinstance(p, Star):
        return 1 + policy_size(p.operand)
    raise TypeError(f"not a policy: {p!r}")


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


def _occurrence_bound(ets: ETS, max_occurrences: Optional[int]) -> int:
    """The bound the reference walk unrolls to: ``max_occurrences`` when
    given, else 64 on a cyclic ETS and the edge count + 1 on an acyclic
    one, whose paths are no longer (the conversion asks for cyclicity
    only once an occurrence reaches 64)."""
    if max_occurrences is not None:
        return max_occurrences
    return 64 if ets.has_loops() else len(ets.edges) + 1


def family_of_ets(
    ets: ETS,
    max_occurrences: Optional[int] = None,
    compared: Optional[Set[Tuple[StateVector, StateVector]]] = None,
) -> Dict[EventSet, StateVector]:
    """Compute ``F(T)``: the event-sets collected along paths from ``v0``.

    Repeated occurrences of the same base event along a path are renamed
    with increasing occurrence indices, so a chain (or unrolled loop)
    labeled with one syntactic event yields distinct NES events.  Loops
    are unrolled until an event would occur more than ``max_occurrences``
    times, which raises (the paper restricts attention to loop-free ETSs;
    bounded unrolling approximates the lazily-computed infinite NES).
    By default only a cyclic ETS is bounded (``_occurrence_bound``).

    The traversal reads the initial vertex and the edges; it reads the
    vertex *labels* only where condition 1 has something to compare —
    two paths collecting one event-set at different state vectors.
    Those state pairs are added to ``compared`` when given: they are all
    a re-labelled ETS has to re-check (``nes_of_ets``).

    The frozenset reference for the mask walk of ``nes_of_ets``.
    """
    bound = _occurrence_bound(ets, max_occurrences)
    family: Dict[EventSet, StateVector] = {frozenset(): ets.initial}
    visited: Set[Tuple[StateVector, EventSet]] = set()
    stack: List[Tuple[StateVector, EventSet, Dict[Event, int]]]
    stack = [(ets.initial, frozenset(), {})]  # + occurrences per base event
    # Intern renamed events: equal occurrences reached along different
    # paths become the identical object, so the family's frozensets hash
    # cached events and the NES interning can use identity lookups.
    interned: Dict[Event, Event] = {}
    while stack:
        state, collected, counts = stack.pop()
        if (state, collected) in visited:
            continue
        visited.add((state, collected))
        for edge in ets.out_edges(state):
            base = edge.event.base()
            occurrence = counts.get(base, 0)
            if occurrence >= bound:
                raise ETSConversionError(
                    f"event {base!r} occurred more than {bound} "
                    "times along a path; is the ETS an unbounded loop?"
                )
            renamed = base.renamed(occurrence)
            renamed = interned.setdefault(renamed, renamed)
            extended = collected | {renamed}
            previous = family.get(extended)
            if previous is None:
                family[extended] = edge.dst
            elif previous != edge.dst:
                if compared is not None:
                    compared.add((previous, edge.dst))
                if ets.configuration(previous) != ets.configuration(edge.dst):
                    raise UniqueConfigurationError(
                        f"event-set {set(extended)} is reached at state "
                        f"{previous} and at state {edge.dst}, whose "
                        "configurations differ (condition 1 of section 3.1)"
                    )
            stack.append((edge.dst, extended, {**counts, base: occurrence + 1}))
    return family


def _sorted_masks(
    family: Dict[EventSet, StateVector]
) -> Tuple[List[EventSet], List[int]]:
    """Family members in canonical order (by size, then by the sorted
    ranks of their events' reprs), and their bitmask encodings."""
    text = {event: repr(event) for event in frozenset().union(*family)}
    rank = {r: i for i, r in enumerate(sorted(set(text.values())))}
    order = {event: rank[r] for event, r in text.items()}
    sets = sorted(family, key=lambda s: (len(s), sorted(map(order.__getitem__, s))))
    index: Dict[Event, int] = {}
    for member in sets:
        for event in member:
            index.setdefault(event, len(index))
    return sets, [sum(1 << index[event] for event in member) for member in sets]


def check_finite_complete(
    family: Dict[EventSet, StateVector]
) -> List[Tuple[EventSet, EventSet]]:
    """Return the pairs violating finite completeness (empty = OK).

    Pairwise closure implies n-ary closure: if ``E1..En`` share an upper
    bound, so do ``E1 union E2`` and ``E3``, and so on inductively.

    An LUB-closure check driven by the maximal antichain: two members
    have an upper bound in the family iff both lie below one of its
    maximal elements.  Members are grouped by *signature* -- the bitmask
    of maximal elements above them -- and pairs are enumerated once per
    pair of intersecting signature classes, so every pair with a common
    upper bound is visited exactly once (never more pairs than the
    global quadratic scan) and cross-block pairs in wide families --
    disjoint signatures -- are never enumerated at all.
    """
    sets, masks = _sorted_masks(family)
    mask_family = set(masks)
    set_of_mask = dict(zip(masks, sets))
    maximal = _extremal(mask_family, True)  # the maximal antichain
    # Signature classes, in the canonical member order.
    classes: Dict[int, List[int]] = {}
    for m in masks:
        signature = 0
        for t, big in enumerate(maximal):
            if m | big == big:
                signature |= 1 << t
        classes.setdefault(signature, []).append(m)
    violations: List[Tuple[EventSet, EventSet]] = []
    class_list = list(classes.items())
    for a, (sig_a, members_a) in enumerate(class_list):
        for b in range(a, len(class_list)):
            sig_b, members_b = class_list[b]
            if not sig_a & sig_b:
                continue  # no shared upper bound: no closure obligation
            for i, m1 in enumerate(members_a):
                others = members_a[i + 1 :] if b == a else members_b
                for m2 in others:
                    lub = m1 | m2
                    # Comparable pairs have their lub in the family.
                    if lub == m1 or lub == m2 or lub in mask_family:
                        continue
                    violations.append((set_of_mask[m1], set_of_mask[m2]))
    return violations


def of_family(family: Iterable[AbstractSet]) -> EventStructure:
    """The event structure of a family of configurations (Winskel,
    Theorem 1.1.12): the events are the members' events, a set is
    consistent iff some member covers it, and ``X ⊢ e`` iff some
    member containing ``e``, less ``e``, lies in ``X``.

    Each member is encoded once and its enablers are ``mask ^ bit`` per
    set bit: every member holding ``e`` is visited, where ``nes_of_ets``
    reads ``e``'s enablers off the walk's recorded parents.
    """
    covers = frozenset(frozenset(member) for member in family)
    universe = sorted(frozenset().union(*covers), key=repr)
    index = {event: i for i, event in enumerate(universe)}
    cover_masks = {sum(1 << index[event] for event in member) for member in covers}
    base: Dict[int, Set[int]] = {}
    for mask in cover_masks:
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            base.setdefault(bit.bit_length() - 1, set()).add(mask ^ bit)
    return EventStructure.of_masks(universe, cover_masks, base)


def nes_of_ets_naive(ets: ETS, max_occurrences: Optional[int] = None) -> NES:
    """``nes_of_ets`` without a ``previous`` conversion, on frozensets:
    :func:`family_of_ets`, :func:`check_finite_complete` and
    :func:`of_family`, each event-set encoded once for ``g``.  Raises
    what the mask conversion raises, and records the same
    ``_condition1_pairs``."""
    compared: Set[Tuple[StateVector, StateVector]] = set()
    bound = _occurrence_bound(ets, max_occurrences)
    family = family_of_ets(ets, max_occurrences=bound, compared=compared)
    violations = check_finite_complete(family)
    if violations:
        e1, e2 = violations[0]
        raise FiniteCompletenessError(
            f"event-sets {set(e1)} and {set(e2)} have an upper bound in "
            f"F(T) but their union is not in F(T) "
            f"({len(violations)} violating pair(s) total; condition 2 of "
            "section 3.1, e.g. Figure 3(c))"
        )
    structure = of_family(family)
    configurations = {state: ets.configuration(state) for state in ets.states()}
    g = {structure.encode(event_set): state for event_set, state in family.items()}
    object.__setattr__(ets, "_condition1_pairs", frozenset(compared))
    return NES(structure, g, configurations)


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
    predicate from a fresh AST, and ``compile_policy`` compiles every
    union operand and converts every switch FDD to a table, compiled
    or converted before or not.  Hash-consing and
    the operation memos stay: they make FDDs canonical, so both
    builders must produce the same diagrams."""

    def __init__(self) -> None:
        super().__init__()
        self._memo_mask: dict = {}
        self._memo_of_policy = _Forgetful()
        self._memo_of_predicate = _Forgetful()
        self.knowledge_fdds = _Forgetful()
        self._node_tables = _Forgetful()
        self._contributions = _Forgetful()

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


def guarded_tables_naive(compiled: CompiledNES) -> Dict[int, FlowTable]:
    """The guarded merge rule by rule: every configuration's rules, each
    guarded by its tag and formatted afresh; the reference for
    :meth:`CompiledNES.guarded_tables`, which guards each table once per
    tag."""
    tables: Dict[int, List[Rule]] = {n: [] for n in compiled.topology.switches}
    for state in compiled.states:
        config_id = compiled.config_ids[state]
        for switch, table in compiled.configurations[state].tables.items():
            for rule in table:
                guarded_match = rule.match.guarded(TAG_FIELD, config_id)
                tables.setdefault(switch, []).append(
                    Rule(rule.priority, guarded_match, rule.actions)
                )
    return {n: FlowTable(rules) for n, rules in tables.items()}


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
