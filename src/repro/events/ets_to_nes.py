"""Conversion from ETSs to NESs (section 3.1).

The construction: collect ``W(T)``, the event sequences along paths from
the initial vertex (renaming repeated occurrences of the same event, as
required for chains and loops); form the candidate family
``F(T) = { E(p) | p in W(T) }``; check the two side conditions

1. *unique configuration*: all paths collecting the same event-set end
   at vertices labeled with the same configuration, and
2. *finite completeness*: the family is closed under existing least
   upper bounds;

then build ``con`` and ``⊢`` from the family (Winskel, Theorem 1.1.12):
a set is consistent iff it is covered by a family member, and
``X ⊢ e`` iff some ``E ∖ {e}`` with ``e ∈ E ∈ F`` is contained in ``X``.

All of it is one depth-first walk on int masks (:func:`_masks_of_ets`):
an event gets a bit when first discovered, and the walk records each
new member's parent and the event that extended it.  The members are
re-bitted once, parent before child, into the :class:`EventStructure`'s
repr order; finite completeness is checked and the structure built on
those masks, with no event-set ever a frozenset.

The recorded parents give the enablers exactly.  Each parent ``P``
recorded for ``e`` is ``M ∖ {e}`` for the member ``M = P ∪ {e}``.  And
every member ``M`` holding ``e`` lies above one: if ``e`` extended
``M``'s own parent, that parent is ``M ∖ {e}``; otherwise the parent
holds ``e`` and was discovered earlier, so by induction on discovery
order it -- hence ``M`` -- lies above a parent recorded for ``e``, which
lacks ``e``.  So ``e``'s minimal enablers are its recorded parents'
minimal elements, found without visiting every member that holds ``e``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..netkat.ast import Policy
from ..stateful.ast import StateVector
from .event import Event

if TYPE_CHECKING:  # avoid a circular import: stateful.ets uses events.event
    from ..stateful.ets import ETS
from .nes import NES
from .structure import EventStructure

__all__ = [
    "ETSConversionError",
    "UniqueConfigurationError",
    "FiniteCompletenessError",
    "nes_of_ets",
]


class ETSConversionError(Exception):
    """The ETS does not give rise to an NES."""


class UniqueConfigurationError(ETSConversionError):
    """Two paths with the same event-set end at different configurations."""


class FiniteCompletenessError(ETSConversionError):
    """The family F(T) is not closed under existing least upper bounds."""


def _past_bound(ets: "ETS", occurrence: int, max_occurrences: Optional[int]) -> bool:
    """Is occurrence index ``occurrence`` past the bound: ``max_occurrences``
    when given, else 64 on a cyclic ETS?  An acyclic ETS has no path
    longer than its edge count, so by default it has no bound, and
    cyclicity is asked only once an occurrence reaches 64."""
    if max_occurrences is not None:
        return occurrence >= max_occurrences
    return occurrence >= 64 and ets.has_loops()


def _masks_of_ets(
    ets: "ETS",
    max_occurrences: Optional[int],
    compared: Set[Tuple[StateVector, StateVector]],
) -> Tuple[List[Event], Dict[int, StateVector], List[Tuple[int, int]]]:
    """``F(T)`` by one depth-first walk of ``(state, collected)`` pairs,
    each event-set an int mask over the events in discovery order.

    Repeated occurrences of a base event along a path are renamed with
    increasing occurrence indices, so a chain (or unrolled loop) labeled
    with one syntactic event yields distinct NES events; an occurrence
    past the bound (:func:`_past_bound`) raises (the paper restricts
    attention to loop-free ETSs; bounded unrolling approximates the
    lazily-computed infinite NES).  Vertex labels are read only where
    condition 1 has something to compare -- two paths collecting one
    event-set at different states -- and those state pairs are added to
    ``compared``.

    Returns the events (bit ``i`` is ``events[i]``), the family
    (mask -> state, in discovery order), and each member but ``∅``'s
    ``(parent mask, bit)`` in that order.
    """
    events: List[Event] = []
    kinds: Dict[Event, int] = {}  # base event -> a small int standing for it
    bits: Dict[Tuple[int, int], int] = {}  # (kind, occurrence) -> bit
    family: Dict[int, StateVector] = {0: ets.initial}
    links: List[Tuple[int, int]] = []
    visited: Set[Tuple[StateVector, int]] = set()
    stack: List[Tuple[StateVector, int, Dict[int, int]]]
    stack = [(ets.initial, 0, {})]  # + occurrences per kind
    while stack:
        state, collected, counts = stack.pop()
        if (state, collected) in visited:
            continue
        visited.add((state, collected))
        for edge in ets.out_edges(state):
            base = edge.event.base()
            kind = kinds.setdefault(base, len(kinds))
            occurrence = counts.get(kind, 0)
            bit = bits.get((kind, occurrence))
            if bit is None:  # a bit is only ever made within the bound
                if _past_bound(ets, occurrence, max_occurrences):
                    bound = 64 if max_occurrences is None else max_occurrences
                    raise ETSConversionError(
                        f"event {base!r} occurred more than {bound} "
                        "times along a path; is the ETS an unbounded loop?"
                    )
                bit = bits[kind, occurrence] = 1 << len(events)
                events.append(base.renamed(occurrence))
            extended = collected | bit
            known = family.get(extended)
            if known is None:
                family[extended] = edge.dst
                links.append((collected, bit))
            elif known != edge.dst:
                compared.add((known, edge.dst))
                if ets.configuration(known) != ets.configuration(edge.dst):
                    members = {events[b.bit_length() - 1] for b in _bits(extended)}
                    raise UniqueConfigurationError(
                        f"event-set {members} is reached at state "
                        f"{known} and at state {edge.dst}, whose "
                        "configurations differ (condition 1 of section 3.1)"
                    )
            stack.append((edge.dst, extended, {**counts, kind: occurrence + 1}))
    return events, family, links


def _bits(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _finite_completeness_violations(
    masks: Iterable[int], maximal: Sequence[int]
) -> List[Tuple[int, int]]:
    """The pairs of family ``masks`` violating finite completeness, in
    order (empty = OK), given the family's ``maximal`` elements.

    Pairwise closure implies n-ary closure: if ``E1..En`` share an upper
    bound, so do ``E1 union E2`` and ``E3``, and so on inductively.  Two
    members have an upper bound in the family iff both lie below one of
    its maximal elements, so members are grouped by *signature* -- the
    bitmask of maximal elements above them -- and pairs are enumerated
    once per pair of intersecting signature classes: every pair with a
    common upper bound is visited exactly once, and cross-block pairs
    in wide families -- disjoint signatures -- never.  A comparable
    pair's lub is its larger member, so it never violates: a class
    whose members form a chain is skipped whole, and a chain family
    (every cap-N app) checks no pair at all.
    """
    family = set(masks)
    classes: Dict[int, List[int]] = {}  # signature -> members, in order
    for m in masks:
        signature = 0
        for t, big in enumerate(maximal):
            if m | big == big:
                signature |= 1 << t
        classes.setdefault(signature, []).append(m)
    violations: List[Tuple[int, int]] = []
    class_list = list(classes.items())
    for a, (sig_a, members_a) in enumerate(class_list):
        for sig_b, members_b in class_list[a:]:
            if not sig_a & sig_b:
                continue  # no shared upper bound: no closure obligation
            if members_b is members_a and _is_chain(members_a):
                continue
            for i, m1 in enumerate(members_a):
                others = members_a[i + 1 :] if members_b is members_a else members_b
                violations += [(m1, m2) for m2 in others if m1 | m2 not in family]
    return violations


def _is_chain(masks: List[int]) -> bool:
    """Are ``masks`` totally ordered by inclusion?"""
    ordered = sorted(masks, key=int.bit_count)
    return all(low | high == high for low, high in zip(ordered, ordered[1:]))


def _adopted_nes(
    ets: "ETS",
    max_occurrences: Optional[int],
    previous_ets: Optional["ETS"],
    previous_nes: NES,
) -> Optional[NES]:
    """``previous_nes`` over ``ets``'s vertex labels, or ``None`` when a
    from-scratch conversion of ``ets`` could come out differently."""
    # No record: previous_nes was not converted from previous_ets here.
    pairs = previous_ets and previous_ets.__dict__.get("_condition1_pairs")
    if (
        pairs is None
        or ets.initial != previous_ets.initial
        or ets.edges != previous_ets.edges
        or ets.states() != previous_ets.states()
        or _past_bound(
            ets, max((e.eid for e in previous_nes.events), default=0), max_occurrences
        )
        or any(ets.configuration(a) != ets.configuration(b) for a, b in pairs)
    ):
        return None
    object.__setattr__(ets, "_condition1_pairs", pairs)
    return previous_nes.with_configurations(
        {state: ets.configuration(state) for state in ets.states()}
    )


def nes_of_ets(
    ets: "ETS",
    max_occurrences: Optional[int] = None,
    previous: Optional[Tuple[Optional["ETS"], NES]] = None,
) -> NES:
    """Convert an ETS to an NES, enforcing both section 3.1 conditions.

    ``previous`` is an ``(ets, nes)`` pair from an earlier conversion
    (the one a :class:`repro.pipeline.Pipeline` stored for the same
    initial state and edges; a ``None`` ETS lends nothing).  The
    construction reads the initial vertex and the edges, and the vertex
    labels only through condition 1 — so when ``ets`` has
    the earlier ETS's initial state, edges and states, the family, the
    finite-completeness check and the :class:`EventStructure` are the
    ones already computed, and the result shares them: the earlier
    structure and ``g`` with *this* ETS's configurations.  Condition 1
    is re-checked on exactly the state pairs the earlier traversal had
    to compare (kept in the ETS's ``__dict__`` like its other derived
    indexes — in-process, outside equality — and handed on to ``ets``,
    so a chain of re-labellings keeps adopting); if one now disagrees,
    or anything else differs, the full conversion below runs, and its
    result or error is the answer.
    """
    if previous is not None:
        adopted = _adopted_nes(ets, max_occurrences, *previous)
        if adopted is not None:
            return adopted
    compared: Set[Tuple[StateVector, StateVector]] = set()
    events, family, links = _masks_of_ets(ets, max_occurrences, compared)
    # Re-bit once into the structure's repr order, each member from its
    # parent (discovery order puts a parent first), and collect each
    # event's recorded parents: its enablers (see the module docstring).
    order = sorted(range(len(events)), key=lambda i: repr(events[i]))
    rank = {1 << i: r for r, i in enumerate(order)}
    remap = {0: 0}
    enablers: Dict[int, List[int]] = {r: [] for r in range(len(order))}
    for parent, bit in links:
        r, mask = rank[bit], remap[parent]
        enablers[r].append(mask)
        remap[parent | bit] = mask | 1 << r
    g = {remap[mask]: state for mask, state in family.items()}
    structure = EventStructure.of_masks([events[i] for i in order], g, enablers)
    maximal = structure.maximal_cover_masks
    violations = _finite_completeness_violations(g, maximal)
    if violations:
        # The first pair in the canonical member order: by size, then by
        # the sorted repr ranks -- the bit positions -- of the events.
        canonical = sorted(g, key=lambda m: (m.bit_count(), _bits(m)))
        first = _finite_completeness_violations(canonical, maximal)[0]
        e1, e2 = map(structure.decode, first)
        raise FiniteCompletenessError(
            f"event-sets {set(e1)} and {set(e2)} have an upper bound in "
            f"F(T) but their union is not in F(T) "
            f"({len(violations)} violating pair(s) total; condition 2 of "
            "section 3.1, e.g. Figure 3(c))"
        )
    configurations: Dict[StateVector, Policy] = {
        state: ets.configuration(state) for state in ets.states()
    }
    # States referenced by the family but outside ets.states() cannot occur
    # (family destinations always come from ETS edges), so this is total.
    nes = NES(structure, g, configurations)
    object.__setattr__(ets, "_condition1_pairs", frozenset(compared))
    return nes
