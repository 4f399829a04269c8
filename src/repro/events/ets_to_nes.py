"""Conversion from ETSs to NESs (section 3.1).

The construction: collect ``W(T)``, the event sequences along paths from
the initial vertex (renaming repeated occurrences of the same event, as
required for chains and loops); form the candidate family
``F(T) = { E(p) | p in W(T) }``; check the two side conditions

1. *unique configuration*: all paths collecting the same event-set end
   at vertices labeled with the same configuration, and
2. *finite completeness*: the family is closed under existing least
   upper bounds;

then build ``con`` and ``⊢`` from the family (Winskel, Theorem 1.1.12;
:meth:`EventStructure.of_family <repro.events.structure.EventStructure.of_family>`):
a set is consistent iff it is covered by a family member, and
``X ⊢ e`` iff some ``E ∖ {e}`` with ``e ∈ E ∈ F`` is contained in ``X``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..netkat.ast import Policy
from ..stateful.ast import StateVector
from .event import Event, EventSet

if TYPE_CHECKING:  # avoid a circular import: stateful.ets uses events.event
    from ..stateful.ets import ETS
from .nes import NES
from .structure import EventStructure, _extremal

__all__ = [
    "ETSConversionError",
    "UniqueConfigurationError",
    "FiniteCompletenessError",
    "family_of_ets",
    "check_finite_complete",
    "nes_of_ets",
]


class ETSConversionError(Exception):
    """The ETS does not give rise to an NES."""


class UniqueConfigurationError(ETSConversionError):
    """Two paths with the same event-set end at different configurations."""


class FiniteCompletenessError(ETSConversionError):
    """The family F(T) is not closed under existing least upper bounds."""


def _occurrence_bound(ets: "ETS", max_occurrences: Optional[int]) -> int:
    """``max_occurrences`` when given, else 64 on a cyclic ETS; an acyclic
    one has no path longer than its edge count, so that never trips."""
    if max_occurrences is not None:
        return max_occurrences
    return 64 if ets.has_loops() else len(ets.edges) + 1


def family_of_ets(
    ets: "ETS",
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
    By default only a cyclic ETS is bounded (:func:`_occurrence_bound`).

    The traversal reads the initial vertex and the edges; it reads the
    vertex *labels* only where condition 1 has something to compare —
    two paths collecting one event-set at different state vectors.
    Those state pairs are added to ``compared`` when given: they are all
    a re-labelled ETS has to re-check (:func:`nes_of_ets`).
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


def _adopted_nes(
    ets: "ETS",
    bound: int,
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
        or any(event.eid >= bound for event in previous_nes.events)
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
    (the pre-delta one of :meth:`repro.pipeline.Pipeline.update`; a
    ``None`` ETS — an NES that came out of a warm artifact — lends
    nothing).  The construction reads the initial vertex and the edges,
    and the vertex labels only through condition 1 — so when ``ets`` has
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
    bound = _occurrence_bound(ets, max_occurrences)
    if previous is not None:
        adopted = _adopted_nes(ets, bound, *previous)
        if adopted is not None:
            return adopted
    compared: Set[Tuple[StateVector, StateVector]] = set()
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

    structure = EventStructure.of_family(family)
    configurations: Dict[StateVector, Policy] = {
        state: ets.configuration(state) for state in ets.states()
    }
    # States referenced by the family but outside ets.states() cannot occur
    # (family destinations always come from ETS edges), so this is total.
    nes = NES(structure, family, configurations)
    object.__setattr__(ets, "_condition1_pairs", frozenset(compared))
    return nes
