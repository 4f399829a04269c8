"""Locality restrictions (section 2, "Locality Restrictions").

A set of events is *inconsistent* when ``con`` rejects it, and
*minimally inconsistent* when all of its proper subsets are consistent.
An NES is *locally determined* iff every minimally-inconsistent set has
all of its events at the same switch -- the condition that makes the
structure implementable without cross-switch synchronization (Lemma 1
shows implementations of non-locally-determined NESs must either buffer
packets or risk wrong decisions).

Performance
-----------
Consistency is "X is a subset of some cover", so a nonempty X is
*inconsistent* exactly when it meets the complement of *every* cover
(only maximal covers matter).  The minimally-inconsistent sets are thus
the **minimal hitting sets (minimal transversals)** of the hypergraph
whose edges are the cover complements.  :func:`minimally_inconsistent_masks`
enumerates them with Berge's incremental algorithm on int bitmasks:
process one edge at a time, keep the transversals that already hit it,
extend each miss by one vertex of the edge, and discard candidates
subsumed by an existing transversal (single AND/OR subset tests).  This
replaces the previous brute force over all 2^n subsets -- structures
where every set is consistent (e.g. the bandwidth-cap chain) now cost
one pass over the covers instead of 2^n ``con`` calls, and results are
memoized on the structure so repeated compiles pay nothing.

Two special cases keep the dual exact: with no covers at all every
nonempty set is inconsistent (the hypergraph degenerates to the single
edge E, whose minimal transversals are the singletons), and a cover
equal to E contributes an empty edge that nothing can hit (every set is
consistent, so there are no inconsistent sets).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .event import EventSet
from .nes import NES
from .structure import EventStructure

__all__ = [
    "minimally_inconsistent_sets",
    "minimally_inconsistent_masks",
    "is_locally_determined",
    "locality_violations",
]


def minimally_inconsistent_masks(
    structure: EventStructure,
    max_size: Optional[int] = None,
) -> Tuple[int, ...]:
    """Minimally-inconsistent sets as bitmasks (see module docstring).

    Results are cached on the structure per ``max_size``; the unbounded
    result is reused to answer bounded queries by filtering.
    """
    cache = structure._transversal_cache
    cached = cache.get(max_size)
    if cached is not None:
        return cached
    full = cache.get(None)
    if full is not None:  # a bounded query after the unbounded one: filter
        result = tuple(m for m in full if m.bit_count() <= max_size)
        cache[max_size] = result
        return result

    all_mask = structure.all_mask
    edges = sorted(
        {all_mask & ~cover for cover in structure.maximal_cover_masks}
    )
    if not structure.maximal_cover_masks:
        # No covers: every nonempty set is inconsistent, i.e. the single
        # hypergraph edge is the full event set.
        edges = [all_mask] if all_mask else []

    transversals: List[int] = [0]
    for edge in edges:
        if edge == 0:  # a cover equal to E: nothing is inconsistent
            transversals = []
            break
        hit = [t for t in transversals if t & edge]
        miss = [t for t in transversals if not t & edge]
        if not miss:
            continue
        candidates: Set[int] = set()
        for t in miss:
            scan = edge
            while scan:
                low = scan & -scan
                scan ^= low
                candidates.add(t | low)
        if max_size is not None:
            candidates = {c for c in candidates if c.bit_count() <= max_size}
        # Keep candidates not subsumed by a transversal that already hits
        # the edge, then drop non-minimal candidates among themselves.
        fresh = [
            c
            for c in candidates
            if not any(h & c == h for h in hit)
        ]
        fresh = [
            c
            for c in fresh
            if not any(d != c and d & c == d for d in fresh)
        ]
        transversals = hit + fresh
    # The empty set hits every edge only when there are no edges, in
    # which case there are no inconsistent sets at all.
    result = tuple(sorted(t for t in transversals if t))
    cache[max_size] = result
    return result


def minimally_inconsistent_sets(
    structure: EventStructure,
    max_size: Optional[int] = None,
) -> FrozenSet[EventSet]:
    """All minimally-inconsistent subsets of the structure's events."""
    return frozenset(
        structure.decode(mask)
        for mask in minimally_inconsistent_masks(structure, max_size)
    )


def _switch_masks(nes: NES) -> Dict[int, int]:
    """Bitmask of this NES's events per switch."""
    structure = nes.structure
    masks: Dict[int, int] = {}
    for event, index in structure.event_index.items():
        masks[event.location.switch] = masks.get(event.location.switch, 0) | (
            1 << index
        )
    return masks


def locality_violations(nes: NES) -> FrozenSet[EventSet]:
    """Minimally-inconsistent sets whose events span multiple switches."""
    structure = nes.structure
    single_switch = tuple(_switch_masks(nes).values())
    return frozenset(
        structure.decode(mask)
        for mask in minimally_inconsistent_masks(structure)
        if not any(mask | sw == sw for sw in single_switch)
    )


def is_locally_determined(nes: NES) -> bool:
    """Does the NES satisfy the locally-determined condition?"""
    return not locality_violations(nes)
