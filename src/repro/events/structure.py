"""Event structures (Winskel 1987; Definition 3 of the paper).

An event structure endows a set of events with a *consistency predicate*
``con`` (which finite sets of events may occur in one execution) and an
*enabling relation* ``⊢`` (which sets of events enable a new event).
Both are required to be monotone in the right way: ``con`` is downward
closed, ``⊢`` is upward closed in its first argument.

This implementation is for finite structures.  Consistency is
represented by a family of *covers* -- ``X`` is consistent iff it is a
subset of some cover -- which is automatically downward closed.
Enabling is represented by base pairs ``(X0, e)`` -- ``X ⊢ e`` iff some
``X0 ⊆ X`` is a base -- which is automatically upward closed.
:meth:`EventStructure.of_family` derives both from a family of
configurations (Winskel, Theorem 1.1.12), which is how the ETS
conversion (:mod:`repro.events.ets_to_nes`) makes its structure.

Internally events are interned to integer indices (in deterministic
``repr`` order) and every event set -- covers, enabling bases, the
arguments of ``con``/``enables``, the frontier of the event-set search
-- is a Python int bitmask.  Subset tests, unions, and intersections are
single machine-word-ish operations instead of frozenset scans, which is
what lets the locality pipeline (:mod:`repro.events.locality`) scale.
The public API still speaks frozensets; ``encode``/``decode`` translate
at the boundary.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

E = TypeVar("E", bound=Hashable)

__all__ = ["EventStructure"]

# The most event-sets one enumeration may find.
MAX_EVENT_SETS = 100_000


class EventStructure(Generic[E]):
    """A finite event structure ``(E, con, ⊢)``."""

    def __init__(
        self,
        events: Iterable[E],
        consistency_covers: Iterable[AbstractSet[E]],
        enabling_base: Iterable[Tuple[AbstractSet[E], E]],
    ):
        self._intern(events)
        self._covers: FrozenSet[FrozenSet[E]] = frozenset(
            frozenset(c) for c in consistency_covers
        )
        cover_masks: Set[int] = set()
        for cover in self._covers:
            try:
                cover_masks.add(self.encode(cover))
            except KeyError:
                raise ValueError(
                    f"cover {set(cover)} mentions unknown events"
                ) from None
        base: Dict[int, Set[int]] = {}
        for enabler, event in enabling_base:
            event_index = self._index.get(event)
            if event_index is None:
                raise ValueError(f"enabling base names unknown event {event!r}")
            try:
                enabler_mask = self.encode(enabler)
            except KeyError:
                raise ValueError(
                    f"enabling base {set(enabler)} mentions unknown events"
                ) from None
            base.setdefault(event_index, set()).add(enabler_mask)
        self._set_relations(cover_masks, base)

    @classmethod
    def of_family(cls, family: Iterable[AbstractSet[E]]) -> "EventStructure[E]":
        """The event structure of a family of configurations (Winskel,
        Theorem 1.1.12): the events are the members' events, a set is
        consistent iff some member covers it, and ``X ⊢ e`` iff some
        member containing ``e``, less ``e``, lies in ``X``.

        Equal to ``EventStructure(events, family, [(m - {e}, e) ...])``
        over every member ``m`` and ``e ∈ m``, but each member is encoded
        once and its enablers are ``mask ^ bit`` per set bit.
        """
        self = cls.__new__(cls)
        covers = frozenset(frozenset(member) for member in family)
        self._intern(frozenset().union(*covers))
        self._covers = covers
        cover_masks = {self.encode(member) for member in self._covers}
        base: Dict[int, Set[int]] = {}
        for mask in cover_masks:
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                base.setdefault(bit.bit_length() - 1, set()).add(mask ^ bit)
        self._set_relations(cover_masks, base)
        return self

    def _intern(self, events: Iterable[E]) -> None:
        self._events: FrozenSet[E] = frozenset(events)
        # Intern events in deterministic (repr) order; bit i of every mask
        # in this structure stands for self._universe[i].
        self._universe: Tuple[E, ...] = tuple(sorted(self._events, key=repr))
        self._index: Dict[E, int] = {e: i for i, e in enumerate(self._universe)}
        # id()-keyed shadow of the interning map: most encode() calls pass
        # the very objects interned in the universe, and an identity lookup
        # skips (potentially deep) event hashing.  Safe because the
        # universe tuple keeps those objects alive, so their ids are never
        # reused while this structure exists.  An equal event that is a
        # different object (none in any benchmark workload) hashes
        # through ``_index`` instead.
        self._index_by_id: Dict[int, int] = {
            id(e): i for i, e in enumerate(self._universe)
        }
        self._all_mask: int = (1 << len(self._universe)) - 1

    def _set_relations(
        self, cover_masks: Set[int], base: Dict[int, Set[int]]
    ) -> None:
        """``con`` and ``⊢`` from encoded covers and ``event index ->
        enabler masks``.  Only maximal covers matter for ``X ⊆ some
        cover`` queries, and only minimal enablers for ``⊢``: supersets
        are implied by monotonicity."""
        self._maximal_cover_masks: Tuple[int, ...] = _extremal(cover_masks, True)
        self._base_masks: Dict[int, Tuple[int, ...]] = {
            event_index: _extremal(enabler_masks, False)
            for event_index, enabler_masks in base.items()
        }
        # Memo for the locality pipeline (populated lazily by
        # repro.events.locality.minimally_inconsistent_masks).
        self._transversal_cache: Dict[Optional[int], Tuple[int, ...]] = {}

    # -- bitmask encoding ------------------------------------------------------

    @property
    def universe(self) -> Tuple[E, ...]:
        """Events in interning order: bit ``i`` encodes ``universe[i]``."""
        return self._universe

    @property
    def event_index(self) -> Mapping[E, int]:
        """The interning map (event -> bit position)."""
        return self._index

    @property
    def all_mask(self) -> int:
        """The bitmask of the full event set."""
        return self._all_mask

    @property
    def maximal_cover_masks(self) -> Tuple[int, ...]:
        """Encoded maximal covers; ``con(X)`` iff X ⊆ one of these."""
        return self._maximal_cover_masks

    def encode(self, subset: Iterable[E]) -> int:
        """Event set -> bitmask.  Raises KeyError on unknown events."""
        mask = 0
        index = self._index
        by_id = self._index_by_id
        for event in subset:
            i = by_id.get(id(event))
            if i is None:
                i = index[event]
            mask |= 1 << i
        return mask

    def _try_encode(self, subset: Iterable[E]) -> Optional[int]:
        """Like :meth:`encode` but None when an unknown event appears."""
        mask = 0
        index = self._index
        by_id = self._index_by_id
        for event in subset:
            i = by_id.get(id(event))
            if i is None:
                i = index.get(event)
                if i is None:
                    return None
            mask |= 1 << i
        return mask

    def decode(self, mask: int) -> FrozenSet[E]:
        """Bitmask -> event set."""
        universe = self._universe
        out = []
        while mask:
            low = mask & -mask
            out.append(universe[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # -- primitive relations ---------------------------------------------------

    @property
    def events(self) -> FrozenSet[E]:
        return self._events

    @property
    def covers(self) -> FrozenSet[FrozenSet[E]]:
        return self._covers

    def con(self, subset: AbstractSet[E]) -> bool:
        """The consistency predicate (downward closed by construction)."""
        mask = self._try_encode(subset)
        if mask is None:
            return False  # unknown events belong to no cover
        return self.con_mask(mask)

    def con_mask(self, mask: int) -> bool:
        """``con`` on an encoded event set."""
        if not mask:
            return True
        for cover in self._maximal_cover_masks:
            if mask | cover == cover:
                return True
        return False

    def enables(self, enabler: AbstractSet[E], event: E) -> bool:
        """``enabler ⊢ event`` (upward closed by construction)."""
        index = self._index.get(event)
        if index is None:
            return False
        mask = 0
        for e in enabler:
            i = self._index.get(e)
            if i is not None:  # unknown enabler events cannot shrink ⊢
                mask |= 1 << i
        return self.enables_mask(mask, index)

    def enables_mask(self, enabler_mask: int, event_index: int) -> bool:
        """``⊢`` on an encoded enabler and an interned event index."""
        for base in self._base_masks.get(event_index, ()):
            if base & enabler_mask == base:
                return True
        return False

    def minimal_enablers(self, event: E) -> Tuple[FrozenSet[E], ...]:
        """The minimal ``X`` with ``X ⊢ event``, in sorted-repr order."""
        masks = self._base_masks.get(self._index.get(event), ())
        return tuple(
            sorted(map(self.decode, masks), key=lambda s: sorted(map(repr, s)))
        )

    # -- derived notions -----------------------------------------------------

    def successors_mask(self, mask: int) -> int:
        """Bitmask of events that extend the encoded set to a larger one."""
        out = 0
        for index in range(len(self._universe)):
            bit = 1 << index
            if mask & bit:
                continue
            if self.enables_mask(mask, index) and self.con_mask(mask | bit):
                out |= bit
        return out

    def successors(self, event_set: AbstractSet[E]) -> Iterator[E]:
        """Events that can extend ``event_set`` to a larger event-set."""
        mask = self._try_encode(event_set)
        if mask is None:
            # Unknown events never help con(), so nothing extends the set.
            return iter(())
        return iter(self.decode(self.successors_mask(mask)))

    def event_sets_masks(self) -> FrozenSet[int]:
        """All event-sets as bitmasks (Definition 4)."""
        found: Set[int] = {0}
        frontier: List[int] = [0]
        while frontier:
            current = frontier.pop()
            free = self.successors_mask(current)
            while free:
                low = free & -free
                free ^= low
                extended = current | low
                if extended not in found:
                    if len(found) >= MAX_EVENT_SETS:
                        raise RuntimeError(
                            f"event-set enumeration exceeded {MAX_EVENT_SETS} sets"
                        )
                    found.add(extended)
                    frontier.append(extended)
        return frozenset(found)

    def event_sets(self) -> FrozenSet[FrozenSet[E]]:
        """All event-sets (Definition 4): consistent and secured from ∅."""
        return frozenset(self.decode(m) for m in self.event_sets_masks())

    def is_event_set_mask(self, mask: int) -> bool:
        """:meth:`is_event_set` on an encoded event set."""
        if not self.con_mask(mask):
            return False
        # Greedy securing: repeatedly add any enabled member.  Greedy is
        # complete here because enabling is monotone (adding events never
        # disables a member).
        secured = 0
        remaining = mask
        while remaining:
            progress = 0
            scan = remaining
            while scan:
                low = scan & -scan
                scan ^= low
                if self.enables_mask(secured, low.bit_length() - 1):
                    progress |= low
            if not progress:
                return False
            secured |= progress
            remaining &= ~progress
        return True

    def is_event_set(self, subset: AbstractSet[E]) -> bool:
        """Is ``subset`` consistent and reachable via the enabling relation?"""
        mask = self._try_encode(subset)
        if mask is None:
            return False
        return self.is_event_set_mask(mask)

    def allows_sequence(self, sequence: Sequence[E]) -> bool:
        """Is ``e0 e1 ... en`` allowed (section 2, "Correct Network Traces")?"""
        prefix = 0
        for event in sequence:
            index = self._index.get(event)
            if index is None:
                return False
            bit = 1 << index
            if prefix & bit:
                return False  # an event occurs at most once per execution
            if not self.enables_mask(prefix, index):
                return False
            if not self.con_mask(prefix | bit):
                return False
            prefix |= bit
        return True

    def allowed_sequences(
        self, max_length: Optional[int] = None
    ) -> Iterator[Tuple[E, ...]]:
        """Enumerate allowed event sequences (breadth-first, shortest first)."""
        queue: List[Tuple[Tuple[E, ...], int]] = [((), 0)]
        while queue:
            next_queue: List[Tuple[Tuple[E, ...], int]] = []
            for sequence, collected in queue:
                yield sequence
                if max_length is not None and len(sequence) >= max_length:
                    continue
                free = self.successors_mask(collected)
                while free:
                    low = free & -free
                    free ^= low
                    event = self._universe[low.bit_length() - 1]
                    next_queue.append((sequence + (event,), collected | low))
            queue = next_queue

    def __getstate__(self):
        # The id()-keyed shadow index holds memory addresses of the
        # storing process; unpickled they would be stale keys that a new
        # object's id could collide with, silently encoding an unknown
        # event to an arbitrary bit.  Rebuilt from the universe on load.
        state = dict(self.__dict__)
        state.pop("_index_by_id", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._index_by_id = {id(e): i for i, e in enumerate(self._universe)}

    def __repr__(self) -> str:
        return (
            f"EventStructure({len(self._events)} events, "
            f"{len(self._covers)} covers, "
            f"{sum(map(len, self._base_masks.values()))} enabling bases)"
        )


def _extremal(masks: Iterable[int], maximal: bool) -> Tuple[int, ...]:
    """The maximal (else minimal) elements of a set of bitmasks under
    ``⊆``, sorted.  One scan in popcount order: an element can only lie
    below (above) one with more (fewer) bits, so it is compared with the
    extremal elements kept so far, never with every other mask."""
    kept: List[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=maximal):
        for k in kept:
            if (m | k == k) if maximal else (m & k == k):
                break  # m lies below (above) k
        else:
            kept.append(m)
    return tuple(sorted(kept))
