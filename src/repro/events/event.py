"""Network events.

An event ``e = (phi, sw, pt)_eid`` models the arrival of a packet
satisfying the guard ``phi`` at location ``sw:pt`` (section 2).  The
optional occurrence index ``eid`` implements the paper's event
*renaming*: when the same syntactic event can fire several times in one
execution (the bandwidth-cap chain, or any ETS loop), each occurrence is
a distinct event in the NES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from ..netkat.packet import LocatedPacket, Location, Packet
from ..formula import Formula

__all__ = ["Event", "EventSet"]


@dataclass(frozen=True)
class Event:
    """An event: packet guard, location, and occurrence index."""

    guard: Formula
    location: Location
    eid: int = 0
    # Made on first use (an instance attribute then shadows these): a
    # class default rather than a caught AttributeError, so the first
    # use of a new event -- the conversion makes and sorts every renamed
    # occurrence -- costs no exception.
    _hash = None
    _repr = None

    def __hash__(self) -> int:
        # Events live in frozensets (event-sets, covers, enabling bases)
        # and as dict keys throughout the pipeline; the generated
        # dataclass hash re-hashes the guard tuple on every lookup.
        h = self._hash
        if h is None:
            h = hash((self.guard, self.location, self.eid))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # The cached hash is PYTHONHASHSEED-dependent; pickling it would
        # make an unpickled event disagree with freshly built equal
        # events in the loading process.  It is dropped here and lazily
        # recomputed by __hash__.  (The cached repr is deterministic
        # text and safe to keep.)
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def matches(self, lp: LocatedPacket) -> bool:
        """``lp |= e``: same location, and the packet satisfies the guard.

        Occurrence indices do not affect matching -- renamed copies of an
        event match the same packets (which one fires is decided by the
        enabling relation of the NES).
        """
        return lp.location == self.location and self.guard.holds(lp.packet)

    def matches_packet(self, packet: Packet, location: Location) -> bool:
        return location == self.location and self.guard.holds(packet)

    def base(self) -> "Event":
        """The un-renamed event (occurrence index 0)."""
        if self.eid == 0:
            return self
        return Event(self.guard, self.location, 0)

    def renamed(self, eid: int) -> "Event":
        return Event(self.guard, self.location, eid)

    def __repr__(self) -> str:
        # repr is the deterministic sort key for event interning and edge
        # ordering, so it is on the NES-construction hot path.
        r = self._repr
        if r is None:
            suffix = f"_{self.eid}" if self.eid else ""
            r = f"({self.guard!r}, {self.location}){suffix}"
            object.__setattr__(self, "_repr", r)
        return r


EventSet = FrozenSet[Event]
