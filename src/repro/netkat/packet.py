"""Packets, locations, and located packets.

A packet is an immutable record of numeric fields (section 2 of the paper).
Two fields are special and always present:

- ``sw`` -- the switch the packet currently occupies, and
- ``pt`` -- the port at that switch.

The pair ``sw:pt`` is the packet's *location*.  The runtime additionally
attaches two metadata fields that are invisible to user policies: a
configuration tag and an event digest (section 4.1); those live on
:class:`repro.runtime.model.TaggedPacket`, not here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

__all__ = [
    "Location",
    "Packet",
    "LocatedPacket",
    "History",
    "SW",
    "PT",
    "check_field",
]

# Canonical names for the two location fields.
SW = "sw"
PT = "pt"


@dataclass(frozen=True, order=True, slots=True)
class Location:
    """A switch-port pair ``n:m``."""

    switch: int
    port: int

    def __str__(self) -> str:
        return f"{self.switch}:{self.port}"

    @staticmethod
    def parse(text: str) -> "Location":
        """Parse ``"n:m"``, each an ASCII digit string, into a
        :class:`Location`.  (``int()`` would also take ``"1_0"``,
        ``" 10"``, ``"+10"`` and non-ASCII digits, so other spellings
        would name the same location.)"""
        match = re.fullmatch(r"([0-9]+):([0-9]+)", text)
        if match is None:
            raise ValueError(f"malformed location {text!r}; expected 'sw:pt'")
        return Location(int(match[1]), int(match[2]))


def check_field(name: object, value: object) -> None:
    """Raise ``TypeError`` unless ``name: value`` is a legal packet field."""
    if not isinstance(name, str):
        raise TypeError(f"field names must be strings, got {name!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"field {name!r} must have an int value, got {value!r}")


class Packet:
    """An immutable packet: a finite map from field names to numeric values.

    Packets compare and hash by value, so they can be stored in sets --
    the denotational semantics of NetKAT works with sets of packets.

    ``_replay`` belongs to the simulator (see ``network.simulator._Plan``)
    and is no part of the value: ``None`` at construction and unpickling.
    """

    __slots__ = ("_fields", "_hash", "_swpt", "_replay")

    def __init__(self, fields: Mapping[str, int] | Iterable[Tuple[str, int]] = ()):
        items = dict(fields)
        for name, value in items.items():
            check_field(name, value)
        self._adopt(items)

    def _adopt(self, items: Dict[str, int]) -> None:
        fields = tuple(sorted(items.items()))
        self._fields = fields
        self._hash = hash(fields)
        self._swpt = (items.get(SW), items.get(PT))
        self._replay = None

    @classmethod
    def _of(cls, items: Dict[str, int]) -> "Packet":
        """A packet over already-valid fields (taken from a packet, a
        compiled modification or a :class:`Location`): no re-validation."""
        new = cls.__new__(cls)
        new._adopt(items)
        return new

    def __getstate__(self):
        # The cached hash is PYTHONHASHSEED-dependent; recompute it in
        # the loading process instead of pickling it.
        return self._fields

    def __setstate__(self, fields):
        self._adopt(dict(fields))

    # -- mapping interface -------------------------------------------------

    def __getitem__(self, field: str) -> int:
        for name, value in self._fields:
            if name == field:
                return value
        raise KeyError(field)

    def get(self, field: str, default: Optional[int] = None) -> Optional[int]:
        for name, value in self._fields:
            if name == field:
                return value
        return default

    def __contains__(self, field: str) -> bool:
        return any(name == field for name, _ in self._fields)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._fields)

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(self._fields)

    def fields(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._fields)

    # -- functional update --------------------------------------------------

    def set(self, field: str, value: int) -> "Packet":
        """Return a copy with ``field`` set to ``value`` (``pkt[f <- n]``)."""
        check_field(field, value)
        return self._with(((field, value),))

    def _with(self, pairs: Iterable[Tuple[str, int]]) -> "Packet":
        """A copy with every (already-valid) pair of ``pairs`` written,
        later pairs winning: a compiled modification, optionally followed
        by the far end of a link, in one construction."""
        updated = dict(self._fields)
        updated.update(pairs)
        return Packet._of(updated)

    def _is_with(self, pairs: Tuple[Tuple[str, int], ...], other: "Packet") -> bool:
        """``self._with(pairs) == other`` for ``pairs`` naming each field
        once, decided field by field without building the copy: every
        write is in ``other``, and apart from the written fields the two
        packets agree."""
        theirs = other._fields
        for pair in pairs:
            if pair not in theirs:
                return False
        written = [name for name, _ in pairs]
        return [p for p in theirs if p[0] not in written] == [
            p for p in self._fields if p[0] not in written
        ]

    def without(self, field: str) -> "Packet":
        """Return a copy with ``field`` removed (used by `(exists f: phi)`)."""
        return Packet._of({k: v for k, v in self._fields if k != field})

    # -- location helpers ---------------------------------------------------

    @property
    def switch(self) -> int:
        return self[SW]

    @property
    def port(self) -> int:
        return self[PT]

    @property
    def location(self) -> Location:
        return Location(self[SW], self[PT])

    def at(self, location: Location) -> "Packet":
        """Return a copy relocated to ``location`` (self when already there)."""
        sw, pt = self._swpt
        if sw == location.switch and pt == location.port:
            return self
        return self._with(((SW, location.switch), (PT, location.port)))

    # -- dunder boilerplate ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value in self._fields)
        return f"Packet({inner})"


@dataclass(frozen=True)
class LocatedPacket:
    """A packet together with its location, ``lp = (pkt, sw, pt)``.

    The paper treats the location as separate from the packet record; we
    keep the packet's ``sw``/``pt`` fields synchronized with ``location``
    so either view can be used.
    """

    packet: Packet
    location: Location

    @staticmethod
    def of(packet: Packet) -> "LocatedPacket":
        """Build a located packet from a packet carrying sw/pt fields."""
        return LocatedPacket(packet, packet.location)

    def normalized(self) -> "LocatedPacket":
        """Force the packet's sw/pt fields to agree with ``location``."""
        return LocatedPacket(self.packet.at(self.location), self.location)

    def __str__(self) -> str:
        return f"({self.packet!r} @ {self.location})"


class History:
    """A non-empty packet history: most recent packet first.

    Histories give semantics to ``dup``; ordinary forwarding only ever
    inspects or rewrites the head packet.
    """

    __slots__ = ("_packets",)

    def __init__(self, packets: Iterable[Packet]):
        self._packets = tuple(packets)
        if not self._packets:
            raise ValueError("a history must contain at least one packet")

    @staticmethod
    def of(packet: Packet) -> "History":
        return History((packet,))

    @property
    def head(self) -> Packet:
        return self._packets[0]

    @property
    def rest(self) -> Tuple[Packet, ...]:
        return self._packets[1:]

    def with_head(self, packet: Packet) -> "History":
        """Replace the head packet."""
        return History((packet,) + self._packets[1:])

    def dup(self) -> "History":
        """Record the current head in the history (semantics of ``dup``)."""
        return History((self.head,) + self._packets)

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self._packets == other._packets

    def __hash__(self) -> int:
        return hash(self._packets)

    def __repr__(self) -> str:
        return f"History({list(self._packets)!r})"
