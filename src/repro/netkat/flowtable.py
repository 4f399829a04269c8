"""Prioritized match/action flow tables.

A :class:`FlowTable` is the compilation target: an ordered list of
:class:`Rule` objects.  A rule matches a packet when every field
constraint is satisfied; the highest-priority matching rule fires and its
action set determines the output packets (empty set = drop).

Matches are exact-value on numeric fields, with one extension used by the
section 5.3 optimization: a :class:`PrefixMatch` matches the high-order
bits of a field (the "wildcarded low-order bits" guard trick for
configuration IDs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from .fdd import ActionSet, FDD, FDDBuilder
from .packet import Packet

__all__ = [
    "PrefixMatch",
    "Match",
    "Rule",
    "FlowTable",
    "TagFieldError",
    "table_of_fdd",
]


class TagFieldError(ValueError):
    """The program matches on the field reserved for configuration tags
    (the section 4.1 construction needs a header field the program does
    not use)."""


@dataclass(frozen=True, order=True)
class PrefixMatch:
    """Match the top bits of a ``width``-bit field value.

    ``PrefixMatch(value=0b10, wildcard_bits=1, width=3)`` matches any
    3-bit value of the form ``10*`` i.e. {0b100, 0b101}.  ``value`` holds
    the prefix bits right-aligned (the wildcarded low bits removed).
    """

    value: int
    wildcard_bits: int
    width: int

    def __post_init__(self) -> None:
        if self.wildcard_bits < 0 or self.wildcard_bits > self.width:
            raise ValueError("wildcard_bits out of range")
        prefix_bits = self.width - self.wildcard_bits
        if self.value < 0 or (self.value >> prefix_bits) != 0:
            raise ValueError(
                f"prefix {self.value:#b} does not fit in {prefix_bits} bits"
            )

    def matches(self, value: int) -> bool:
        return (value >> self.wildcard_bits) == self.value

    def covered_values(self) -> Iterator[int]:
        base = self.value << self.wildcard_bits
        for low in range(1 << self.wildcard_bits):
            yield base | low

    def __str__(self) -> str:
        bits = format(self.value, f"0{self.width - self.wildcard_bits}b")
        return bits + "*" * self.wildcard_bits


Constraint = Union[int, PrefixMatch]
_HOLE = "\0"  # where a guarded wire line takes its tag value


class Match:
    """A conjunction of per-field constraints (empty = match-all)."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Dict[str, Constraint] | Iterable[Tuple[str, Constraint]] = ()):
        items = dict(entries)
        object.__setattr__(self, "_entries", tuple(sorted(items.items(), key=lambda kv: kv[0])))
        object.__setattr__(self, "_hash", hash(self._entries))

    def __getstate__(self):
        # The cached hash is PYTHONHASHSEED-dependent; recompute it in
        # the loading process instead of pickling it.
        return self._entries

    def __setstate__(self, entries):
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_hash", hash(entries))

    def matches(self, packet: Packet) -> bool:
        for field, constraint in self._entries:
            value = packet.get(field)
            if value is None:
                return False
            if isinstance(constraint, PrefixMatch):
                if not constraint.matches(value):
                    return False
            elif value != constraint:
                return False
        return True

    def entries(self) -> Tuple[Tuple[str, Constraint], ...]:
        return self._entries

    def get(self, field: str) -> Optional[Constraint]:
        for name, constraint in self._entries:
            if name == field:
                return constraint
        return None

    def extended(self, field: str, constraint: Constraint) -> "Match":
        updated = dict(self._entries)
        updated[field] = constraint
        return Match(updated)

    def guarded(self, field: str, constraint: Constraint) -> "Match":
        """Like :meth:`extended`, but for tag guards: ``field`` must be
        unused by this match (section 4.1 assumes an unused header
        field), because extending would silently *overwrite* the real
        constraint with the guard."""
        if self.get(field) is not None:
            raise TagFieldError(
                f"tag field {field!r} collides with a match field of "
                f"{self!r}; the program must not match on the field "
                "reserved for configuration tags"
            )
        return self.extended(field, constraint)

    def without(self, field: str) -> "Match":
        return Match({f: c for f, c in self._entries if f != field})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._entries:
            return "Match(*)"
        inner = ", ".join(f"{f}={c}" for f, c in self._entries)
        return f"Match({inner})"


@dataclass(frozen=True)
class Rule:
    """A prioritized flow-table rule.

    ``actions`` is a set of modifications; each modification yields one
    output packet (multicast), and the modified ``pt`` field names the
    egress port.  An empty action set drops the packet.
    """

    priority: int
    match: Match
    actions: ActionSet

    def apply(self, packet: Packet) -> FrozenSet[Packet]:
        out = set()
        for mod in self.actions:
            result = packet
            for field, value in mod:
                result = result.set(field, value)
            out.add(result)
        return frozenset(out)

    def _tail(self) -> str:
        """The text after the match, which a guard leaves as it is."""
        if not self.actions:
            return " -> drop"
        return " -> " + " | ".join(
            ",".join(f"{f}<-{v}" for f, v in mod) or "id"
            for mod in sorted(self.actions)
        )

    def __repr__(self) -> str:
        return f"[{self.priority}] {self.match!r}{self._tail()}"


class FlowTable:
    """An ordered collection of rules with highest-priority-wins semantics."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: List[Rule] = sorted(rules, key=lambda r: -r.priority)

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return tuple(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def lookup(self, packet: Packet) -> Optional[Rule]:
        """The highest-priority rule matching ``packet``, or None."""
        for rule in self._rules:
            if rule.match.matches(packet):
                return rule
        return None

    def apply(self, packet: Packet) -> FrozenSet[Packet]:
        """Process a packet: empty set when no rule matches (default drop)."""
        rule = self.lookup(packet)
        if rule is None:
            return frozenset()
        return rule.apply(packet)

    def __getstate__(self):
        # Only the rules: the cached repr and guard split are derived
        # and would bloat every artifact holding this table.
        return {"_rules": self._rules}

    @cached_property
    def _rules(self) -> List[Rule]:
        # A ``_merged`` table's guarded rules, made when first read.
        field, sources = self._sources
        return [Rule(r.priority, r.match.extended(field, tag), r.actions) for r, tag in sources]

    def _guarded(self, field: str) -> List[Tuple[int, str, str, Rule]]:
        """Each rule as (negated priority, its wire line guarded by
        ``field`` split where the tag goes, rule): made, and checked for
        :class:`TagFieldError`, once per table, since it is immutable."""
        split = self.__dict__.setdefault("_guard_split", {})
        guarded = split.get(field)
        if guarded is None:
            guarded = []
            for rule in self._rules:
                line = f"  [{rule.priority}] {rule.match.guarded(field, _HOLE)!r}{rule._tail()}"
                guarded.append((-rule.priority, *line.split(_HOLE), rule))
            split[field] = guarded
        return guarded

    @staticmethod
    def _merged(field: str, partitions: Iterable[Tuple[int, list]]) -> "FlowTable":
        """The table of ``(tag, _guarded(field))`` partitions in order:
        one stable sort by priority, the text joined now."""
        entries = [(p, f"{head}{tag}{tail}", rule, tag)
                   for tag, guarded in partitions for p, head, tail, rule in guarded]
        entries.sort(key=itemgetter(0))
        table = FlowTable.__new__(FlowTable)
        table._repr = "FlowTable(\n" + "\n".join([line for _, line, _, _ in entries]) + "\n)"
        table._sources = (field, [(rule, tag) for _, _, rule, tag in entries])
        return table

    def __repr__(self) -> str:
        # The canonical wire form (``protocol.tables_to_wire``); a table
        # is immutable, so the text is computed once — an update that
        # adopts its predecessor's tables re-serialises none of them.
        try:
            return self._repr
        except AttributeError:
            body = "\n".join(f"  {rule!r}" for rule in self._rules)
            self._repr = f"FlowTable(\n{body}\n)"
            return self._repr


def table_of_fdd(builder: FDDBuilder, d: FDD) -> FlowTable:
    """Convert an FDD to an equivalent flow table.

    The FDD's hi-first path order becomes descending rule priority, down
    to 1; the negative (lo-edge) constraints are then implied by
    shadowing, so each rule only carries the positive constraints of its
    path.
    """
    rules: List[Rule] = []
    entries = list(builder.paths(d))
    priority = len(entries)
    for constraints, actions in entries:
        positive = {
            field: value for field, value, is_eq in constraints if is_eq
        }
        rules.append(Rule(priority, Match(positive), actions))
        priority -= 1
    return FlowTable(rules)
