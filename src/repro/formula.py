"""Canonical conjunctions of (in)equality literals: one algebra, two key
spaces.

The event-extraction function of Figure 6 threads a formula ``phi``
through the program, conjoining each field test it passes.  The paper's
``phi`` ranges over conjunctions of literals ``f = n`` / ``f != n``;
:class:`Conjunction` gives them a canonical, hashable representation
with contradiction detection, the meet of two conjunctions and the
``(exists f: phi)`` projection used by the field-assignment rule.  It
never looks at what a key *is*: :class:`Formula` (packet fields; event
guards) and :class:`StateGuard` (state-component indices; the symbolic
state vector of :mod:`repro.stateful.symbolic`) differ only in what
``holds`` looks a key up in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, TypeVar, Union

from .netkat.packet import Packet

__all__ = ["Literal", "Formula", "StateGuard", "EQ", "NE"]

EQ = "="
NE = "!="

Key = Union[str, int]
_C = TypeVar("_C", bound="Conjunction")


@dataclass(frozen=True, order=True)
class Literal:
    """A single literal ``field = value`` or ``field != value``; the key
    is a packet field name or, in a :class:`StateGuard`, the index of a
    state component (printed ``state(m)``)."""

    field: Key
    op: str
    value: int

    def __post_init__(self) -> None:
        if self.op not in (EQ, NE):
            raise ValueError(f"bad literal operator {self.op!r}")

    def negated(self) -> "Literal":
        return Literal(self.field, NE if self.op == EQ else EQ, self.value)

    def holds(self, packet: Packet) -> bool:
        actual = packet.get(self.field)
        if self.op == EQ:
            return actual == self.value
        return actual != self.value

    def __repr__(self) -> str:
        key = self.field if isinstance(self.field, str) else f"state({self.field})"
        return f"{key}{self.op}{self.value}"


class Conjunction:
    """A satisfiable canonical conjunction of literals over one key space.

    Canonicalization: a positive literal on a key subsumes (and must be
    consistent with) every other literal on that key; negative literals
    on a key accumulate.  Unsatisfiable conjunctions are represented by
    absence -- the combinators return ``None``.
    """

    __slots__ = ("_literals", "_pos", "_hash", "_repr")

    def __init__(self, literals: Iterable[Literal] = ()):
        lits = frozenset(literals)
        if _contradictory(lits):
            raise ValueError(
                f"contradictory literal set {sorted(lits)!r}; use "
                f"{type(self).__name__}.conjoin to build conjunctions safely"
            )
        self._finish(_canonicalize(lits))

    def _finish(self, canonical: FrozenSet[Literal]) -> None:
        self._literals = canonical
        # Positive assignments, cached for the contradiction fast path of
        # conjoin / meet (the symbolic-projection inner loop).
        self._pos: Dict[Key, int] = {
            l.field: l.value for l in canonical if l.op == EQ
        }
        self._hash = hash(canonical)
        self._repr: Optional[str] = None

    @classmethod
    def true(cls: type[_C]) -> _C:
        return cls()

    @classmethod
    def _of_canonical(cls: type[_C], literals: FrozenSet[Literal]) -> _C:
        """Build from literals already known consistent and canonical
        (skips the ``__init__`` re-checks -- the combinators just ran
        them)."""
        out = object.__new__(cls)
        out._finish(literals)
        return out

    @property
    def literals(self) -> FrozenSet[Literal]:
        return self._literals

    @property
    def positive(self) -> Dict[Key, int]:
        """The positive literals as ``key -> value`` (shared: read only)."""
        return self._pos

    def conjoin(self: _C, literal: Literal) -> Optional[_C]:
        """``self AND literal``, or None when contradictory."""
        if literal in self._literals:
            return self
        known = self._pos.get(literal.field)
        if literal.op == NE:
            if known is not None:
                # k=v AND k!=v clashes; any other k!=w is implied.
                return None if known == literal.value else self
        elif known is not None or literal.negated() in self._literals:
            return None  # k=a AND k=b, or k!=v AND k=v
        return self._of_canonical(_canonicalize(self._literals | {literal}))

    def meet(self: _C, other: _C) -> Optional[_C]:
        """``self AND other`` for a conjunction over the same key space,
        or None when contradictory.

        The partition-refinement inner loop: each of ``other``'s
        literals is classified against the cached positive map as a
        clash (contradictory pair -- the common case in a cross
        product), implied (subsumed by one of ours), or novel; nothing
        is allocated unless novel literals survive.
        """
        if other is self or not other._literals:
            return self
        lits = self._literals
        if not lits:
            return other
        pos = self._pos
        novel: Optional[List[Literal]] = None
        novel_positive = False
        for l in other._literals:
            known = pos.get(l.field)
            if l.op == EQ:
                if known is not None:
                    if known != l.value:
                        return None  # k=a AND k=b
                    continue  # same positive: implied
                if Literal(l.field, NE, l.value) in lits:
                    return None  # k!=v AND k=v
                novel_positive = True
            else:
                if known is not None:
                    if known == l.value:
                        return None  # k=v AND k!=v
                    continue  # implied by our positive
                if l in lits:
                    continue
            if novel is None:
                novel = [l]
            else:
                novel.append(l)
        if novel is None:
            return self  # other is fully subsumed
        merged = lits.union(novel)
        if novel_positive:
            # A new positive may subsume our negatives on its key;
            # re-canonicalize (and reuse `other` when that leaves
            # exactly its literals instead of building an equal value).
            merged = _canonicalize(merged)
            if merged == other._literals:
                return other
        return self._of_canonical(merged)

    def without_field(self: _C, field: Key) -> _C:
        """``(exists field: self)`` -- strip all literals on ``field``."""
        kept = frozenset(l for l in self._literals if l.field != field)
        if len(kept) == len(self._literals):
            return self
        return self._of_canonical(kept)

    def __eq__(self, other: object) -> bool:
        # Same key space only: a Formula never equals a StateGuard.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._literals == other._literals

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # Only the literals travel: the cached hash is
        # PYTHONHASHSEED-dependent, so a pickled value from the storing
        # process would disagree with hashes computed by the loader.
        return self._literals

    __setstate__ = _finish  # rebuilds the positive map, hash and repr slot

    def __repr__(self) -> str:
        # Formula reprs feed Event.__repr__, the pipeline's sort key.
        if self._repr is None:
            self._repr = (
                " & ".join(repr(l) for l in sorted(self._literals)) or "true"
            )
        return self._repr


class Formula(Conjunction):
    """A conjunction over packet fields: the guard of an event."""

    __slots__ = ()

    def holds(self, packet: Packet) -> bool:
        return all(l.holds(packet) for l in self._literals)


class StateGuard(Conjunction):
    """A conjunction over state-component indices: a constraint on the
    symbolic state vector."""

    __slots__ = ()

    def holds(self, state: Sequence[int]) -> bool:
        """Is the concrete state vector consistent with this guard?"""
        for l in self._literals:
            if (state[l.field] == l.value) != (l.op == EQ):
                return False
        return True


def _contradictory(literals: FrozenSet[Literal]) -> bool:
    # One positive value is kept per key: a second positive on the key
    # disagrees with it, and so does a negative on the kept value.
    kept = {l.field: l.value for l in literals if l.op == EQ}
    return any(
        (kept[l.field] == l.value) != (l.op == EQ)
        for l in literals
        if l.field in kept
    )


def _canonicalize(literals: FrozenSet[Literal]) -> FrozenSet[Literal]:
    """Drop negative literals made redundant by a positive one."""
    positives = {l.field for l in literals if l.op == EQ}
    if not positives:
        return literals
    out = {
        l
        for l in literals
        # k=v already implies k != anything-else
        if l.op == EQ or l.field not in positives
    }
    return literals if len(out) == len(literals) else frozenset(out)
