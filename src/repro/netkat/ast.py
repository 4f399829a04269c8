"""NetKAT abstract syntax.

Predicates (the Boolean/KAT "tests")::

    a, b ::= true | false | f = n | ¬a | a ∧ b | a ∨ b

Policies::

    p, q ::= a | f <- n | p + q | p ; q | p* | dup | (n:m) -> (n':m')

Links are sugar for ``sw=n ∧ pt=m ; dup ; sw<-n' ; pt<-m'`` but we keep
them as first-class constructors because the compiler and the Stateful
NetKAT event-extraction both treat links specially.

All nodes are immutable and hashable, so they can be memoized by the FDD
compiler.  Smart constructors perform cheap local simplifications
(identity/annihilator laws) to keep programmatically-built policies small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator

from .packet import Location, PT, SW

__all__ = [
    "Predicate",
    "PTrue",
    "PFalse",
    "Test",
    "Neg",
    "Conj",
    "Disj",
    "Policy",
    "Filter",
    "Assign",
    "Union",
    "Seq",
    "Star",
    "Dup",
    "Link",
    "TRUE",
    "FALSE",
    "ID",
    "DROP",
    "test",
    "neg",
    "conj",
    "disj",
    "filter_",
    "assign",
    "union",
    "seq",
    "star",
    "link",
    "at_location",
    "policy_fields",
    "policy_size",
]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """Base class for NetKAT predicates."""

    # Operator sugar so programs read close to the paper's notation.
    def __and__(self, other: "Predicate") -> "Predicate":
        return conj(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return disj(self, other)

    def __invert__(self) -> "Predicate":
        return neg(self)


@dataclass(frozen=True)
class PTrue(Predicate):
    """The predicate ``true`` (policy identity)."""


    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True)
class PFalse(Predicate):
    """The predicate ``false`` (policy drop)."""


    def __repr__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Test(Predicate):
    """The field test ``f = n``."""

    field: str
    value: int


    def __repr__(self) -> str:
        return f"{self.field}={self.value}"


@dataclass(frozen=True)
class Neg(Predicate):
    """Negation ``¬a``."""

    operand: Predicate


    def __repr__(self) -> str:
        return f"~({self.operand!r})"


@dataclass(frozen=True)
class Conj(Predicate):
    """Conjunction ``a ∧ b``."""

    left: Predicate
    right: Predicate


    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True)
class Disj(Predicate):
    """Disjunction ``a ∨ b``."""

    left: Predicate
    right: Predicate


    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


TRUE = PTrue()
FALSE = PFalse()


def test(field_name: str, value: int) -> Predicate:
    """Build the test ``field = value``."""
    return Test(field_name, value)


def neg(a: Predicate) -> Predicate:
    """Build ``¬a`` with double-negation and constant elimination."""
    if isinstance(a, PTrue):
        return FALSE
    if isinstance(a, PFalse):
        return TRUE
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def conj(*operands: Predicate) -> Predicate:
    """Build the conjunction of ``operands`` with unit/zero laws applied."""
    result: Predicate = TRUE
    for a in operands:
        if isinstance(a, PFalse) or isinstance(result, PFalse):
            return FALSE
        if isinstance(a, PTrue):
            continue
        if isinstance(result, PTrue):
            result = a
        else:
            result = Conj(result, a)
    return result


def disj(*operands: Predicate) -> Predicate:
    """Build the disjunction of ``operands`` with unit/zero laws applied."""
    result: Predicate = FALSE
    for a in operands:
        if isinstance(a, PTrue) or isinstance(result, PTrue):
            return TRUE
        if isinstance(a, PFalse):
            continue
        if isinstance(result, PFalse):
            result = a
        else:
            result = Disj(result, a)
    return result


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def _cached_hash(p: "Policy") -> int:
    """A composite policy's hash, cached on the node hashed directly (a
    configuration policy) and on none below it: that of its canonical
    text, which equal policies share (as the artifact key assumes)."""
    try:
        return p.__dict__["_hash"]
    except KeyError:
        h = hash(repr(p))
        object.__setattr__(p, "_hash", h)
        return h


def _state_without_hash(p: "Policy") -> dict:
    # PYTHONHASHSEED-dependent: the loading process recomputes it.
    state = dict(p.__dict__)
    state.pop("_hash", None)
    return state


class Policy:
    """Base class for NetKAT policies."""

    def __add__(self, other: "Policy") -> "Policy":
        return union(self, other)

    def __rshift__(self, other: "Policy") -> "Policy":
        """``p >> q`` is sequential composition ``p ; q``."""
        return seq(self, other)


@dataclass(frozen=True)
class Filter(Policy):
    """A predicate used as a policy (pass packets satisfying it)."""

    predicate: Predicate


    def __repr__(self) -> str:
        return f"filter({self.predicate!r})"


@dataclass(frozen=True)
class Assign(Policy):
    """The field assignment ``f <- n``."""

    field: str
    value: int


    def __repr__(self) -> str:
        return f"{self.field}<-{self.value}"


@dataclass(frozen=True)
class Union(Policy):
    """Parallel composition ``p + q``."""

    left: Policy
    right: Policy

    __hash__ = _cached_hash
    __getstate__ = _state_without_hash

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True)
class Seq(Policy):
    """Sequential composition ``p ; q``."""

    left: Policy
    right: Policy

    __hash__ = _cached_hash
    __getstate__ = _state_without_hash

    def __repr__(self) -> str:
        return f"({self.left!r} ; {self.right!r})"


@dataclass(frozen=True)
class Star(Policy):
    """Kleene iteration ``p*``."""

    operand: Policy

    __hash__ = _cached_hash
    __getstate__ = _state_without_hash

    def __repr__(self) -> str:
        return f"({self.operand!r})*"


@dataclass(frozen=True)
class Dup(Policy):
    """``dup`` -- record the current packet in the history."""


    def __repr__(self) -> str:
        return "dup"


@dataclass(frozen=True)
class Link(Policy):
    """A physical link ``(n1:m1) -> (n2:m2)``.

    Semantically: test the packet is at ``src``, then move it to ``dst``
    (recording a ``dup`` so histories reflect the hop).
    """

    src: Location
    dst: Location


    def __repr__(self) -> str:
        return f"({self.src})->({self.dst})"


ID: Policy = Filter(TRUE)
DROP: Policy = Filter(FALSE)


def filter_(predicate: Predicate) -> Policy:
    """Lift a predicate into a policy."""
    return Filter(predicate)


def assign(field_name: str, value: int) -> Policy:
    """Build the assignment ``field <- value``."""
    return Assign(field_name, value)


def union(*operands: Policy) -> Policy:
    """Build ``p1 + p2 + ...`` with drop elimination."""
    result: Policy = DROP
    for p in operands:
        if _is_drop(p):
            continue
        if _is_drop(result):
            result = p
        else:
            result = Union(result, p)
    return result


def seq(*operands: Policy) -> Policy:
    """Build ``p1 ; p2 ; ...`` with identity/drop elimination."""
    result: Policy = ID
    for p in operands:
        if _is_drop(result):
            return DROP
        if _is_drop(p):
            return DROP
        if _is_id(p):
            continue
        if _is_id(result):
            result = p
        else:
            result = Seq(result, p)
    return result


def star(p: Policy) -> Policy:
    """Build ``p*`` (with ``drop* = id`` and ``id* = id``)."""
    if _is_drop(p) or _is_id(p):
        return ID
    return Star(p)


def link(src: str | Location, dst: str | Location) -> Policy:
    """Build the link policy ``(src) -> (dst)``; accepts "n:m" strings."""
    src_loc = src if isinstance(src, Location) else Location.parse(src)
    dst_loc = dst if isinstance(dst, Location) else Location.parse(dst)
    return Link(src_loc, dst_loc)


def at_location(location: Location) -> Predicate:
    """The predicate ``sw=n ∧ pt=m`` for a location."""
    return conj(Test(SW, location.switch), Test(PT, location.port))


def _is_drop(p: Policy) -> bool:
    return isinstance(p, Filter) and isinstance(p.predicate, PFalse)


def _is_id(p: Policy) -> bool:
    return isinstance(p, Filter) and isinstance(p.predicate, PTrue)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def predicate_fields(a: Predicate) -> FrozenSet[str]:
    """The set of field names tested by a predicate."""
    if isinstance(a, (PTrue, PFalse)):
        return frozenset()
    if isinstance(a, Test):
        return frozenset((a.field,))
    if isinstance(a, Neg):
        return predicate_fields(a.operand)
    if isinstance(a, (Conj, Disj)):
        return predicate_fields(a.left) | predicate_fields(a.right)
    raise TypeError(f"not a predicate: {a!r}")


def policy_fields(p: Policy) -> FrozenSet[str]:
    """All field names tested or assigned by a policy (including sw/pt)."""
    if isinstance(p, Filter):
        return predicate_fields(p.predicate)
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


def policy_size(p: Policy) -> int:
    """Number of AST nodes (predicates count as one node per connective)."""

    def pred_size(a: Predicate) -> int:
        if isinstance(a, (PTrue, PFalse, Test)):
            return 1
        if isinstance(a, Neg):
            return 1 + pred_size(a.operand)
        if isinstance(a, (Conj, Disj)):
            return 1 + pred_size(a.left) + pred_size(a.right)
        raise TypeError(f"not a predicate: {a!r}")

    if isinstance(p, Filter):
        return 1 + pred_size(p.predicate)
    if isinstance(p, (Assign, Dup, Link)):
        return 1
    if isinstance(p, (Union, Seq)):
        return 1 + policy_size(p.left) + policy_size(p.right)
    if isinstance(p, Star):
        return 1 + policy_size(p.operand)
    raise TypeError(f"not a policy: {p!r}")
