"""NetKAT abstract syntax.

Predicates (the Boolean/KAT "tests")::

    a, b ::= true | false | f = n | ¬a | a ∧ b | a ∨ b

Policies::

    p, q ::= a | f <- n | p + q | p ; q | p* | dup | (n:m) -> (n':m')

Links are sugar for ``sw=n ∧ pt=m ; dup ; sw<-n' ; pt<-m'`` but we keep
them as first-class constructors because the compiler and the Stateful
NetKAT event-extraction both treat links specially.

Nodes are hash-consed (:mod:`repro.netkat.hashcons`), so equality is
identity.  Smart constructors perform cheap local simplifications
(identity/annihilator laws) to keep programmatically-built policies small.
"""

from __future__ import annotations

from .hashcons import HashConsed
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
]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate(HashConsed):
    """Base class for NetKAT predicates."""

    # Operator sugar so programs read close to the paper's notation.
    def __and__(self, other: "Predicate") -> "Predicate":
        return conj(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return disj(self, other)

    def __invert__(self) -> "Predicate":
        return neg(self)


class PTrue(Predicate):
    """The predicate ``true`` (policy identity)."""

    def __repr__(self) -> str:
        return "true"


class PFalse(Predicate):
    """The predicate ``false`` (policy drop)."""

    def __repr__(self) -> str:
        return "false"


class Test(Predicate):
    """The field test ``f = n``."""

    field: str
    value: int

    def __repr__(self) -> str:
        return f"{self.field}={self.value}"


class Neg(Predicate):
    """Negation ``¬a``."""

    operand: Predicate

    def __repr__(self) -> str:
        return f"~({self.operand!r})"


class Conj(Predicate):
    """Conjunction ``a ∧ b``."""

    left: Predicate
    right: Predicate

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


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
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def conj(*operands: Predicate) -> Predicate:
    """Build the conjunction of ``operands`` with unit/zero laws applied."""
    result: Predicate = TRUE
    for a in operands:
        if a is FALSE or result is FALSE:
            return FALSE
        if a is TRUE:
            continue
        if result is TRUE:
            result = a
        else:
            result = Conj(result, a)
    return result


def disj(*operands: Predicate) -> Predicate:
    """Build the disjunction of ``operands`` with unit/zero laws applied."""
    result: Predicate = FALSE
    for a in operands:
        if a is TRUE or result is TRUE:
            return TRUE
        if a is FALSE:
            continue
        if result is FALSE:
            result = a
        else:
            result = Disj(result, a)
    return result


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy(HashConsed):
    """Base class for NetKAT policies."""

    def __add__(self, other: "Policy") -> "Policy":
        return union(self, other)

    def __rshift__(self, other: "Policy") -> "Policy":
        """``p >> q`` is sequential composition ``p ; q``."""
        return seq(self, other)


class Filter(Policy):
    """A predicate used as a policy (pass packets satisfying it)."""

    predicate: Predicate

    def __repr__(self) -> str:
        return f"filter({self.predicate!r})"


class Assign(Policy):
    """The field assignment ``f <- n``."""

    field: str
    value: int

    def __repr__(self) -> str:
        return f"{self.field}<-{self.value}"


class Union(Policy):
    """Parallel composition ``p + q``."""

    left: Policy
    right: Policy

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


class Seq(Policy):
    """Sequential composition ``p ; q``."""

    left: Policy
    right: Policy

    def __repr__(self) -> str:
        return f"({self.left!r} ; {self.right!r})"


class Star(Policy):
    """Kleene iteration ``p*``."""

    operand: Policy

    def __repr__(self) -> str:
        return f"({self.operand!r})*"


class Dup(Policy):
    """``dup`` -- record the current packet in the history."""

    def __repr__(self) -> str:
        return "dup"


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
        if p is DROP:
            continue
        if result is DROP:
            result = p
        else:
            result = Union(result, p)
    return result


def seq(*operands: Policy) -> Policy:
    """Build ``p1 ; p2 ; ...`` with identity/drop elimination."""
    result: Policy = ID
    for p in operands:
        if result is DROP:
            return DROP
        if p is DROP:
            return DROP
        if p is ID:
            continue
        if result is ID:
            result = p
        else:
            result = Seq(result, p)
    return result


def star(p: Policy) -> Policy:
    """Build ``p*`` (with ``drop* = id`` and ``id* = id``)."""
    if p is DROP or p is ID:
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

