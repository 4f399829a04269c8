"""Stateful NetKAT abstract syntax (Figure 4).

Stateful NetKAT extends NetKAT with a global vector-valued variable
``state``:

- the test ``state(m) = n`` (:class:`StateTest`), and
- the guarded link ``(n1:m1) -> (n2:m2) <state(m) <- n>``
  (:class:`LinkUpdate`) which forwards across a link *and* records a
  state transition triggered by the packet's arrival at the link's
  destination.

Everything else (tests, assignments, union, sequence, star, links) is
shared with :mod:`repro.netkat.ast`; the constructors here return plain
NetKAT nodes extended with the two stateful forms, so the whole stateful
program is one AST.

State vectors are tuples of ints.  The helpers :func:`state_eq` /
:func:`link_update` support the paper's ``state=[0]`` / ``state<-[1]``
whole-vector sugar used throughout Figure 9.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from ..netkat.ast import Conj, Disj, Filter, Neg, Policy, Predicate, Seq, Star, Union, conj
from ..netkat.packet import Location

__all__ = [
    "StateVector",
    "StateTest",
    "LinkUpdate",
    "state_test",
    "state_eq",
    "link_update",
    "vector_update",
    "uses_state",
    "state_component_range",
    "validate_state_references",
]

StateVector = Tuple[int, ...]


class StateTest(Predicate):
    """The test ``state(component) = value``."""

    component: int
    value: int

    def __repr__(self) -> str:
        return f"state({self.component})={self.value}"


class LinkUpdate(Policy):
    """A link that also performs state updates: ``(src)->(dst)<state(m)<-n>``.

    ``updates`` is a tuple of (component, value) pairs applied to the
    global state when the event fires (the paper's Figure 4 allows one
    component; Figure 9's ``state<-[2]`` whole-vector form needs several,
    so we generalize).
    """

    src: Location
    dst: Location
    updates: Tuple[Tuple[int, int], ...]

    def __repr__(self) -> str:
        ups = ",".join(f"state({m})<-{n}" for m, n in self.updates)
        return f"({self.src})->({self.dst})<{ups}>"


def state_test(component: int, value: int) -> Predicate:
    """The single-component test ``state(component) = value``."""
    return StateTest(component, value)


def state_eq(vector: Sequence[int]) -> Predicate:
    """Whole-vector sugar: ``state = [v0, v1, ...]``."""
    return conj(*(StateTest(i, v) for i, v in enumerate(vector)))


def link_update(
    src: str | Location,
    dst: str | Location,
    updates: Iterable[Tuple[int, int]] | Sequence[int],
) -> Policy:
    """Build a state-updating link.

    ``updates`` is either an iterable of (component, value) pairs or a
    full vector of values (the ``state <- [..]`` sugar).
    """
    src_loc = src if isinstance(src, Location) else Location.parse(src)
    dst_loc = dst if isinstance(dst, Location) else Location.parse(dst)
    update_list = list(updates)
    if update_list and not isinstance(update_list[0], tuple):
        pairs = tuple(enumerate(update_list))  # whole-vector form
    else:
        pairs = tuple(update_list)
    return LinkUpdate(src_loc, dst_loc, pairs)


def vector_update(vector: StateVector, updates: Iterable[Tuple[int, int]]) -> StateVector:
    """Apply component updates to a state vector: ``k[m -> n]``."""
    out = list(vector)
    for component, value in updates:
        if component < 0 or component >= len(out):
            raise IndexError(
                f"state component {component} out of range for vector {vector}"
            )
        out[component] = value
    return tuple(out)


def uses_state(node: Policy | Predicate) -> bool:
    """Does this (sub)program mention the global state at all?  A state
    test or a state-updating link does, even one updating no component.
    Projection asks this of every subtree (state-free ones project to
    themselves); :func:`_state_use` caches the answer on the node."""
    return _state_use(node) is not None


def state_component_range(
    node: Policy | Predicate,
) -> Optional[Tuple[int, int]]:
    """The (min, max) state-component indices referenced anywhere in the
    (sub)program, or ``None`` when it references none.  Cached on the
    node, so projection bounds-checks a whole program in O(1) after the
    first walk, though its short-circuits skip guard-dead subtrees."""
    return _state_use(node) or None


_UNCOMPUTED = object()


def _state_use(node: Policy | Predicate) -> Optional[Tuple[int, ...]]:
    """``None`` for a state-free (sub)program; else the (min, max)
    component indices it references, or ``()`` when it references none
    (a state-updating link with no updates).  Cached on the (immutable,
    hash-consed) AST node: one walk answers both questions above."""
    cached = node.__dict__.get("_state_use", _UNCOMPUTED)
    if cached is not _UNCOMPUTED:
        return cached
    value: Optional[Tuple[int, ...]]
    if isinstance(node, StateTest):
        value = (node.component, node.component)
    elif isinstance(node, LinkUpdate):
        components = [component for component, _ in node.updates]
        value = (min(components), max(components)) if components else ()
    elif isinstance(node, Filter):
        value = _state_use(node.predicate)
    elif isinstance(node, (Neg, Star)):
        value = _state_use(node.operand)
    elif isinstance(node, (Conj, Disj, Union, Seq)):
        left, right = _state_use(node.left), _state_use(node.right)
        if left is None or right is None:
            value = right if left is None else left
        elif left and right:
            value = (min(left[0], right[0]), max(left[1], right[1]))
        else:
            value = left or right
    else:
        value = None
    object.__setattr__(node, "_state_use", value)
    return value


def validate_state_references(node: Policy | Predicate, width: int) -> None:
    """Raise IndexError if any state reference is out of range for a
    ``width``-component state vector.

    Projection prunes subtrees whose guards resolve to false without
    walking their bodies, so a malformed state index in dead code would
    otherwise go unreported; whole programs are validated up front
    instead.
    """
    component_range = state_component_range(node)
    if component_range is None:
        return  # no state references at all
    lo, hi = component_range
    if lo < 0 or hi >= width:
        component = lo if lo < 0 else hi
        raise IndexError(
            f"state component {component} out of range for a "
            f"{width}-component state vector"
        )
