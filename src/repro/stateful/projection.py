"""Projection ``⟦p⟧~k``: the NetKAT configuration at state ``~k`` (Figure 5).

Given a Stateful NetKAT program and a concrete state vector, projection
replaces every ``state(m)=n`` test by ``true``/``false`` and every
state-updating link by the plain link, yielding a standard NetKAT policy
-- the static configuration installed while the network is in that state.
"""

from __future__ import annotations

from ..netkat.ast import (
    Conj,
    DROP,
    Disj,
    FALSE,
    Filter,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    TRUE,
    Union,
    conj,
    disj,
    neg,
    seq,
    star,
    union,
)
from .ast import (
    LinkUpdate,
    StateTest,
    StateVector,
    uses_state,
    validate_state_references,
)

__all__ = ["project", "project_predicate"]


def project_predicate(a: Predicate, state: StateVector) -> Predicate:
    """Resolve state tests in a predicate under state vector ``state``."""
    if not uses_state(a):
        return a
    # The walk short-circuits guard-dead subtrees, so out-of-range state
    # indices are bounds-checked once up front (O(1) after the first
    # walk -- the referenced-component range is cached on the node).
    validate_state_references(a, len(state))
    return _project_predicate(a, state)


def _project_predicate(a: Predicate, state: StateVector) -> Predicate:
    if not uses_state(a):
        return a
    if isinstance(a, StateTest):
        return TRUE if state[a.component] == a.value else FALSE
    # Below here the node has a state-using descendant (the uses_state
    # early-exit handles every state-free subtree), so at least one
    # child always projects to a new object and rebuilding is never
    # wasted work.
    if isinstance(a, Neg):
        return neg(_project_predicate(a.operand, state))
    if isinstance(a, Conj):
        left = _project_predicate(a.left, state)
        if isinstance(left, PFalse):
            return FALSE  # false AND b = false: skip the right walk
        return conj(left, _project_predicate(a.right, state))
    if isinstance(a, Disj):
        left = _project_predicate(a.left, state)
        if isinstance(left, PTrue):
            return TRUE  # true OR b = true: skip the right walk
        return disj(left, _project_predicate(a.right, state))
    return a  # true / false / field tests contain no state


def project(p: Policy, state: StateVector) -> Policy:
    """The configuration ``⟦p⟧~k`` as a plain NetKAT policy."""
    if not uses_state(p):
        return p
    # One up-front bounds check per call (see project_predicate).
    validate_state_references(p, len(state))
    return _project(p, state)


def _project(p: Policy, state: StateVector) -> Policy:
    if not uses_state(p):
        return p
    if isinstance(p, LinkUpdate):
        # ⟦(a:b)->(c:d)<state(m)<-n>⟧~k = ⟦(a:b)->(c:d)⟧~k
        return Link(p.src, p.dst)
    # As in _project_predicate: a state-using descendant is guaranteed
    # here, so some child always projects to a new object.
    if isinstance(p, Filter):
        return Filter(_project_predicate(p.predicate, state))
    if isinstance(p, Union):
        return union(_project(p.left, state), _project(p.right, state))
    if isinstance(p, Seq):
        left = _project(p.left, state)
        if left is DROP:
            # drop ; q = drop: a resolved-false state guard kills its
            # whole segment without walking the body.
            return DROP
        return seq(left, _project(p.right, state))
    if isinstance(p, Star):
        return star(_project(p.operand, state))
    return p  # assignments, dup, plain links
