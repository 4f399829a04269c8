"""Denotational semantics of NetKAT.

A policy denotes a function from histories to sets of histories
(Anderson et al., POPL'14).  This evaluator is deliberately simple and
direct -- it is the ground truth against which the FDD compiler
(:mod:`repro.netkat.fdd`) is validated by the test suite.

For convenience we also expose a packet-level wrapper (:func:`eval_packet`)
that ignores histories.
"""

from __future__ import annotations

from typing import FrozenSet, Set

from .ast import (
    Assign,
    Conj,
    Disj,
    Dup,
    Filter,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    Test,
    Union,
)
from .packet import History, Packet, PT, SW

__all__ = [
    "eval_predicate",
    "eval_policy",
    "eval_packet",
    "STAR_FUEL",
]

# Upper bound on Kleene-star fixpoint iterations.  Field domains in tests are
# tiny, so convergence is fast; the bound exists to turn accidental
# divergence (a bug) into a loud error instead of a hang.
STAR_FUEL = 1000


def eval_predicate(a: Predicate, packet: Packet) -> bool:
    """Does ``packet`` satisfy predicate ``a``?

    A test on a field the packet lacks is false (the packet does not
    satisfy ``f = n`` if it has no ``f``).
    """
    if isinstance(a, PTrue):
        return True
    if isinstance(a, PFalse):
        return False
    if isinstance(a, Test):
        return packet.get(a.field) == a.value
    if isinstance(a, Neg):
        return not eval_predicate(a.operand, packet)
    if isinstance(a, Conj):
        return eval_predicate(a.left, packet) and eval_predicate(a.right, packet)
    if isinstance(a, Disj):
        return eval_predicate(a.left, packet) or eval_predicate(a.right, packet)
    raise TypeError(f"not a predicate: {a!r}")


def eval_policy(p: Policy, history: History) -> FrozenSet[History]:
    """The denotation ``[[p]] : History -> P(History)``."""
    if isinstance(p, Filter):
        if eval_predicate(p.predicate, history.head):
            return frozenset((history,))
        return frozenset()
    if isinstance(p, Assign):
        return frozenset((history.with_head(history.head.set(p.field, p.value)),))
    if isinstance(p, Union):
        return eval_policy(p.left, history) | eval_policy(p.right, history)
    if isinstance(p, Seq):
        out: Set[History] = set()
        for mid in eval_policy(p.left, history):
            out |= eval_policy(p.right, mid)
        return frozenset(out)
    if isinstance(p, Star):
        return _eval_star(p, history)
    if isinstance(p, Dup):
        return frozenset((history.dup(),))
    if isinstance(p, Link):
        head = history.head
        if head.get(SW) == p.src.switch and head.get(PT) == p.src.port:
            moved = head.set(SW, p.dst.switch).set(PT, p.dst.port)
            return frozenset((history.dup().with_head(moved),))
        return frozenset()
    raise TypeError(f"not a policy: {p!r}")


def _eval_star(p: Star, history: History) -> FrozenSet[History]:
    """Least fixpoint: ``[[p*]] h = U_i [[p]]^i h``."""
    reached: Set[History] = {history}
    frontier: Set[History] = {history}
    for _ in range(STAR_FUEL):
        next_frontier: Set[History] = set()
        for h in frontier:
            for h2 in eval_policy(p.operand, h):
                if h2 not in reached:
                    reached.add(h2)
                    next_frontier.add(h2)
        if not next_frontier:
            return frozenset(reached)
        frontier = next_frontier
    raise RuntimeError(
        f"p* did not converge within {STAR_FUEL} iterations; "
        "is the iterated policy generating unboundedly many packets?"
    )


def eval_packet(p: Policy, packet: Packet) -> FrozenSet[Packet]:
    """Packet-level evaluation: run ``p`` and return the head packets."""
    return frozenset(h.head for h in eval_policy(p, History.of(packet)))

