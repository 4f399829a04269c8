"""Semantic equivalence checks for policies and configurations.

FDDs are canonical for link-free NetKAT over a fixed field order --
hash-consing makes semantic equality pointer equality -- which gives a
decision procedure for the link-free fragment.  Configurations (which
include links) are compared by their per-switch tables' behavior on the
finite packet space the tables mention, plus the shared topology.

This is the "formal reasoning for Stateful NetKAT" seed the paper lists
as future work: projected configurations of stateful programs can be
compared state by state.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..netkat.ast import Policy, Predicate
from ..netkat.compiler import Configuration
from ..netkat.fdd import FDDBuilder
from ..netkat.flowtable import FlowTable
from ..netkat.packet import Packet
from ..stateful.ast import StateVector
from ..stateful.projection import project

__all__ = [
    "policies_equivalent",
    "predicates_equivalent",
    "tables_equivalent",
    "configurations_equivalent",
    "stateful_projections_equivalent",
]

# The largest probe space tables_equivalent enumerates.
MAX_PROBES = 200_000


def policies_equivalent(p: Policy, q: Policy, builder: Optional[FDDBuilder] = None) -> bool:
    """Decide ``p ≡ q`` for link-free policies via canonical FDDs."""
    builder = builder or FDDBuilder()
    return builder.of_policy(p) is builder.of_policy(q)


def predicates_equivalent(a: Predicate, b: Predicate) -> bool:
    """Decide ``a ≡ b`` for predicates via canonical FDDs."""
    builder = FDDBuilder()
    return builder.of_predicate(a) is builder.of_predicate(b)


def _mentioned_values(tables: Iterable[FlowTable]) -> Dict[str, Set[int]]:
    """Field values any rule tests or writes, plus one fresh value each."""
    values: Dict[str, Set[int]] = {}
    for table in tables:
        for rule in table:
            for field, constraint in rule.match.entries():
                if isinstance(constraint, int):
                    values.setdefault(field, set()).add(constraint)
                else:  # prefix match: cover its concrete values
                    values.setdefault(field, set()).update(
                        constraint.covered_values()
                    )
            for mod in rule.actions:
                for field, value in mod:
                    values.setdefault(field, set()).add(value)
    for field, seen in values.items():
        seen.add(max(seen) + 1)  # a value no rule mentions
    return values


def tables_equivalent(t1: FlowTable, t2: FlowTable) -> bool:
    """Do two tables map every relevant packet to the same outputs?

    The probe space is the product of the field values either table
    mentions (plus one fresh value per field), which is sufficient to
    distinguish exact-match/priority tables.
    """
    values = _mentioned_values([t1, t2])
    if not values:
        return t1.apply(Packet({})) == t2.apply(Packet({}))
    fields = sorted(values)
    total = 1
    for field in fields:
        total *= len(values[field])
    if total > MAX_PROBES:
        raise ValueError(
            f"probe space of {total} packets exceeds max_probes={MAX_PROBES}"
        )
    for combo in product(*(sorted(values[f]) for f in fields)):
        packet = Packet(dict(zip(fields, combo)))
        if t1.apply(packet) != t2.apply(packet):
            return False
    return True


def configurations_equivalent(c1: Configuration, c2: Configuration) -> bool:
    """Do two compiled configurations behave identically per switch?"""
    if c1.topology.switches != c2.topology.switches:
        return False
    return all(
        tables_equivalent(c1.table(switch), c2.table(switch))
        for switch in c1.topology.switches
    )


def stateful_projections_equivalent(
    p: Policy, q: Policy, states: Iterable[StateVector]
) -> List[StateVector]:
    """Compare two stateful programs state by state.

    Returns the states at which the projected configurations *differ*
    (empty list = equivalent on all given states).  Projections are
    compared as compiled FDDs when link-free, otherwise by AST equality
    of the projection (conservative).
    """
    builder = FDDBuilder()
    differing: List[StateVector] = []
    from ..netkat.compiler import link_free, strip_dup

    for state in states:
        cp = _normalize(strip_dup(project(p, state)))
        cq = _normalize(strip_dup(project(q, state)))
        if link_free(cp) and link_free(cq):
            if not policies_equivalent(cp, cq, builder):
                differing.append(state)
        elif cp != cq:
            differing.append(state)
    return differing


def _normalize(p: Policy) -> Policy:
    """Rebuild a policy through the smart constructors.

    Projection and ``strip_dup`` preserve node identity on untouched
    subtrees, so trivially-simplifiable shapes (``id ; q``, ``drop + q``,
    ...) survive in their projections.  The AST-equality fallback below
    compares the normalized forms so identity-preserved and rebuilt
    projections of equivalent programs still compare equal.
    """
    from ..netkat.ast import (
        Conj,
        Disj,
        Filter,
        Neg,
        Seq,
        Star,
        Union,
        conj,
        disj,
        neg,
        seq,
        star,
        union,
    )

    def norm_pred(a: Predicate) -> Predicate:
        if isinstance(a, Neg):
            return neg(norm_pred(a.operand))
        if isinstance(a, Conj):
            return conj(norm_pred(a.left), norm_pred(a.right))
        if isinstance(a, Disj):
            return disj(norm_pred(a.left), norm_pred(a.right))
        return a

    if isinstance(p, Filter):
        return Filter(norm_pred(p.predicate))
    if isinstance(p, Union):
        return union(_normalize(p.left), _normalize(p.right))
    if isinstance(p, Seq):
        return seq(_normalize(p.left), _normalize(p.right))
    if isinstance(p, Star):
        return star(_normalize(p.operand))
    return p
