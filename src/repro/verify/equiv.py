"""Semantic equivalence of flow tables.

Two tables are compared by their behavior on the finite packet space
their rules mention (plus one fresh value per field); the section 5.3
optimizer (:mod:`repro.optimize.sharing`) uses this to check that a
rewritten table still acts like the original.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Set

from ..netkat.flowtable import FlowTable
from ..netkat.packet import Packet

__all__ = ["tables_equivalent"]

# The largest probe space tables_equivalent enumerates.
MAX_PROBES = 200_000


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
