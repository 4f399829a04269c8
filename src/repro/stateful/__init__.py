"""Stateful NetKAT: the paper's programming language (section 3.2).

Programs mix plain NetKAT with tests and link-triggered updates of a
global state vector.  Projection recovers the per-state configurations;
event extraction (Figure 6, for every state at once in
:class:`SymbolicProgram`) recovers the ETS edges.  The per-state
extraction walk is a reference in ``tests/naive_oracles.py``.
"""

from .ast import (
    LinkUpdate,
    StateTest,
    StateVector,
    link_update,
    state_eq,
    state_test,
    uses_state,
    vector_update,
)
from .ets import ETS, build_ets
from ..formula import EQ, Formula, Literal, NE
from .projection import project, project_predicate
from .symbolic import (
    EventEdge,
    GuardedEdge,
    StateGuard,
    SymbolicExtract,
    SymbolicProgram,
)

__all__ = [
    "StateVector",
    "StateTest",
    "LinkUpdate",
    "state_test",
    "state_eq",
    "link_update",
    "vector_update",
    "uses_state",
    "Formula",
    "Literal",
    "EQ",
    "NE",
    "EventEdge",
    "ETS",
    "build_ets",
    "project",
    "project_predicate",
    "StateGuard",
    "GuardedEdge",
    "SymbolicExtract",
    "SymbolicProgram",
]
