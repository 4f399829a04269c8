"""Stateful NetKAT: the paper's programming language (section 3.2).

Programs mix plain NetKAT with tests and link-triggered updates of a
global state vector.  Projection recovers the per-state configurations;
event extraction recovers the ETS edges.
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
from .events import EventEdge, ExtractResult, extract
from ..formula import EQ, Formula, Literal, NE
from .projection import project, project_predicate
from .symbolic import (
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
    "extract",
    "ExtractResult",
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
