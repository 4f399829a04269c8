"""Verification extras: bounded model checking of the runtime against
Definition 6, and semantic equivalence of flow tables (the paper's
section 7 future-work items, realized for finite instances)."""

from .equiv import tables_equivalent
from .explore import ExplorationResult, explore_all_interleavings

__all__ = [
    "explore_all_interleavings",
    "ExplorationResult",
    "tables_equivalent",
]
