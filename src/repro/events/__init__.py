"""Event structures and network event structures (sections 2-3)."""

from .event import Event, EventSet
from .ets_to_nes import (
    ETSConversionError,
    FiniteCompletenessError,
    UniqueConfigurationError,
    check_finite_complete,
    family_of_ets,
    nes_of_ets,
)
from .locality import (
    is_locally_determined,
    locality_violations,
    minimally_inconsistent_masks,
    minimally_inconsistent_sets,
)
from .nes import NES
from .structure import EventStructure

__all__ = [
    "Event",
    "EventSet",
    "EventStructure",
    "NES",
    "nes_of_ets",
    "family_of_ets",
    "check_finite_complete",
    "ETSConversionError",
    "UniqueConfigurationError",
    "FiniteCompletenessError",
    "minimally_inconsistent_sets",
    "minimally_inconsistent_masks",
    "locality_violations",
    "is_locally_determined",
]
