"""Event-driven consistent updates: traces, happens-before, checkers.

Definitions 2 and 6 are decided on event bitmasks in :class:`NESChecker`;
the frozenset reference the tests compare it with lives in
``tests/naive_oracles.py``.
"""

from .checker import CorrectnessReport, NESChecker, check_trace_against_nes
from .traces import (
    HappensBefore,
    NetworkTrace,
    TraceValidationError,
    packet_trace_in_traces,
    position_event_masks,
)

__all__ = [
    "NetworkTrace",
    "TraceValidationError",
    "HappensBefore",
    "packet_trace_in_traces",
    "position_event_masks",
    "CorrectnessReport",
    "NESChecker",
    "check_trace_against_nes",
]
