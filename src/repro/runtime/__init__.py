"""The implementation of event-driven programs (section 4)."""

from .compiler import TAG_FIELD, CompiledNES, LocalityError
from .model import NetworkState, RuntimePacket, SwitchState, TraceRecorder
from .semantics import Runtime, RuntimeInvariantError, Transition

__all__ = [
    "TAG_FIELD",
    "CompiledNES",
    "LocalityError",
    "NetworkState",
    "RuntimePacket",
    "SwitchState",
    "TraceRecorder",
    "Runtime",
    "RuntimeInvariantError",
    "Transition",
]
