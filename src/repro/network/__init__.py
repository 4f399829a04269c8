"""The discrete-event network simulator (the Mininet substitute)."""

from .simulator import (
    DeliveryRecord,
    DropRecord,
    Frame,
    FrameBatch,
    LinkParams,
    SimNetwork,
    Simulator,
)
from .switch_logic import CorrectLogic
from .traffic import (
    KIND_REPLY,
    KIND_REQUEST,
    PingOutcome,
    goodput,
    install_ping_responders,
    ping_outcomes,
    send_bulk,
    send_ping,
)

__all__ = [
    "Simulator",
    "SimNetwork",
    "Frame",
    "FrameBatch",
    "LinkParams",
    "DeliveryRecord",
    "DropRecord",
    "CorrectLogic",
    "install_ping_responders",
    "send_ping",
    "ping_outcomes",
    "PingOutcome",
    "send_bulk",
    "goodput",
    "KIND_REQUEST",
    "KIND_REPLY",
]
