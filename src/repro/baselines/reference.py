"""The static reference switch: one fixed configuration, no tags.

This models the unmodified OpenFlow 1.0 reference switch used as the
bandwidth baseline in Figure 16(a): packets carry no tag or digest
overhead and switches do no event bookkeeping.
"""

from __future__ import annotations

from typing import List, Tuple

from ..netkat.compiler import Configuration
from ..netkat.flowtable import FlowTable
from ..netkat.packet import Location, PT
from ..network.simulator import Frame, SimNetwork
# The correct logic's own constant, so overhead comparisons are fair.
from ..network.switch_logic import BASE_HEADER_BYTES

__all__ = ["ReferenceLogic", "BASE_HEADER_BYTES"]


class ReferenceLogic:
    """Plain static forwarding with a fixed configuration."""

    def __init__(self, configuration: Configuration):
        self.configuration = configuration

    def header_bytes(self, frame: Frame) -> int:
        return BASE_HEADER_BYTES

    def on_ingress(self, net: SimNetwork, location: Location, frame: Frame) -> Frame:
        return frame.with_location(location)

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        table = self.configuration.table(location.switch)
        outputs = table.apply(frame.packet.at(location))
        return [
            (
                out_packet[PT],
                Frame(
                    packet=out_packet,
                    payload_bytes=frame.payload_bytes,
                    tag=None,
                    digest=frozenset(),
                    flow=frame.flow,
                    ident=frame.ident,
                    injected_at=frame.injected_at,
                ),
            )
            for out_packet in sorted(outputs, key=repr)
        ]
