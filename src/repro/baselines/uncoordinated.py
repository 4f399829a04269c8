"""The uncoordinated update baseline (section 5.1).

Events are reported to the controller, which transitions its own copy of
the ETS and -- after a configurable delay -- pushes the new
configuration's rules to the switches one at a time, in an unpredictable
(seeded) order.  Packets carry no tags; each switch forwards with
whatever table it currently has installed, so during the update window
different switches run different configurations and application
invariants break (dropped replies, over-flooding, cap overshoot, ...).

The paper simulates this strategy the same way and notes that delays of
several seconds are realistic for controller-driven updates ([17]
reports up to 10 s for a single switch update).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..events.event import Event
from ..netkat.flowtable import FlowTable
from ..netkat.packet import Location, PT
from ..runtime.compiler import CompiledNES
from ..stateful.ast import StateVector
from .reference import BASE_HEADER_BYTES, punt_events, untagged_frame
from ..network.simulator import Frame, SimNetwork

__all__ = ["UncoordinatedLogic"]

# Seconds between two consecutive switch pushes of one update.
PUSH_GAP = 0.02


class UncoordinatedLogic:
    """Controller-driven updates with no consistency coordination."""

    def __init__(self, compiled: CompiledNES, update_delay: float = 2.0):
        self.compiled = compiled
        self.update_delay = update_delay
        initial = compiled.nes.initial_state
        self.installed: Dict[int, FlowTable] = dict(
            compiled.config_for_state(initial).tables
        )
        # The controller's view: collected (renamed) events and resulting
        # ETS state, mirroring what the correct runtime tracks in-network.
        self.controller_events: Set[Event] = set()
        self.controller_state: StateVector = initial
        self.pushes_in_flight = 0
        self.update_completed_at: Optional[float] = None

    # -- SwitchLogic interface ---------------------------------------------------

    def header_bytes(self, frame: Frame) -> int:
        return BASE_HEADER_BYTES

    ingress_frame = staticmethod(untagged_frame)

    def process(
        self, net: SimNetwork, location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        punt_events(self, net, location, frame, self._schedule_pushes)
        table = self.installed.get(location.switch, FlowTable())
        outputs = table.apply(frame.packet.at(location))
        return [
            (out_packet[PT], frame.replace(packet=out_packet))
            for out_packet in sorted(outputs, key=repr)
        ]

    # -- controller ------------------------------------------------------------------

    def _schedule_pushes(self, net: SimNetwork, state: StateVector) -> None:
        """After the delay, install the new tables switch by switch in a
        random order (the "unpredictable order" of section 5.1)."""
        config = self.compiled.config_for_state(state)
        switches = sorted(config.tables)
        net.sim.random.shuffle(switches)
        for i, switch_id in enumerate(switches):
            table = config.table(switch_id)
            self.pushes_in_flight += 1

            def install(sw: int = switch_id, tbl: FlowTable = table) -> None:
                self.installed[sw] = tbl
                self.pushes_in_flight -= 1
                if self.pushes_in_flight == 0:
                    self.update_completed_at = net.sim.now

            net.sim.schedule(self.update_delay + i * PUSH_GAP, install)
