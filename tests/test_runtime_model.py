"""Unit tests for the runtime state model (queues, registers, recorder)."""

import pytest

from repro.consistency.traces import TraceValidationError
from repro.events.event import Event
from repro.formula import Formula
from repro.netkat.packet import Location, Packet
from repro.runtime.model import (
    NetworkState,
    RuntimePacket,
    SwitchState,
    TraceRecorder,
)


def make_packet(**fields) -> RuntimePacket:
    return RuntimePacket(packet=Packet(fields), tag=frozenset())


class TestRuntimePacket:
    def test_immutability(self):
        p = make_packet(a=1)
        with pytest.raises(Exception):
            p.tag = frozenset({"x"})


class TestSwitchState:
    def test_queue_discipline_fifo(self):
        sw = SwitchState(1)
        sw.enqueue_in(2, make_packet(a=1))
        sw.enqueue_in(2, make_packet(a=2))
        assert sw.in_queues[2].popleft().packet["a"] == 1

    def test_ports_with_input(self):
        sw = SwitchState(1)
        sw.enqueue_in(3, make_packet())
        sw.enqueue_out(1, make_packet())
        assert sw.ports_with_input() == [3]
        assert sw.ports_with_output() == [1]

    def test_pending_packets(self):
        sw = SwitchState(1)
        assert sw.pending_packets() == 0
        sw.enqueue_in(1, make_packet())
        sw.enqueue_out(2, make_packet())
        assert sw.pending_packets() == 2


class TestNetworkState:
    def test_quiescent_initially(self):
        state = NetworkState([1, 4])
        assert state.quiescent()

    def test_quiescent_ignores_controller(self):
        state = NetworkState([1])
        state.controller_queue.add(Event(Formula(), Location(1, 1)))
        assert state.quiescent()

    def test_switch_lookup(self):
        state = NetworkState([1, 4])
        assert state.switch(4).switch_id == 4
        with pytest.raises(KeyError):
            state.switch(9)


class TestTraceRecorder:
    def test_record_returns_indices_in_order(self):
        rec = TraceRecorder()
        assert rec.record(Packet({"sw": 1, "pt": 2}), Location(1, 2)) == 0
        assert rec.record(Packet({"sw": 1, "pt": 1}), Location(1, 1)) == 1

    def test_record_relocates_packet(self):
        rec = TraceRecorder()
        rec.record(Packet({"sw": 9, "pt": 9}), Location(1, 2))
        assert rec.positions[0].location == Location(1, 2)
        assert rec.positions[0].packet.switch == 1

    def test_finish_ignores_empty_paths(self):
        rec = TraceRecorder()
        rec.finish(())
        assert rec.finished_paths == []

    def test_network_trace_includes_pending(self):
        rec = TraceRecorder()
        i0 = rec.record(Packet({"sw": 1, "pt": 2}), Location(1, 2))
        trace = rec.network_trace(iter([(i0,)]))
        assert len(trace.trace_indices) == 1

    def test_network_trace_validates(self):
        rec = TraceRecorder()
        rec.record(Packet({"sw": 1, "pt": 2}), Location(1, 2))
        rec.record(Packet({"sw": 1, "pt": 1}), Location(1, 1))
        rec.finish((0,))
        # index 1 uncovered -> the structural validation must fire
        with pytest.raises(TraceValidationError):
            rec.network_trace()
