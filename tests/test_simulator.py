"""Tests for the discrete-event simulator, traffic generators, and the
correct (tag-based) simulation logic."""

import pytest

from repro.apps import firewall_app, learning_switch_app, ring_app, SIGNAL_FIELD
from repro.baselines import ReferenceLogic
from repro.netkat.packet import Packet
from repro.network import (
    CorrectLogic,
    Frame,
    LinkParams,
    SimNetwork,
    Simulator,
    goodput,
    install_ping_responders,
    ping_outcomes,
    send_bulk,
    send_ping,
)


class TestSimulatorCore:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("first"))
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_run_until_stops_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("late"))
        assert sim.run(until=1.0) == 1.0
        assert not log

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_run_until_before_the_clock_rejected(self):
        # Used to set now back to 5, so a later schedule(1, ...) fired
        # at 6, before the event already processed at 10.
        sim = Simulator()
        log = []
        sim.schedule(10, lambda: log.append("f"))
        sim.run(until=20)
        sim.schedule(10, lambda: log.append("g"))
        with pytest.raises(ValueError, match="the clock is at 10"):
            sim.run(until=5)
        assert sim.now == 10 and log == ["f"]
        sim.run()
        assert sim.now == 20 and log == ["f", "g"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: log.append("x")))
        sim.run()
        assert log == ["x"] and sim.now == 2.0

    @pytest.mark.parametrize("until", (None, 5.0))
    def test_index_error_from_last_action_propagates(self, until):
        # The drain loop ends on the IndexError of popping an empty
        # heap; an IndexError raised by an action is the caller's.
        sim = Simulator()
        sim.schedule(0, lambda: None)
        sim.schedule(1, lambda: [][0])
        with pytest.raises(IndexError):
            sim.run(until=until)
        assert sim.events_processed == 2 and sim.now == 1.0

    @pytest.mark.parametrize("until", (None, 5.0))
    def test_max_events_bound(self, until):
        sim = Simulator()

        def tick():
            sim.schedule(0.001, tick)

        tick()
        with pytest.raises(RuntimeError, match="simulation exceeded 50 events"):
            sim.run(until=until, max_events=50)
        assert sim.events_processed == 50


class TestSimNetworkForwarding:
    def test_ping_roundtrip(self):
        app = firewall_app()
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        install_ping_responders(net)
        send_ping(net, "H1", "H4", 1, 0.1)
        net.run(until=5.0)
        outcomes = ping_outcomes(net, [("H1", "H4", 1, 0.1)])
        assert outcomes[0].succeeded
        assert outcomes[0].completed_at > 0.1

    def test_blocked_ping_recorded_as_drop(self):
        app = firewall_app()
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        install_ping_responders(net)
        send_ping(net, "H4", "H1", 1, 0.1)
        net.run(until=5.0)
        assert len(net.drops) == 1
        assert not ping_outcomes(net, [("H4", "H1", 1, 0.1)])[0].succeeded

    def test_flood_delivers_two_copies(self):
        app = learning_switch_app()
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        send_ping(net, "H4", "H1", 1, 0.1)
        net.run(until=5.0)
        assert {d.host for d in net.deliveries} == {"H1", "H2"}

    def test_bystander_does_not_reply(self):
        """A flooded copy delivered to H2 must not generate a reply."""
        app = learning_switch_app()
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        install_ping_responders(net)
        send_ping(net, "H4", "H1", 1, 0.1)
        net.run(until=5.0)
        replies = [d for d in net.deliveries if d.frame.flow[0] == "ping-reply"]
        assert len(replies) == 1  # only H1 answered

    def test_event_learned_times_recorded(self):
        app = firewall_app()
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        install_ping_responders(net)
        send_ping(net, "H1", "H4", 1, 0.1)
        net.run(until=5.0)
        switches = {sw for (sw, _e) in net.event_learned_at}
        assert 4 in switches  # s4 detected the event
        assert 1 in switches  # the reply gossiped it back to s1


class TestLinkModel:
    def test_latency_delays_delivery(self):
        app = firewall_app()
        slow = LinkParams(latency=0.5, capacity=1e9)
        net = SimNetwork(
            app.topology,
            CorrectLogic(app.compiled),
            seed=0,
            default_link=slow,
        )
        send_ping(net, "H1", "H4", 1, 0.0)
        net.run(until=5.0)
        (delivery,) = [d for d in net.deliveries if d.host == "H4"]
        assert delivery.time >= 0.5

    def test_capacity_serializes_packets(self):
        app = firewall_app()
        thin = LinkParams(latency=0.0, capacity=1000.0)  # 1 KB/s
        net = SimNetwork(
            app.topology,
            CorrectLogic(app.compiled),
            seed=0,
            default_link=thin,
        )
        send_bulk(net, "H1", "H4", packets=3, payload_bytes=1000)
        net.run(until=60.0)
        times = sorted(d.time for d in net.deliveries if d.host == "H4")
        assert len(times) == 3
        # each ~1KB+hdr packet needs > 1 second of link time
        assert times[1] - times[0] >= 1.0

    def test_goodput_measured(self):
        app = firewall_app()
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        send_bulk(net, "H1", "H4", packets=50)
        net.run(until=60.0)
        assert goodput(net, "H1", "H4") > 0


class TestOverheadAccounting:
    def test_tagged_headers_larger_than_reference(self):
        app = firewall_app()
        correct = CorrectLogic(app.compiled)
        reference = ReferenceLogic(
            app.compiled.config_for_state(app.compiled.nes.initial_state)
        )
        frame = Frame(packet=Packet({}))
        assert correct.header_bytes(frame) > reference.header_bytes(frame)

    def test_tagged_goodput_slightly_lower(self):
        app = ring_app(2)
        fast = LinkParams(latency=0.001, capacity=1.25e9)

        def bw(logic):
            net = SimNetwork(
                app.topology, logic, seed=5, default_link=fast, switch_delay=1e-4
            )
            send_bulk(net, "H1", "H2", packets=200)
            net.run(until=120.0)
            return goodput(net, "H1", "H2")

        ref = bw(
            ReferenceLogic(
                app.compiled.config_for_state(app.compiled.nes.initial_state)
            )
        )
        ours = bw(CorrectLogic(app.compiled))
        assert ours < ref
        assert ours > 0.85 * ref  # overhead bounded (~6% in the paper)


class TestRingSignal:
    def test_signal_flips_forwarding(self):
        app = ring_app(2)
        logic = CorrectLogic(app.compiled)
        net = SimNetwork(app.topology, logic, seed=0)
        install_ping_responders(net)
        # before the signal: clockwise forwarding works
        send_ping(net, "H1", "H2", 1, 0.1)
        net.run(until=1.0)
        assert ping_outcomes(net, [("H1", "H2", 1, 0.1)])[0].succeeded
        # signal at t=1.0
        signal = Frame(
            packet=Packet({"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0}),
            flow=("signal",),
        )
        net.inject("H1", signal, at=1.0)
        net.run(until=2.0)
        event_switch = 2 + 1  # diameter + 1
        assert any(sw == event_switch for (sw, _e) in net.event_learned_at)
        # after the signal: pings still complete (via the new path)
        send_ping(net, "H1", "H2", 2, 2.5)
        net.run(until=6.0)
        assert ping_outcomes(net, [("H1", "H2", 2, 2.5)])[0].succeeded
