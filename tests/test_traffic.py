"""Unit tests for the traffic generators and measurements."""

import pytest

from repro.apps import firewall_app, ring_app
from repro.apps.base import HOSTS
from repro.baselines import ReferenceLogic
from repro.netkat.packet import Packet
from repro.network import (
    CorrectLogic,
    Frame,
    SimNetwork,
    goodput,
    install_ping_responders,
    ping_outcomes,
    send_bulk,
    send_ping,
)
from repro.network.traffic import KIND_REPLY, KIND_REQUEST


@pytest.fixture()
def net():
    app = firewall_app()
    network = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
    install_ping_responders(network)
    return network


class TestPings:
    def test_request_carries_fields(self, net):
        send_ping(net, "H1", "H4", 7, 0.1)
        net.run(until=2.0)
        requests = [d for d in net.deliveries if d.frame.flow[:1] == ("ping",)]
        assert requests, "request not delivered"
        pkt = requests[0].frame.packet
        assert pkt["kind"] == KIND_REQUEST
        assert pkt["ident"] == 7
        assert pkt["ip_src"] == 1 and pkt["ip_dst"] == 4

    def test_reply_swaps_addresses(self, net):
        send_ping(net, "H1", "H4", 7, 0.1)
        net.run(until=2.0)
        replies = [d for d in net.deliveries if d.frame.flow[:1] == ("ping-reply",)]
        assert replies
        pkt = replies[0].frame.packet
        assert pkt["kind"] == KIND_REPLY
        assert pkt["ip_src"] == 4 and pkt["ip_dst"] == 1

    def test_extra_fields_forwarded(self, net):
        send_ping(net, "H1", "H4", 1, 0.1, extra_fields={"dscp": 46})
        net.run(until=2.0)
        requests = [d for d in net.deliveries if d.frame.flow[:1] == ("ping",)]
        assert requests[0].frame.packet["dscp"] == 46

    def test_outcomes_match_by_ident(self, net):
        send_ping(net, "H1", "H4", 1, 0.1)
        send_ping(net, "H1", "H4", 2, 0.2)
        net.run(until=3.0)
        outcomes = ping_outcomes(
            net, [("H1", "H4", 1, 0.1), ("H1", "H4", 2, 0.2), ("H1", "H4", 3, 0.3)]
        )
        assert [o.succeeded for o in outcomes] == [True, True, False]

    def test_reply_not_generated_for_reply(self, net):
        """Replies must not ping-pong forever."""
        send_ping(net, "H1", "H4", 1, 0.1)
        net.run(until=5.0)
        replies = [d for d in net.deliveries if d.frame.flow[:1] == ("ping-reply",)]
        assert len(replies) == 1


class TestBulk:
    def test_send_bulk_count(self, net):
        send_bulk(net, "H1", "H4", packets=10)
        net.run(until=10.0)
        assert len(net.delivered_flows(("bulk", "H1", "H4"))) == 10

    def test_goodput_zero_for_tiny_flows(self, net):
        send_bulk(net, "H1", "H4", packets=1)
        net.run(until=5.0)
        assert goodput(net, "H1", "H4") == 0.0

    def test_goodput_positive(self, net):
        send_bulk(net, "H1", "H4", packets=20)
        net.run(until=10.0)
        assert goodput(net, "H1", "H4") > 0

    def test_spacing_paces_flow(self):
        app = firewall_app()
        paced = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        send_bulk(paced, "H1", "H4", packets=5, spacing=0.5)
        paced.run(until=10.0)
        times = sorted(d.time for d in paced.delivered_flows(("bulk", "H1", "H4")))
        assert times[-1] - times[0] >= 1.9  # 4 gaps of 0.5s

    @pytest.mark.parametrize("spacing", (0.0, 1e-4))
    @pytest.mark.parametrize("logic", ("correct", "reference"))
    def test_bulk_stream_matches_per_frame_injection(self, logic, spacing):
        def run(per_frame):
            app = ring_app(4)
            compiled = app.compiled
            if logic == "correct":
                strategy = CorrectLogic(compiled)
            else:
                strategy = ReferenceLogic(
                    compiled.config_for_state(compiled.nes.initial_state)
                )
            net = SimNetwork(app.topology, strategy, seed=0)
            if per_frame:
                # What send_bulk did before it became one stream.
                for i in range(40):
                    fields = {"ip_src": HOSTS["H1"], "ip_dst": HOSTS["H2"], "kind": 0}
                    frame = Frame(
                        Packet({**fields, "ident": i}),
                        1470,
                        flow=("bulk", "H1", "H2"),
                        ident=i,
                    )
                    net.inject("H1", frame, at=i * spacing)
            else:
                send_bulk(net, "H1", "H2", packets=40, spacing=spacing)
            net.run()
            return net.deliveries, net.drops, goodput(net, "H1", "H2")

        streamed = run(per_frame=False)
        assert len(streamed[0]) == 40 and streamed[2] > 0
        assert streamed == run(per_frame=True)


class TestFrame:
    def test_with_location(self):
        from repro.netkat.packet import Location, Packet

        f = Frame(packet=Packet({"sw": 1, "pt": 1}))
        moved = f.with_location(Location(4, 2))
        assert moved.packet.location == Location(4, 2)
        assert f.packet.location == Location(1, 1)  # original untouched
