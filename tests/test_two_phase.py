"""Tests for the two-phase per-packet consistent update baseline."""


from repro.apps import bandwidth_cap_app, firewall_app
from repro.baselines import TwoPhaseLogic, VERSION_FIELD
from repro.network import (
    SimNetwork,
    install_ping_responders,
    ping_outcomes,
    send_ping,
)

H1, H4 = 1, 4


def firewall_run(flip_delay=0.5, n_pings=6, interval=0.3, seed=7):
    app = firewall_app()
    logic = TwoPhaseLogic(app.compiled, flip_delay=flip_delay)
    net = SimNetwork(app.topology, logic, seed=seed)
    install_ping_responders(net)
    pings = []
    for i in range(n_pings):
        at = 0.5 + i * interval
        send_ping(net, "H1", "H4", i + 1, at)
        pings.append(("H1", "H4", i + 1, at))
    net.run(until=15.0)
    return net, logic, ping_outcomes(net, pings)


class TestVersionStamping:
    def test_ingress_stamps_current_version(self):
        net, logic, _ = firewall_run()
        stamped = [
            d.frame.packet.get(VERSION_FIELD)
            for d in net.deliveries
            if d.frame.flow[:1] == ("ping",)
        ]
        assert stamped and all(v is not None for v in stamped)

    def test_per_packet_consistency_holds(self):
        """Every delivered packet carries a single version end to end --
        the guarantee two-phase updates do provide."""
        net, logic, _ = firewall_run()
        for delivery in net.deliveries:
            version = delivery.frame.packet.get(VERSION_FIELD)
            assert version in (0, 1)

    def test_flip_advances_stamping(self):
        net, logic, _ = firewall_run()
        assert logic.flips_completed_at is not None
        assert all(v == 1 for v in logic.stamp_version.values())


class TestInsufficiency:
    def test_replies_dropped_despite_consistency(self):
        """The section 1 claim: per-packet consistency alone leaves the
        firewall broken during the flip window."""
        _, _, outcomes = firewall_run(flip_delay=0.8)
        dropped = [o for o in outcomes if not o.succeeded]
        assert dropped, "expected early replies to be dropped"
        assert outcomes[-1].succeeded  # converges after the flip

    def test_longer_flip_delay_drops_more(self):
        _, _, fast = firewall_run(flip_delay=0.2)
        _, _, slow = firewall_run(flip_delay=1.5)
        assert sum(not o.succeeded for o in fast) <= sum(
            not o.succeeded for o in slow
        )

    def test_cap_overshoots_under_two_phase(self):
        """Version flips lag the count, so extra replies sneak through."""
        cap = 3
        app = bandwidth_cap_app(cap)
        logic = TwoPhaseLogic(app.compiled, flip_delay=1.5)
        net = SimNetwork(app.topology, logic, seed=3)
        install_ping_responders(net)
        pings = []
        for i in range(cap + 6):
            at = 0.5 + i * 0.3
            send_ping(net, "H1", "H4", i + 1, at)
            pings.append(("H1", "H4", i + 1, at))
        net.run(until=20.0)
        successes = sum(1 for o in ping_outcomes(net, pings) if o.succeeded)
        assert successes > cap


class TestControllerStateMachine:
    def test_chain_advances_monotonically(self):
        cap = 2
        app = bandwidth_cap_app(cap)
        logic = TwoPhaseLogic(app.compiled, flip_delay=0.1)
        net = SimNetwork(app.topology, logic, seed=1)
        install_ping_responders(net)
        for i in range(cap + 3):
            send_ping(net, "H1", "H4", i + 1, 0.5 + i * 0.4)
        net.run(until=15.0)
        # The controller saw exactly cap+1 chain events (0..cap).
        assert len(logic.controller_events) == cap + 1
        # Stamping never moves backward.
        assert all(
            v == max(logic.stamp_version.values())
            for v in logic.stamp_version.values()
        )
