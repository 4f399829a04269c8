"""Failure injection: corrupted digests, broken invariants, and
malformed inputs must fail loudly, not silently corrupt state."""

import pytest

from repro.apps import authentication_app, bandwidth_cap_app, firewall_app
from repro.events.event import Event
from repro.formula import EQ, Formula, Literal
from repro.netkat.packet import Location, Packet
from repro.runtime.model import RuntimePacket
from repro.runtime.semantics import Runtime, RuntimeInvariantError, Transition

H1, H4 = 1, 4


class TestCorruptedDigests:
    def test_forged_digest_of_unenabled_event_rejected(self):
        """A digest claiming a chain event occurred out of order would
        make the register a non-event-set; the SWITCH rule must refuse."""
        app = bandwidth_cap_app(3)
        rt = app.runtime()
        # Forge the *second* chain event without the first.
        by_eid = {e.eid: e for e in app.nes.events}
        forged = frozenset({by_eid[1]})
        packet = Packet({"ip_dst": H4, "ip_src": H1}).at(Location(1, 2))
        rt.state.switch(1).enqueue_in(
            2, RuntimePacket(packet, tag=frozenset(), digest=forged, trace_path=(0,))
        )
        rt.recorder.record(packet, Location(1, 2))
        with pytest.raises(RuntimeInvariantError):
            rt.apply(Transition("SWITCH", (1, 2)))

    def test_forged_tag_of_unknown_event_set_rejected(self):
        """A tag that is no event-set of the NES cannot name a
        configuration; forwarding must fail loudly."""
        app = firewall_app()
        rt = app.runtime()
        alien = Event(Formula((Literal("zz", EQ, 1),)), Location(9, 9))
        packet = Packet({"ip_dst": H4, "ip_src": H1}).at(Location(1, 2))
        rt.state.switch(1).enqueue_in(
            2,
            RuntimePacket(
                packet, tag=frozenset({alien}), digest=frozenset(), trace_path=(0,)
            ),
        )
        rt.recorder.record(packet, Location(1, 2))
        with pytest.raises(KeyError):
            rt.apply(Transition("SWITCH", (1, 2)))

    def test_consistent_forged_digest_is_absorbed(self):
        """A digest for an event that *could* have occurred is
        indistinguishable from gossip and must be absorbed (the model
        trusts the wire, as the paper's implementation does)."""
        app = firewall_app()
        rt = app.runtime()
        (event,) = app.nes.events
        packet = Packet({"ip_dst": H4, "ip_src": H1}).at(Location(1, 2))
        rt.state.switch(1).enqueue_in(
            2,
            RuntimePacket(
                packet, tag=frozenset(), digest=frozenset({event}), trace_path=(0,)
            ),
        )
        rt.recorder.record(packet, Location(1, 2))
        rt.apply(Transition("SWITCH", (1, 2)))
        assert event in rt.state.switch(1).known_events


class TestBrokenTopology:
    def test_link_transition_without_link_raises(self):
        app = firewall_app()
        rt = app.runtime()
        packet = Packet({"ip_dst": H4}).at(Location(1, 3))  # port 3 has no link
        rt.state.switch(1).enqueue_out(
            3, RuntimePacket(packet, tag=frozenset(), trace_path=(0,))
        )
        rt.recorder.record(packet, Location(1, 3))
        with pytest.raises(RuntimeInvariantError):
            rt.apply(Transition("LINK", (Location(1, 3),)))

    def test_simulator_drops_at_linkless_port(self):
        """The timed simulator records (not raises) when a rule emits to
        a dead port -- packets on the wire can't throw exceptions."""
        from repro.network import CorrectLogic, FrameBatch, SimNetwork

        class DeadPortLogic(CorrectLogic):
            """Sends every output to port 9, which has neither host nor
            link."""

            def process(self, net, location, frame):
                return [(9, out) for _, out in super().process(net, location, frame)]

        app = firewall_app()
        net = SimNetwork(app.topology, DeadPortLogic(app.compiled), seed=0)
        # The first frame fires the firewall's event, the second records
        # an emission plan, the rest replay it: full path and replay
        # must both record the drop.
        net.inject_stream(
            "H1", FrameBatch({"ip_dst": H4, "ip_src": H1}, 4, spacing=1e-3)
        )
        net.run(until=1.0)
        assert [(d.location, d.reason) for d in net.drops] == [
            (Location(1, 9), "no-link-at-port")
        ] * 4
        assert not net.deliveries


class TestMalformedWorkloads:
    def test_injection_at_unknown_host(self):
        rt = firewall_app().runtime()
        with pytest.raises(KeyError):
            rt.inject("H99", {"ip_dst": 1})

    def test_non_integer_field_rejected_at_injection(self):
        rt = firewall_app().runtime()
        with pytest.raises(TypeError):
            rt.inject("H1", {"ip_dst": "four"})

    def test_runaway_execution_bounded(self):
        rt = firewall_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        with pytest.raises(RuntimeInvariantError):
            rt.run_until_quiescent(max_steps=1)


class TestRegisterMonotonicity:
    def test_registers_only_grow(self):
        """Event knowledge is monotone: no transition shrinks a register."""
        app = authentication_app()
        rt = app.runtime(seed=5, controller_assist=True)
        rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 1})
        rt.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": 2})
        rt.inject("H4", {"ip_dst": 2, "ip_src": 4, "ident": 3})
        snapshots = {n: set() for n in rt.state.switches}
        for _ in range(10_000):
            transitions = rt.enabled_transitions()
            if not transitions or rt.state.quiescent():
                break
            rt.apply(transitions[0])
            for n, switch in rt.state.switches.items():
                assert snapshots[n] <= switch.known_events
                snapshots[n] = set(switch.known_events)

    def test_controller_view_superset_of_detected(self):
        app = firewall_app()
        rt = app.runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.run_until_quiescent()
        rt.drain_controller()
        detected = set().union(
            *(s.known_events for s in rt.state.switches.values())
        )
        assert detected <= (rt.state.controller | rt.state.controller_queue) or (
            rt.state.controller | rt.state.controller_queue
        ) <= detected
