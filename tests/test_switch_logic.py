"""Unit tests for the correct simulation logic (tags, digests, and the
controller broadcast) and encoding details of the runtime compiler."""

import pytest

from repro.apps import authentication_app, bandwidth_cap_app, firewall_app
from repro.baselines import ReferenceLogic
from repro.netkat.packet import Location, Packet
from repro.network import CorrectLogic, Frame, SimNetwork
from repro.runtime.compiler import TAG_FIELD


class TestHeaderSizing:
    def test_digest_grows_with_event_count(self):
        small = CorrectLogic(firewall_app().compiled)  # 1 event
        large = CorrectLogic(bandwidth_cap_app(10).compiled)  # 11 events
        frame = Frame(packet=Packet({}))
        assert large.header_bytes(frame) >= small.header_bytes(frame)
        assert large.digest_bytes == 2  # 11 events need two bytes
        assert small.digest_bytes == 1

    def test_tag_bytes_minimum_one(self):
        logic = CorrectLogic(firewall_app().compiled)
        assert logic.tag_bytes == 1


class TestIngressStamping:
    def test_stamp_uses_local_register(self):
        app = firewall_app()
        logic = CorrectLogic(app.compiled)
        (event,) = app.nes.events
        logic.registers[1].add(event)
        packet = Packet({"ip_dst": 4})
        stamped = logic.ingress_frame(Location(1, 2), packet, 1000, (), 0, 0.0)
        assert stamped.tag == frozenset({event})
        assert stamped.digest == frozenset()

    def test_stamp_empty_initially(self):
        app = firewall_app()
        logic = CorrectLogic(app.compiled)
        stamped = logic.ingress_frame(Location(1, 2), Packet({}), 1000, (), 0, 0.0)
        assert stamped.tag == frozenset()


class TestProcessing:
    def test_outputs_carry_updated_digest(self):
        app = firewall_app()
        logic = CorrectLogic(app.compiled)
        net = SimNetwork(app.topology, logic, seed=0)
        (event,) = app.nes.events
        # The event-matching packet arrives at s4 port 1.
        frame = Frame(
            packet=Packet({"sw": 4, "pt": 1, "ip_dst": 4}),
            tag_mask=0,
        )
        outputs = logic.process(net, Location(4, 1), frame)
        assert outputs
        for _, out in outputs:
            assert event in out.digest

    def test_forwarding_uses_packet_tag_not_register(self):
        """Per-packet consistency: a C0-tagged packet is dropped at s4
        even after s4's register knows the event."""
        app = firewall_app()
        logic = CorrectLogic(app.compiled)
        net = SimNetwork(app.topology, logic, seed=0)
        (event,) = app.nes.events
        logic.registers[4].add(event)
        reply = Frame(
            packet=Packet({"sw": 4, "pt": 2, "ip_dst": 1}),
            tag_mask=0,  # stamped before the event
        )
        assert logic.process(net, Location(4, 2), reply) == []

    def test_new_tag_uses_new_config(self):
        app = firewall_app()
        logic = CorrectLogic(app.compiled)
        net = SimNetwork(app.topology, logic, seed=0)
        (event,) = app.nes.events
        reply = Frame(
            packet=Packet({"sw": 4, "pt": 2, "ip_dst": 1}),
            tag_mask=app.nes.structure.encode({event}),
        )
        outputs = logic.process(net, Location(4, 2), reply)
        assert [port for port, _ in outputs] == [1]


class TestControllerBroadcast:
    def test_broadcast_respects_enabling_order(self):
        """The controller never installs a chain suffix without its
        prefix, even if its own view arrived out of order."""
        app = authentication_app()
        logic = CorrectLogic(app.compiled, controller_assist=True)
        net = SimNetwork(app.topology, logic, seed=0)
        e1 = next(e for e in app.nes.events if e.location == Location(1, 1))
        e2 = next(e for e in app.nes.events if e.location == Location(2, 1))
        logic.controller_view = {e2}  # suffix only: must NOT be installed
        logic._broadcast(net)
        for register in logic.registers.values():
            assert e2 not in register
        logic.controller_view = {e1, e2}  # full chain: installs both
        logic._broadcast(net)
        for register in logic.registers.values():
            assert register == {e1, e2}


class TestGuardedTablesSemantics:
    def test_guarded_lookup_selects_configuration(self):
        """The merged table with an explicit tag field reproduces each
        per-configuration table (the deployable §4 artifact)."""
        app = firewall_app()
        compiled = app.compiled
        merged = compiled.guarded_tables()
        for state, config in compiled.configurations.items():
            tag = compiled.config_ids[state]
            for switch, table in config.tables.items():
                for rule in table:
                    probe_fields = {
                        f: c for f, c in rule.match.entries() if isinstance(c, int)
                    }
                    probe_fields.setdefault("sw", switch)
                    probe = Packet(probe_fields).set(TAG_FIELD, tag)
                    got = merged[switch].apply(probe)
                    want = {
                        p.set(TAG_FIELD, tag) for p in table.apply(probe.without(TAG_FIELD))
                    }
                    assert got == frozenset(want)
