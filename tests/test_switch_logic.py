"""Unit tests for the correct simulation logic (tags, digests, and the
controller broadcast, the last checked against the frozenset
``Figure7Logic`` of ``tests/naive_oracles.py``) and encoding details of
the runtime compiler.  Registers are seeded only through the rules that
write them in production: SWITCH and CTRLSEND."""

import pytest

from repro.apps import authentication_app, bandwidth_cap_app, firewall_app
from repro.netkat.ast import filter_, seq, union
from repro.netkat.packet import Location, Packet
from repro.network import CorrectLogic, Frame, SimNetwork
from repro.pipeline import Pipeline
from repro.runtime.compiler import TAG_FIELD
from repro.stateful.ast import link_update, state_eq
from repro.topology import star_topology

from naive_oracles import Figure7Logic


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
        net = SimNetwork(app.topology, logic, seed=0)
        (event,) = app.nes.events
        # SWITCH at s1 learns the event from a frame's digest.
        gossip = Frame(
            packet=Packet({"sw": 1, "pt": 2, "ip_dst": 4}),
            tag_mask=0,
            digest_mask=app.nes.structure.encode({event}),
        )
        logic.process(net, Location(1, 2), gossip)
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
        # SWITCH at s4 detects the event from the frame that triggers it.
        request = Frame(packet=Packet({"sw": 4, "pt": 1, "ip_dst": 4}), tag_mask=0)
        logic.process(net, Location(4, 1), request)
        stamped = logic.ingress_frame(Location(4, 2), Packet({}), 1000, (), 0, 0.0)
        assert stamped.tag == frozenset({event})
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


def _set_controller_view(logic, events):
    """CTRLRECV's outcome: the events the controller has heard of."""
    if isinstance(logic, Figure7Logic):
        logic.controller_view = set(events)
    else:
        logic._controller_mask = logic.compiled.nes.structure.encode(events)


def _registers(logic):
    """Each switch's register as an event set."""
    if isinstance(logic, Figure7Logic):
        return {n: frozenset(register) for n, register in logic.registers.items()}
    decode = logic.compiled.nes.structure.decode
    return {n: decode(mask) for n, mask in logic._register_masks.items()}


def _conflict_app_compiled():
    """Two conflicting events at s4, each enabled by the empty set."""
    prog = union(
        seq(filter_(state_eq([0])), link_update("1:1", "4:1", [1])),
        seq(filter_(state_eq([0])), link_update("2:1", "4:3", [2])),
    )
    return Pipeline(prog, star_topology(), (0,)).compiled


@pytest.mark.parametrize(
    "logic_class", (CorrectLogic, Figure7Logic), ids=lambda cls: cls.__name__
)
class TestControllerBroadcast:
    """CTRLSEND, on masks and on the frozenset reference."""

    def test_broadcast_respects_enabling_order(self, logic_class):
        """The controller never installs a chain suffix without its
        prefix, even if its own view arrived out of order."""
        app = authentication_app()
        logic = logic_class(app.compiled, controller_assist=True)
        net = SimNetwork(app.topology, logic, seed=0)
        e1 = next(e for e in app.nes.events if e.location == Location(1, 1))
        e2 = next(e for e in app.nes.events if e.location == Location(2, 1))
        _set_controller_view(logic, {e2})  # suffix only: must NOT be installed
        logic._broadcast(net)
        for register in _registers(logic).values():
            assert e2 not in register
        _set_controller_view(logic, {e1, e2})  # full chain: installs both
        logic._broadcast(net)
        for register in _registers(logic).values():
            assert register == {e1, e2}

    def test_broadcast_merges_to_a_fixpoint(self, logic_class):
        """The cap chain's tenth event sorts (and is interned) before
        its enabler, the second: one pass in bit order stops short."""
        app = bandwidth_cap_app()
        logic = logic_class(app.compiled, controller_assist=True)
        net = SimNetwork(app.topology, logic, seed=0)
        universe = app.nes.structure.universe
        assert [repr(e).rpartition("_")[2] for e in universe[2:4]] == ["10", "2"]
        _set_controller_view(logic, universe)
        logic._broadcast(net)
        assert set(_registers(logic).values()) == {frozenset(universe)}
        learned = {switch for switch, _ in net.event_learned_at}
        assert learned == set(app.topology.switches)

    def test_broadcast_installs_one_of_two_conflicting_events(self, logic_class):
        compiled = _conflict_app_compiled()
        logic = logic_class(compiled, controller_assist=True)
        net = SimNetwork(compiled.topology, logic, seed=0)
        first, second = compiled.nes.structure.universe
        assert not compiled.nes.structure.con({first, second})
        _set_controller_view(logic, {first, second})
        logic._broadcast(net)
        assert set(_registers(logic).values()) == {frozenset({first})}


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
