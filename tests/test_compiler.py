"""Tests for the path compiler: alternations, knowledge propagation, and
end-to-end agreement between compiled configurations and the policy's
denotational semantics."""

import pytest

from repro.netkat.ast import (
    DROP,
    ID,
    assign,
    filter_,
    link,
    seq,
    star,
    test as field_test,
    union,
)
from repro.netkat.compiler import (
    Alternation,
    CompileError,
    Configuration,
    alternations,
    compile_policy,
    link_free,
    strip_dup,
)
from repro.netkat.packet import LocatedPacket, Location, Packet
from repro.netkat.semantics import eval_packet
from repro.topology import Topology, firewall_topology, star_topology


class TestLinkFree:
    def test_atoms(self):
        assert link_free(assign("a", 1))
        assert link_free(filter_(field_test("a", 1)))
        assert not link_free(link("1:1", "2:2"))

    def test_composites(self):
        assert not link_free(seq(assign("a", 1), link("1:1", "2:2")))
        assert link_free(star(assign("a", 1)))


class TestStripDup:
    def test_removes_dup(self):
        from repro.netkat.ast import Dup

        assert strip_dup(seq(Dup(), assign("a", 1))) == assign("a", 1)
        assert strip_dup(star(Dup())) == ID


class TestAlternations:
    def test_single_segment(self):
        alts = alternations(assign("a", 1))
        assert len(alts) == 1
        assert alts[0].links == ()

    def test_union_distributes(self):
        p = union(assign("a", 1), assign("a", 2))
        assert len(alternations(p)) == 2

    def test_seq_glues_segments(self):
        p = seq(filter_(field_test("a", 1)), link("1:1", "2:2"), assign("pt", 3))
        (alt,) = alternations(p)
        assert len(alt.links) == 1
        assert len(alt.segments) == 2

    def test_nested_union_of_links(self):
        p = seq(assign("pt", 1), union(link("1:1", "2:2"), link("3:1", "4:2")))
        alts = alternations(p)
        assert len(alts) == 2
        assert all(len(a.links) == 1 for a in alts)

    def test_two_links_in_sequence(self):
        p = seq(link("1:1", "2:2"), assign("pt", 1), link("2:1", "3:2"))
        (alt,) = alternations(p)
        assert len(alt.links) == 2
        assert len(alt.segments) == 3

    def test_star_over_links_rejected(self):
        with pytest.raises(CompileError):
            alternations(star(link("1:1", "2:2")))

    def test_alternation_shape_validated(self):
        with pytest.raises(ValueError):
            Alternation((ID,), (link("1:1", "2:2"),))


def _run_to_completion(config: Configuration, packet: Packet, max_hops: int = 32):
    """Follow the configuration's step relation to all terminal packets."""
    current = {LocatedPacket.of(packet)}
    delivered = set()
    for _ in range(max_hops):
        nxt = set()
        for lp in current:
            switch_outs = config.switch_step(lp)
            if not switch_outs:
                continue
            for out in switch_outs:
                moved = config.link_step(out)
                if moved:
                    nxt |= moved
                else:
                    delivered.add(out)
        if not nxt:
            return delivered
        current = nxt
    raise RuntimeError("packet did not terminate")


class TestCompileFirewallConfig:
    def topo(self):
        return firewall_topology()

    def policy(self):
        out_path = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 4)),
            assign("pt", 1),
            link("1:1", "4:1"),
            assign("pt", 2),
        )
        in_path = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 1)),
            assign("pt", 1),
            link("4:1", "1:1"),
            assign("pt", 2),
        )
        return union(out_path, in_path)

    def test_rules_land_on_both_switches(self):
        cfg = compile_policy(self.policy(), self.topo())
        assert len(cfg.table(1)) > 0 and len(cfg.table(4)) > 0

    def test_forward_path_delivers(self):
        cfg = compile_policy(self.policy(), self.topo())
        pkt = Packet({"sw": 1, "pt": 2, "ip_dst": 4})
        delivered = _run_to_completion(cfg, pkt)
        assert {lp.location for lp in delivered} == {Location(4, 2)}

    def test_reverse_path_delivers(self):
        cfg = compile_policy(self.policy(), self.topo())
        pkt = Packet({"sw": 4, "pt": 2, "ip_dst": 1})
        delivered = _run_to_completion(cfg, pkt)
        assert {lp.location for lp in delivered} == {Location(1, 2)}

    def test_unmatched_packet_dropped(self):
        cfg = compile_policy(self.policy(), self.topo())
        pkt = Packet({"sw": 1, "pt": 2, "ip_dst": 9})
        assert _run_to_completion(cfg, pkt) == set()

    def test_end_to_end_agrees_with_denotation(self):
        """The compiled step relation's terminal packets equal the
        denotational outputs of the full path policy."""
        cfg = compile_policy(self.policy(), self.topo())
        pkt = Packet({"sw": 1, "pt": 2, "ip_dst": 4})
        expected = eval_packet(self.policy(), pkt)
        delivered = {lp.packet for lp in _run_to_completion(cfg, pkt)}
        assert delivered == expected


class TestKnowledgePropagation:
    def test_downstream_switch_rematches_constraints(self):
        """A field constraint established at hop 0 must be re-tested at
        hop 1 -- otherwise s4 would forward packets that took no valid
        path (the firewall would leak)."""
        topo = firewall_topology()
        p = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 4)),
            assign("pt", 1),
            link("1:1", "4:1"),
            assign("pt", 2),
        )
        cfg = compile_policy(p, topo)
        # A packet materializing at 4:1 with the wrong dst must be dropped.
        rogue = Packet({"sw": 4, "pt": 1, "ip_dst": 9})
        assert cfg.switch_step(LocatedPacket.of(rogue)) == frozenset()
        legit = Packet({"sw": 4, "pt": 1, "ip_dst": 4})
        assert len(cfg.switch_step(LocatedPacket.of(legit))) == 1

    def test_modified_field_not_rematched(self):
        """A field rewritten before the link is matched at its *new* value
        downstream."""
        topo = firewall_topology()
        p = seq(
            filter_(field_test("pt", 2) & field_test("vlan", 7)),
            assign("vlan", 1),
            assign("pt", 1),
            link("1:1", "4:1"),
            filter_(field_test("vlan", 1)),
            assign("pt", 2),
        )
        cfg = compile_policy(p, topo)
        pkt = Packet({"sw": 1, "pt": 2, "vlan": 7})
        delivered = _run_to_completion(cfg, pkt)
        assert {lp.location for lp in delivered} == {Location(4, 2)}
        assert all(lp.packet["vlan"] == 1 for lp in delivered)


class TestMulticast:
    def test_flooding_produces_two_copies(self):
        topo = star_topology()
        p = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 1)),
            union(
                seq(assign("pt", 1), link("4:1", "1:1")),
                seq(assign("pt", 3), link("4:3", "2:1")),
            ),
            assign("pt", 2),
        )
        cfg = compile_policy(p, topo)
        pkt = Packet({"sw": 4, "pt": 2, "ip_dst": 1})
        delivered = _run_to_completion(cfg, pkt)
        assert {lp.location for lp in delivered} == {Location(1, 2), Location(2, 2)}


class TestConfigurationObject:
    def test_missing_switch_gets_empty_table(self):
        topo = firewall_topology()
        cfg = Configuration({}, topo)
        assert len(cfg.table(1)) == 0
        assert cfg.rule_count() == 0

    def test_table_lookup_builds_nothing_for_a_known_switch(self):
        topo = firewall_topology()
        cfg = Configuration({}, topo)
        assert cfg.table(1) is cfg.table(1) is cfg.tables[1]
        # A foreign switch still reads as an empty table.
        assert len(cfg.table(99)) == 0 and 99 not in cfg.tables

    def test_link_step_follows_topology(self):
        topo = firewall_topology()
        cfg = Configuration({}, topo)
        lp = LocatedPacket.of(Packet({"sw": 1, "pt": 1}))
        (out,) = cfg.link_step(lp)
        assert out.location == Location(4, 1)

    def test_on_topology_shares_tables_and_follows_the_new_links(self):
        cfg = compile_policy(link("1:1", "4:1"), firewall_topology(), name="C")
        rewired = Topology().add_link("1:1", "4:7").add_host("H9", "4:9")
        moved = cfg.on_topology(rewired)
        assert moved.topology is rewired and cfg.topology is not rewired
        assert moved.name == "C"
        assert all(moved.table(n) is cfg.table(n) for n in (1, 4))
        lp = LocatedPacket.of(Packet({"sw": 1, "pt": 1}))
        assert {o.location for o in moved.link_step(lp)} == {Location(4, 7)}
        assert {o.location for o in cfg.link_step(lp)} == {Location(4, 1)}
        # The tables were compiled for these switches and no others.
        with pytest.raises(ValueError, match="same switch set"):
            cfg.on_topology(Topology().add_link("1:1", "5:1"))

    def test_step_is_union_of_switch_and_link(self):
        topo = firewall_topology()
        cfg = compile_policy(
            seq(
                filter_(field_test("pt", 2) & field_test("ip_dst", 4)),
                assign("pt", 1),
                link("1:1", "4:1"),
                assign("pt", 2),
            ),
            topo,
        )
        lp = LocatedPacket.of(Packet({"sw": 1, "pt": 2, "ip_dst": 4}))
        assert cfg.step(lp) == cfg.switch_step(lp) | cfg.link_step(lp)

    def test_relates(self):
        topo = firewall_topology()
        cfg = Configuration({}, topo)
        src = LocatedPacket.of(Packet({"sw": 1, "pt": 1}))
        dst = LocatedPacket.of(Packet({"sw": 4, "pt": 1}))
        assert cfg.relates(src, dst)


class TestStarCompilation:
    def test_link_free_star_compiles(self):
        topo = firewall_topology()
        bump = union(
            seq(filter_(field_test("hops", 0)), assign("hops", 1)),
            seq(filter_(field_test("hops", 1)), assign("hops", 2)),
        )
        p = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 4)),
            star(bump),
            assign("pt", 1),
            link("1:1", "4:1"),
            assign("pt", 2),
        )
        cfg = compile_policy(p, topo)
        pkt = Packet({"sw": 1, "pt": 2, "ip_dst": 4, "hops": 0})
        delivered = _run_to_completion(cfg, pkt)
        assert {lp.packet["hops"] for lp in delivered} == {0, 1, 2}
