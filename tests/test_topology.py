"""Tests for topologies."""

import pytest

from repro.netkat.packet import Location
from repro.topology import (
    Topology,
    firewall_topology,
    learning_topology,
    ring_topology,
    star_topology,
)


class TestTopologyBasics:
    def test_add_link_registers_switches(self):
        topo = Topology().add_link("1:1", "2:2")
        assert topo.switches == frozenset({1, 2})

    def test_duplex_link_both_directions(self):
        topo = Topology().add_duplex_link("1:1", "2:2")
        assert topo.has_link(Location(1, 1), Location(2, 2))
        assert topo.has_link(Location(2, 2), Location(1, 1))

    def test_link_targets_and_sources(self):
        topo = Topology().add_link("1:1", "2:2")
        assert topo.link_targets(Location(1, 1)) == frozenset({Location(2, 2)})
        assert list(topo.links()) == [(Location(1, 1), Location(2, 2))]
        assert topo.link_targets(Location(9, 9)) == frozenset()

    def test_hosts(self):
        topo = Topology().add_host("H1", "1:2")
        assert topo.host("H1").attachment == Location(1, 2)
        assert topo.host_at(Location(1, 2)).name == "H1"
        assert topo.host_at(Location(1, 3)) is None

    def test_duplicate_host_name_rejected(self):
        topo = Topology().add_host("H1", "1:2")
        with pytest.raises(ValueError):
            topo.add_host("H1", "2:2")

    def test_two_hosts_one_port_rejected(self):
        topo = Topology().add_host("H1", "1:2")
        with pytest.raises(ValueError):
            topo.add_host("H2", "1:2")

    def test_edge_locations_sorted(self):
        topo = Topology().add_host("B", "2:1").add_host("A", "1:1")
        assert topo.edge_locations() == (Location(1, 1), Location(2, 1))

    def test_equal_switch_sets_are_one_object(self):
        """Every topology with the same switches hands out one frozenset,
        however it was built (the compile memos key by it); a mutation
        moves to another."""
        from repro.service.protocol import topology_from_wire, topology_to_wire

        built = Topology().add_link("2:1", "1:1").add_host("H", "1:2")
        other = Topology().add_switch(1).add_switch(2)
        wire = topology_to_wire(firewall_topology())
        assert built.switches is other.switches
        assert topology_from_wire(wire).switches is topology_from_wire(wire).switches
        before = other.switches
        other.add_switch(3)
        assert other.switches == frozenset({1, 2, 3}) and before == frozenset({1, 2})

    def test_links_iteration_deterministic(self):
        topo = Topology().add_duplex_link("1:1", "2:2").add_duplex_link("2:1", "3:2")
        assert list(topo.links()) == list(topo.links())


class TestPaperTopologies:
    def test_firewall_shape(self):
        topo = firewall_topology()
        assert topo.switches == frozenset({1, 4})
        assert {h.name for h in topo.hosts} == {"H1", "H4"}
        assert topo.has_link(Location(1, 1), Location(4, 1))

    def test_learning_shape(self):
        topo = learning_topology()
        assert topo.switches == frozenset({1, 2, 4})
        assert {h.name for h in topo.hosts} == {"H1", "H2", "H4"}

    def test_star_shape(self):
        topo = star_topology()
        assert topo.switches == frozenset({1, 2, 3, 4})
        assert {h.name for h in topo.hosts} == {"H1", "H2", "H3", "H4"}
        # s4 is the hub
        for spoke, port in [(1, 1), (2, 3), (3, 4)]:
            assert topo.has_link(Location(4, port), Location(spoke, 1))

    @pytest.mark.parametrize("diameter", [1, 2, 3, 5, 8])
    def test_ring_size(self, diameter):
        topo = ring_topology(diameter)
        assert len(topo.switches) == 2 * diameter

    @pytest.mark.parametrize("diameter", [2, 4])
    def test_ring_is_connected_cycle(self, diameter):
        topo = ring_topology(diameter)
        n = 2 * diameter
        for i in range(1, n + 1):
            nxt = (i % n) + 1
            assert topo.has_link(Location(i, 1), Location(nxt, 2))
            assert topo.has_link(Location(nxt, 2), Location(i, 1))

    def test_ring_host_placement(self):
        topo = ring_topology(3)
        assert topo.host("H1").attachment == Location(1, 3)
        assert topo.host("H2").attachment == Location(4, 3)

    def test_ring_rejects_zero_diameter(self):
        with pytest.raises(ValueError):
            ring_topology(0)
