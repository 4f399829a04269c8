"""Tests for network traces, happens-before, and Traces(C) membership."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.traces import (
    HappensBefore,
    NetworkTrace,
    TraceValidationError,
    packet_trace_in_traces,
    position_event_masks,
)
from repro.events.event import Event
from repro.formula import EQ, NE, Formula, Literal
from repro.netkat.ast import assign, filter_, link, seq, test as field_test, union
from repro.netkat.compiler import compile_policy
from repro.netkat.packet import LocatedPacket, Location, Packet
from repro.topology import firewall_topology

from naive_oracles import position_event_masks_naive, reachable_naive


def lp(sw, pt, **fields):
    pkt = Packet({"sw": sw, "pt": pt, **fields})
    return LocatedPacket.of(pkt)


class TestNetworkTraceValidation:
    def test_simple_valid_trace(self):
        trace = NetworkTrace(
            (lp(1, 2), lp(1, 1), lp(4, 1)), frozenset({(0, 1, 2)})
        )
        assert len(trace) == 3

    def test_uncovered_position_rejected(self):
        with pytest.raises(TraceValidationError):
            NetworkTrace((lp(1, 2), lp(1, 1)), frozenset({(0,)}))

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(TraceValidationError):
            NetworkTrace((lp(1, 2), lp(1, 1)), frozenset({(1, 0)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(TraceValidationError):
            NetworkTrace((lp(1, 2),), frozenset({(0, 5)}))

    def test_empty_sequence_rejected(self):
        with pytest.raises(TraceValidationError):
            NetworkTrace((lp(1, 2),), frozenset({(0,), ()}))

    def test_two_parents_rejected(self):
        # positions 0 and 1 both claim position 2 as successor
        with pytest.raises(TraceValidationError):
            NetworkTrace(
                (lp(1, 2), lp(1, 3), lp(1, 1)),
                frozenset({(0, 2), (1, 2)}),
            )

    def test_multicast_tree_allowed(self):
        # one root forking into two branches (shared prefix)
        trace = NetworkTrace(
            (lp(4, 2), lp(4, 1), lp(4, 3)),
            frozenset({(0, 1), (0, 2)}),
        )
        assert trace.traces_through(0) == frozenset({(0, 1), (0, 2)})

    def test_root_cannot_be_child(self):
        with pytest.raises(TraceValidationError):
            NetworkTrace(
                (lp(1, 2), lp(1, 1)),
                frozenset({(0, 1), (1,)}),
            )

    def test_projections(self):
        trace = NetworkTrace((lp(1, 2), lp(1, 1)), frozenset({(0, 1)}))
        assert trace.packet_trace((0, 1)) == (trace.packets[0], trace.packets[1])


class TestHappensBefore:
    def test_same_switch_order(self):
        trace = NetworkTrace(
            (lp(1, 2, ident=1), lp(1, 2, ident=2)),
            frozenset({(0,), (1,)}),
        )
        hb = trace.happens_before()
        assert hb.before(0, 1)
        assert not hb.before(1, 0)

    def test_same_packet_order_across_switches(self):
        trace = NetworkTrace(
            (lp(1, 2), lp(4, 1)), frozenset({(0, 1)})
        )
        hb = trace.happens_before()
        assert hb.before(0, 1)

    def test_unrelated_positions_incomparable(self):
        trace = NetworkTrace(
            (lp(1, 2, ident=1), lp(4, 2, ident=2)),
            frozenset({(0,), (1,)}),
        )
        hb = trace.happens_before()
        assert not hb.before(0, 1) and not hb.before(1, 0)

    def test_transitivity(self):
        # pkt A: 1:2 -> 4:1 ; pkt B enters at s4 afterwards
        trace = NetworkTrace(
            (lp(1, 2, ident=1), lp(4, 1, ident=1), lp(4, 2, ident=2)),
            frozenset({(0, 1), (2,)}),
        )
        hb = trace.happens_before()
        assert hb.before(0, 1)
        assert hb.before(1, 2)  # same switch order at s4
        assert hb.before(0, 2)  # transitive closure

    def test_irreflexive(self):
        trace = NetworkTrace((lp(1, 2),), frozenset({(0,)}))
        assert not trace.happens_before().before(0, 0)

    def test_all_before_and_all_after(self):
        trace = NetworkTrace(
            (lp(1, 2, ident=1), lp(1, 2, ident=2), lp(1, 2, ident=3)),
            frozenset({(0,), (1,), (2,)}),
        )
        hb = trace.happens_before()
        assert hb.all_before([0, 1], 2)
        assert hb.all_after(0, [1, 2])


# -- generated valid traces against the references ------------------------

VALUES = st.sampled_from((1, 2))
LOCATIONS = st.builds(Location, st.sampled_from((1, 2, 3)), VALUES)
# Field ``a`` may be missing, which a ``!=`` guard then fails.
LOCATED = st.builds(
    lambda a, location: LocatedPacket(
        Packet({"sw": location.switch, "pt": location.port, **a}), location
    ),
    st.dictionaries(st.just("a"), VALUES),
    LOCATIONS,
)
GUARDS = st.one_of(
    st.just(Formula()),
    st.builds(
        lambda op, value: Formula((Literal("a", op, value),)),
        st.sampled_from((EQ, NE)),
        VALUES,
    ),
)
# Renamed copies (eid > 0) share a guard and location with the original.
EVENTS = st.lists(
    st.builds(Event, GUARDS, LOCATIONS, st.integers(0, 2)), unique=True, max_size=8
)


@st.composite
def network_traces(draw):
    """A valid trace: a forest over the positions, each parent earlier
    than its child, with one index sequence per root-to-leaf path."""
    n = draw(st.integers(1, 16))
    children = {}
    roots = [0]
    for index in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(0, index - 1)))
        if parent is None:
            roots.append(index)
        else:
            children.setdefault(parent, []).append(index)
    paths = set()

    def walk(index, path):
        path += (index,)
        for child in children.get(index, ()):
            walk(child, path)
        if index not in children:
            paths.add(path)

    for root in roots:
        walk(root, ())
    packets = tuple(draw(LOCATED) for _ in range(n))
    return NetworkTrace(packets, frozenset(paths))


@settings(max_examples=200, deadline=None)
@given(network_traces())
def test_happens_before_equals_the_closure(trace):
    hb = trace.happens_before()
    reachable = reachable_naive(trace)
    n = len(trace)
    for i in range(n):
        for j in range(n):
            assert hb.before(i, j) == (j in reachable[i]), (i, j)
    for t in trace.trace_indices:
        for k in range(n):
            assert hb.all_before(t, k) == all(k in reachable[i] for i in t)
            assert hb.all_after(k, t) == reachable[k].issuperset(t)


@settings(max_examples=200, deadline=None)
@given(network_traces(), EVENTS)
def test_position_masks_equal_the_reference(trace, universe):
    assert position_event_masks(trace, universe) == position_event_masks_naive(
        trace, universe
    )


FIREWALL_POLICY = union(
    seq(
        filter_(field_test("pt", 2) & field_test("ip_dst", 4)),
        assign("pt", 1),
        link("1:1", "4:1"),
        assign("pt", 2),
    ),
)


class TestTracesMembership:
    def config(self):
        return compile_policy(FIREWALL_POLICY, firewall_topology())

    def full_trace(self):
        return (
            lp(1, 2, ip_dst=4),
            lp(1, 1, ip_dst=4),
            lp(4, 1, ip_dst=4),
            lp(4, 2, ip_dst=4),
        )

    def test_complete_delivery_accepted(self):
        assert packet_trace_in_traces(self.config(), self.full_trace())

    def test_must_start_at_host(self):
        assert not packet_trace_in_traces(self.config(), self.full_trace()[1:])

    def test_prefix_rejected_as_incomplete(self):
        """A packet abandoned mid-path is in no configuration's traces."""
        assert not packet_trace_in_traces(self.config(), self.full_trace()[:2])

    def test_dropped_at_ingress_when_config_drops(self):
        # ip_dst=9 has no rule: the one-position trace is complete.
        trace = (lp(1, 2, ip_dst=9),)
        assert packet_trace_in_traces(self.config(), trace)

    def test_dropped_at_ingress_when_config_forwards_rejected(self):
        # ip_dst=4 *should* be forwarded; a drop is incorrect.
        trace = (lp(1, 2, ip_dst=4),)
        assert not packet_trace_in_traces(self.config(), trace)

    def test_wrong_step_rejected(self):
        bad = (
            lp(1, 2, ip_dst=4),
            lp(4, 1, ip_dst=4),  # skipped the 1:1 egress step
            lp(4, 2, ip_dst=4),
        )
        assert not packet_trace_in_traces(self.config(), bad)

    def test_empty_trace_rejected(self):
        assert not packet_trace_in_traces(self.config(), ())
