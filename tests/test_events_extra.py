"""Additional event-layer tests: Event matching, NES edge cases, and a
property-based check that random well-formed ETSs convert soundly."""

from hypothesis import given, settings, strategies as st

from repro.events.ets_to_nes import nes_of_ets
from repro.events.event import Event
from repro.formula import EQ, Formula, Literal, NE
from repro.netkat.ast import assign
from repro.netkat.packet import LocatedPacket, Location, Packet
from repro.stateful.ets import ETS
from repro.stateful import EventEdge


def lp(sw, pt, **fields):
    return LocatedPacket.of(Packet({"sw": sw, "pt": pt, **fields}))


class TestEventMatching:
    def test_location_and_guard_both_required(self):
        e = Event(Formula((Literal("ip_dst", EQ, 4),)), Location(4, 1))
        assert e.matches(lp(4, 1, ip_dst=4))
        assert not e.matches(lp(4, 2, ip_dst=4))  # wrong port
        assert not e.matches(lp(1, 1, ip_dst=4))  # wrong switch
        assert not e.matches(lp(4, 1, ip_dst=9))  # guard fails

    def test_true_guard_matches_any_packet_there(self):
        e = Event(Formula(), Location(2, 3))
        assert e.matches(lp(2, 3))
        assert e.matches(lp(2, 3, anything=7))

    def test_negative_guard(self):
        e = Event(Formula((Literal("ip_dst", NE, 4),)), Location(4, 1))
        assert e.matches(lp(4, 1, ip_dst=5))
        assert not e.matches(lp(4, 1, ip_dst=4))

    def test_renaming_does_not_affect_matching(self):
        base = Event(Formula(), Location(1, 1))
        assert base.renamed(3).matches(lp(1, 1))

    def test_base_and_renamed(self):
        e = Event(Formula(), Location(1, 1), eid=2)
        assert e.base().eid == 0
        assert e.base().renamed(2) == e

    def test_repr_shows_occurrence(self):
        e = Event(Formula(), Location(1, 1), eid=3)
        assert "_3" in repr(e)
        assert "_" not in repr(e.base()).split(",")[-1]


# -- random chain/diamond/tree ETSs should always convert -------------------


@st.composite
def random_tree_ets(draw):
    """A random ETS whose underlying graph is a tree (always convertible
    when every edge carries a unique event and configs are distinct)."""
    n_states = draw(st.integers(1, 6))
    states = [(i,) for i in range(n_states)]
    edges = []
    for i in range(1, n_states):
        parent = draw(st.integers(0, i - 1))
        event = Event(
            Formula((Literal("f", EQ, i),)), Location(draw(st.integers(1, 3)), 1)
        )
        edges.append(EventEdge(states[parent], event, states[i]))
    vertices = tuple((s, assign("cfg", i)) for i, s in enumerate(states))
    return ETS(initial=states[0], vertices=vertices, edges=frozenset(edges))


class TestRandomETSConversion:
    @given(random_tree_ets())
    @settings(max_examples=80, deadline=None)
    def test_tree_ets_always_converts(self, ets):
        nes = nes_of_ets(ets)
        # Every ETS state reachable from the root appears as some
        # event-set's image.
        images = {nes.state_of(s) for s in nes.event_sets()}
        assert ets.initial in images

    @given(random_tree_ets())
    @settings(max_examples=80, deadline=None)
    def test_family_matches_structure_event_sets(self, ets):
        nes = nes_of_ets(ets)
        assert nes.structure.event_sets() == nes.event_sets()

    @given(random_tree_ets())
    @settings(max_examples=50, deadline=None)
    def test_every_allowed_sequence_lands_in_family(self, ets):
        nes = nes_of_ets(ets)
        for sequence in nes.structure.allowed_sequences(max_length=4):
            assert frozenset(sequence) in nes.event_sets()


class TestNESOnPolicies:
    def test_config_lookup_by_event_set_and_state(self):
        e = Event(Formula(), Location(1, 1))
        ets = ETS(
            initial=(0,),
            vertices=(((0,), assign("cfg", 0)), ((1,), assign("cfg", 1))),
            edges=frozenset({EventEdge((0,), e, (1,))}),
        )
        nes = nes_of_ets(ets)
        assert nes.config_of(frozenset()) == assign("cfg", 0)
        assert nes.config_of(frozenset({e})) == assign("cfg", 1)
        assert nes.configuration_policy((1,)) == assign("cfg", 1)

    def test_configuration_states_sorted(self):
        e = Event(Formula(), Location(1, 1))
        ets = ETS(
            initial=(0,),
            vertices=(((0,), assign("cfg", 0)), ((1,), assign("cfg", 1))),
            edges=frozenset({EventEdge((0,), e, (1,))}),
        )
        nes = nes_of_ets(ets)
        assert nes.configuration_states() == ((0,), (1,))
