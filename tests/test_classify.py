"""The decision walk against the linear scan, differentially.

``CompiledNES.classify`` resolves a hop in one descent of a tree built
from the tag's configuration table and the events located at the switch.
Here every descent is compared with the same answer computed the linear
way: the first rule of the served guarded merge that matches the tagged
packet, its ``Rule.apply`` outputs sorted by ``repr``, and the mask of
the events whose ``matches_packet`` holds -- on the seven seed apps
(every configuration, every switch) and on seeded random tables and
events.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import bandwidth_cap_app, ids_app, ring_app
from repro.events.event import Event
from repro.events.nes import NES
from repro.events.structure import EventStructure
from repro.formula import EQ, NE, Formula, Literal
from repro.netkat.ast import DROP
from repro.netkat.compiler import Configuration
from repro.netkat.flowtable import FlowTable, Match, PrefixMatch, Rule, TagFieldError
from repro.netkat.packet import Location, Packet, PT, SW
from repro.runtime.compiler import CompiledNES, TAG_FIELD
from repro.topology import Topology

from naive_oracles import conjoin_all
from seed_apps import APPS


def linear(compiled, switch, tag_mask, packet):
    """``(outputs in emission order, matched-event mask)`` by scanning."""
    structure = compiled.nes.structure
    config_id = compiled.config_ids[compiled.nes.state_of(structure.decode(tag_mask))]
    table = compiled.guarded_tables()[switch]
    rule = table.lookup(packet.set(TAG_FIELD, config_id))
    outputs = sorted(rule.apply(packet), key=repr) if rule is not None else []
    location = Location(switch, packet[PT])
    mask = sum(
        1 << index
        for index, event in enumerate(structure.universe)
        if event.matches_packet(packet, location)
    )
    return outputs, mask


def assert_walk_equals_scan(compiled, switch, tag_mask, packet):
    leaf = compiled.classify(switch, tag_mask, packet)
    outputs, mask = linear(compiled, switch, tag_mask, packet)
    assert leaf.outputs(packet) == outputs, (switch, tag_mask, packet)
    assert leaf.events == mask, (switch, tag_mask, packet)
    if leaf.ordered:
        # The build-time order is the per-frame sort, not merely a
        # permutation of it.
        assert [packet._with(mod) for mod in leaf.mods] == outputs


def probe_packets(compiled, switch, rng, count=60):
    """Seeded packets over the values the switch's table and the events
    mention, one value nothing mentions, and missing fields."""
    domain = {PT: {1, 2, 3}}
    for rule in compiled.guarded_tables()[switch]:
        for field, value in rule.match.entries():
            if field != TAG_FIELD:
                domain.setdefault(field, set()).add(value)
    for event in compiled.nes.structure.universe:
        for literal in event.guard.literals:
            domain.setdefault(literal.field, set()).add(literal.value)
    domain.pop(SW, None)
    for _ in range(count):
        fields = {
            field: rng.choice(sorted(values) + [97])
            for field, values in domain.items()
            if field == PT or rng.random() < 0.85
        }
        yield Packet({**fields, SW: switch})


@pytest.mark.parametrize("name,make_app", APPS, ids=[n for n, _ in APPS])
def test_seed_apps_every_configuration_every_switch(name, make_app):
    compiled = make_app().compiled
    structure = compiled.nes.structure
    rng = random.Random(name)
    event_sets = sorted(
        compiled.nes.event_sets(), key=lambda s: (len(s), sorted(map(repr, s)))
    )
    for event_set in event_sets:
        tag_mask = structure.encode(event_set)
        for switch in compiled.topology.switches:
            for packet in probe_packets(compiled, switch, rng):
                assert_walk_equals_scan(compiled, switch, tag_mask, packet)


@pytest.mark.parametrize(
    "make_app,trees",
    [(lambda: bandwidth_cap_app(48), 4), (ids_app, 6), (lambda: ring_app(8), 32)],
    ids=["cap48", "ids", "ring8"],
)
def test_one_tree_per_distinct_switch_and_table(make_app, trees):
    """Descents under every tag at every switch build one tree per
    distinct (switch, table) pair, which every tag whose configuration
    holds that table there shares: cap-48 has 50 tags over 2 switches
    but 2 distinct tables at each."""
    compiled = make_app().compiled
    structure = compiled.nes.structure
    for event_set in compiled.nes.event_sets():
        for switch in compiled.topology.switches:
            compiled.classify(switch, structure.encode(event_set), Packet({SW: switch, PT: 1}))
    pairs = {
        (switch, id(table))
        for config in compiled.configurations.values()
        for switch, table in config.tables.items()
    }
    built = {id(root[switch]) for root in compiled._roots.values() for switch in root}
    assert len(pairs) == len(built) == len(compiled._trees) == trees


# -- seeded random guarded tables ---------------------------------------------------

SWITCH = 1
FIELDS = ("a", "b", PT)
VALUES = st.sampled_from((0, 1, 2, 10, -1))
MODS = st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=3).map(
    lambda writes: tuple(sorted(writes.items()))
)
RULES = st.lists(
    st.tuples(
        st.integers(0, 1),  # the guarding configuration id
        st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=2),
        st.frozensets(MODS, max_size=3),
    ),
    max_size=8,
)
LITERALS = st.lists(
    st.builds(Literal, st.sampled_from(FIELDS), st.sampled_from((EQ, NE)), VALUES),
    max_size=3,
)
# Several occurrence indices over few guards: renamed copies share one.
EVENTS = st.lists(
    st.tuples(LITERALS, st.sampled_from((1, 2)), st.integers(0, 2)), max_size=5
)
PACKETS = st.dictionaries(
    st.sampled_from(FIELDS + ("c",)), st.sampled_from((0, 1, 2, 10, -1, 5))
)


def planted(rules, events):
    """A ``CompiledNES`` over one switch whose event universe is the
    given one and whose two configurations, ids 0 (at the empty
    event-set) and 1 (at every singleton), hold the given rules of
    their id; the scan oracle reads the guarded merge built from them."""
    universe = set()
    for literals, port, eid in events:
        guard = conjoin_all(Formula.true(), literals)
        if guard is not None:
            universe.add(Event(guard, Location(SWITCH, port), eid))
    structure = EventStructure(
        universe, [universe], [(frozenset(), e) for e in universe]
    )
    g = {0: (0,), **{structure.encode({e}): (1,) for e in universe}}
    topology = Topology().add_switch(SWITCH)
    configurations = {
        (config_id,): Configuration(
            {SWITCH: FlowTable(
                Rule(len(rules) - position, Match(constraints), actions)
                for position, (tag, constraints, actions) in enumerate(rules)
                if tag == config_id
            )},
            topology,
        )
        for config_id in (0, 1)
    }
    nes = NES(structure, g, {(0,): DROP, (1,): DROP})
    compiled = CompiledNES(nes, topology, configurations)
    assert compiled.config_ids == {(0,): 0, (1,): 1}
    return compiled


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(RULES, EVENTS, st.lists(PACKETS, min_size=1, max_size=6))
def test_random_tables_walk_equals_scan(rules, events, packets):
    compiled = planted(rules, events)
    tag_masks = [0] + ([1] if compiled.nes.structure.universe else [])
    for fields, tag_mask in itertools.product(packets, tag_masks):
        packet = Packet({PT: 1, **fields, SW: SWITCH})
        assert_walk_equals_scan(compiled, SWITCH, tag_mask, packet)


def test_the_generator_reaches_the_cases_it_is_for():
    """Pinned instances of what the random test must cover, so a change
    to the strategies cannot silently stop exercising them."""
    rename = [([Literal("a", EQ, 1), Literal("b", NE, 2)], 1, eid) for eid in range(3)]
    rules = [
        # equal written-field sets; pt<-10 sorts before pt<-2
        (0, {"a": 1}, frozenset({(("pt", 2),), (("pt", 10),), (("pt", -1),)})),
        # unequal written-field sets, one of them the identity
        (0, {"a": 2}, frozenset({(), (("a", 0), ("pt", 2)), (("pt", 2),)})),
        (1, {}, frozenset({(("b", 1), ("pt", 1))})),
    ]
    events = rename + [([Literal(PT, EQ, 2)], 1, 0), ([Literal(PT, NE, 1)], 2, 0)]
    compiled = planted(rules, events)
    universe = compiled.nes.structure.universe

    flood = compiled.classify(SWITCH, 0, Packet({SW: 1, PT: 1, "a": 1, "b": 0}))
    assert flood.ordered
    assert [dict(mod)[PT] for mod in flood.mods] == [-1, 10, 2]
    # Three renamed copies of one guard: one walk sets all three bits.
    assert flood.events.bit_count() == 3
    assert {universe[i].eid for i in range(len(universe)) if flood.events >> i & 1} == {0, 1, 2}

    mixed = compiled.classify(SWITCH, 0, Packet({SW: 1, PT: 1, "a": 2}))
    assert not mixed.ordered and len(mixed.mods) == 3
    # a=2 already and pt<-2: the identity and (pt<-2) coincide at pt=2.
    at_two = Packet({SW: 1, PT: 2, "a": 2})
    assert len(compiled.classify(SWITCH, 0, at_two).outputs(at_two)) == 2

    # A missing field and an unlisted value take the default branch: the
    # rule fails, "b != 2" holds, "a = 1" fails.
    for packet in (Packet({SW: 1, PT: 1}), Packet({SW: 1, PT: 1, "a": 7})):
        leaf = compiled.classify(SWITCH, 0, packet)
        assert leaf.mods == () and leaf.events == 0
        assert_walk_equals_scan(compiled, SWITCH, 0, packet)
    # pt literals inside a guard: located at port 1 with guard pt=2 never
    # matches; located at port 2 with guard pt!=1 does.
    leaf = compiled.classify(SWITCH, 0, Packet({SW: 1, PT: 2}))
    assert [universe[i].location.port for i in range(len(universe)) if leaf.events >> i & 1] == [2]


def test_a_non_exact_match_in_a_configuration_table_raises_at_build():
    for constraint in (PrefixMatch(0, 1, 2), True):
        compiled = planted([(0, {"a": constraint}, frozenset({(("pt", 1),)}))], [])
        with pytest.raises(ValueError, match="non-exact match"):
            compiled.classify(SWITCH, 0, Packet({SW: 1, PT: 1}))


def test_a_program_matching_on_the_tag_field_is_refused():
    """The simulator refuses what cannot be served: a configuration rule
    on the tag field raises ``TagFieldError`` as the guarded merge does,
    under every tag and whichever configuration holds the rule."""
    for config_id in (0, 1):
        rules = [(config_id, {TAG_FIELD: 1}, frozenset({(("pt", 1),)}))]
        compiled = planted(rules, [([Literal("a", EQ, 1)], 1, 0)])
        for tag_mask in (0, 1):
            with pytest.raises(TagFieldError, match="collides"):
                compiled.classify(SWITCH, tag_mask, Packet({SW: 1, PT: 1}))


def test_a_tag_that_is_no_event_set_raises_key_error():
    compiled = planted([], [([Literal("a", EQ, 1)], 1, 0), ([Literal("a", EQ, 2)], 1, 0)])
    with pytest.raises(KeyError):
        compiled.classify(SWITCH, 0b11, Packet({SW: 1, PT: 1}))
