"""``Configuration.relates`` against ``Configuration.step``, differentially.

``relates(a, b)`` tests the pair it is asked about (one link test, one
table lookup); ``step(a)`` materialises the successor set.  They are two
spellings of the one relation ``C`` of section 2, so for every pair
``relates(a, b) == (b in step(a))`` -- on every configuration of the
seven seed apps and on generated tables, topologies and located packets.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netkat.compiler import Configuration
from repro.netkat.flowtable import FlowTable, Match, Rule
from repro.netkat.packet import LocatedPacket, Location, Packet, PT, SW
from repro.topology import Topology

from seed_apps import APPS


def assert_agree(config, a, b):
    assert config.relates(a, b) == (b in config.step(a)), (a, b)


def neighbours(config, a):
    """Every successor of ``a``, and near misses of each: another port,
    another switch, one header field off, and a packet whose ``pt``
    field disagrees with its location."""
    for b in config.step(a):
        yield b
        yield LocatedPacket(b.packet, Location(b.location.switch, b.location.port + 1))
        yield LocatedPacket(b.packet, Location(b.location.switch + 1, b.location.port))
        yield LocatedPacket(b.packet.set("ip_dst", 99), b.location)
        yield LocatedPacket(b.packet.set(PT, b.location.port + 1), b.location)
    yield a
    yield LocatedPacket(a.packet, Location(a.location.switch + 7, a.location.port))


def probe_packets(config, switch, rng, count=25):
    """Seeded packets over the values the switch's table mentions, one
    value nothing mentions, and missing fields."""
    domain = {PT: {1, 2, 3}}
    for rule in config.table(switch):
        for field, value in rule.match.entries():
            domain.setdefault(field, set()).add(value)
    domain.pop(SW, None)
    for _ in range(count):
        fields = {
            field: rng.choice(sorted(values) + [97])
            for field, values in domain.items()
            if field == PT or rng.random() < 0.85
        }
        yield Packet({**fields, SW: switch})


@pytest.mark.parametrize("name,make_app", APPS, ids=[n for n, _ in APPS])
def test_seed_apps_every_configuration(name, make_app):
    compiled = make_app().compiled
    rng = random.Random(name)
    related = 0
    for config in compiled.configurations.values():
        for switch in sorted(compiled.topology.switches):
            for packet in probe_packets(config, switch, rng):
                a = LocatedPacket.of(packet)
                related += len(config.step(a))
                for b in neighbours(config, a):
                    assert_agree(config, a, b)
    assert related  # the probes reach forwarding rules and links


# -- generated tables, topologies and pairs -----------------------------------

FIELDS = ("a", PT)
VALUES = st.sampled_from((1, 2, 3))
# () leaves the packet in place; a frozenset of several is a multicast.
MODS = st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=2).map(
    lambda writes: tuple(sorted(writes.items()))
)
TABLES = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=2),
        st.frozensets(MODS, max_size=3),
    ),
    max_size=4,
).map(
    lambda rules: FlowTable(
        Rule(len(rules) - position, Match(constraints), actions)
        for position, (constraints, actions) in enumerate(rules)
    )
)
# Switch 3 is in no generated topology or table.
LOCATIONS = st.builds(Location, st.sampled_from((1, 2, 3)), VALUES)
LINKS = st.lists(st.tuples(LOCATIONS, LOCATIONS), max_size=4)
LOCATED = st.builds(
    LocatedPacket,
    # Any of a, sw and pt may be missing or disagree with the location.
    st.dictionaries(st.sampled_from(FIELDS + (SW,)), VALUES).map(Packet),
    LOCATIONS,
)


@settings(max_examples=300, deadline=None)
@given(TABLES, TABLES, LINKS, LOCATED, LOCATED)
def test_generated_pairs(table1, table2, links, a, b):
    topology = Topology().add_switch(1).add_switch(2)
    for src, dst in links:
        if 3 not in (src.switch, dst.switch):
            topology.add_link(src, dst)
    config = Configuration({1: table1, 2: table2}, topology)
    assert_agree(config, a, b)
    for near in neighbours(config, a):
        assert_agree(config, a, near)


def lp(sw, pt, **fields):
    return LocatedPacket.of(Packet({SW: sw, PT: pt, **fields}))


def test_named_cases():
    """The shapes the generator is there to reach, each pinned once."""
    table = FlowTable([
        Rule(3, Match({PT: 1, "a": 1}), frozenset({((PT, 2),), ((PT, 3),)})),
        Rule(2, Match({PT: 1, "a": 2}), frozenset({(), ((PT, 2),)})),
        Rule(1, Match({PT: 1, "a": 3}), frozenset({((PT, 1),)})),
    ])
    topology = Topology().add_switch(2).add_link("1:2", "2:1").add_link("1:3", "1:1")
    config = Configuration({1: table}, topology)
    multicast, in_place = lp(1, 1, a=1), lp(1, 1, a=2)
    # A multicast rule relates the packet to each copy.
    assert config.relates(multicast, lp(1, 2, a=1))
    assert config.relates(multicast, lp(1, 3, a=1))
    # A rule that leaves the packet in place is no step, whether it
    # says so with an empty modification or by rewriting pt to itself.
    assert config.relates(in_place, lp(1, 2, a=2))
    assert not config.relates(in_place, in_place)
    assert not config.relates(lp(1, 1, a=3), lp(1, 1, a=3))
    # A link hop keeps every other field, between or within switches.
    assert config.relates(lp(1, 2, a=1), lp(2, 1, a=1))
    assert config.relates(lp(1, 3, a=1), lp(1, 1, a=1))
    assert not config.relates(lp(1, 2, a=1), lp(2, 1, a=2))
    # Different switches with no link; a switch the topology lacks.
    assert not config.relates(lp(2, 1, a=1), lp(1, 2, a=1))
    assert not config.relates(lp(5, 1, a=1), lp(5, 2, a=1))
    # The target's sw/pt fields must agree with its location.
    stray = LocatedPacket(Packet({SW: 1, PT: 3, "a": 1}), Location(1, 2))
    assert not config.relates(multicast, stray)
    # A packet missing a matched field matches no rule.
    assert not config.relates(lp(1, 1), lp(1, 2))
    for a in (multicast, in_place, lp(1, 1, a=3), lp(1, 2, a=1), lp(1, 3, a=1),
              lp(2, 1, a=1), lp(5, 1, a=1), lp(1, 1)):
        for b in neighbours(config, a):
            assert_agree(config, a, b)
