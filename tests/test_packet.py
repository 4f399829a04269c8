"""Tests for packets, locations, and histories."""

import pytest
from hypothesis import given, strategies as st

from repro.netkat.packet import History, LocatedPacket, Location, Packet, PT, SW


field_names = st.sampled_from(["sw", "pt", "ip_src", "ip_dst", "vlan", "proto"])
field_maps = st.dictionaries(field_names, st.integers(0, 7), min_size=0, max_size=6)


class TestLocation:
    def test_parse_roundtrip(self):
        loc = Location.parse("3:14")
        assert loc == Location(3, 14)
        assert str(loc) == "3:14"

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            Location.parse("3")

    def test_parse_rejects_nonnumeric(self):
        with pytest.raises(ValueError):
            Location.parse("a:b")

    @pytest.mark.parametrize(
        "text", ["2:1_0", "2: 10", "2:+10", "2:١٠", " 2:10", "2:10\n", "-2:10"]
    )
    def test_parse_takes_only_ascii_digits(self, text):
        # int() read each of these as 2:10 (or -2:10), so other spellings
        # named the same location.
        with pytest.raises(ValueError, match="malformed location"):
            Location.parse(text)
        assert Location.parse("2:10") == Location(2, 10)

    def test_ordering(self):
        assert Location(1, 2) < Location(1, 3) < Location(2, 0)


class TestPacket:
    def test_lookup_and_get(self):
        pkt = Packet({"sw": 1, "pt": 2, "ip_dst": 4})
        assert pkt["ip_dst"] == 4
        assert pkt.get("missing") is None
        assert pkt.get("missing", 9) == 9

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            Packet({})["nope"]

    def test_contains_and_iter(self):
        pkt = Packet({"a": 1, "b": 2})
        assert "a" in pkt and "c" not in pkt
        assert sorted(pkt) == ["a", "b"]

    def test_set_is_functional(self):
        pkt = Packet({"a": 1})
        pkt2 = pkt.set("a", 2)
        assert pkt["a"] == 1 and pkt2["a"] == 2

    def test_set_new_field(self):
        assert Packet({}).set("x", 5)["x"] == 5

    def test_without(self):
        pkt = Packet({"a": 1, "b": 2}).without("a")
        assert "a" not in pkt and pkt["b"] == 2

    def test_equality_is_value_based(self):
        assert Packet({"a": 1, "b": 2}) == Packet({"b": 2, "a": 1})
        assert hash(Packet({"a": 1})) == hash(Packet({"a": 1}))

    def test_usable_in_sets(self):
        assert len({Packet({"a": 1}), Packet({"a": 1}), Packet({"a": 2})}) == 2

    def test_rejects_non_int_values(self):
        with pytest.raises(TypeError):
            Packet({"a": "x"})

    def test_rejects_bool_values(self):
        with pytest.raises(TypeError):
            Packet({"a": True})

    def test_rejects_non_string_fields(self):
        with pytest.raises(TypeError):
            Packet({1: 2})

    def test_location_helpers(self):
        pkt = Packet({SW: 3, PT: 7})
        assert pkt.switch == 3 and pkt.port == 7
        assert pkt.location == Location(3, 7)

    def test_at_relocates(self):
        pkt = Packet({SW: 1, PT: 1, "x": 9}).at(Location(5, 6))
        assert pkt.location == Location(5, 6) and pkt["x"] == 9

    @given(field_maps)
    def test_hash_equals_implies_eq(self, fields):
        assert Packet(fields) == Packet(dict(fields))

    @given(field_maps, field_names, st.integers(0, 7))
    def test_set_then_get(self, fields, name, value):
        assert Packet(fields).set(name, value)[name] == value

    @given(field_maps, field_names)
    def test_without_removes(self, fields, name):
        assert name not in Packet(fields).without(name)


class TestLocatedPacket:
    def test_of_uses_packet_location(self):
        pkt = Packet({SW: 2, PT: 3})
        lp = LocatedPacket.of(pkt)
        assert lp.location == Location(2, 3)

    def test_normalized_syncs_fields(self):
        lp = LocatedPacket(Packet({SW: 1, PT: 1}), Location(9, 9)).normalized()
        assert lp.packet.switch == 9 and lp.packet.port == 9


class TestHistory:
    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            History(())

    def test_head_and_rest(self):
        a, b = Packet({"x": 1}), Packet({"x": 2})
        h = History((a, b))
        assert h.head == a and h.rest == (b,)

    def test_dup_prepends_head(self):
        a = Packet({"x": 1})
        h = History.of(a).dup()
        assert len(h) == 2 and h.head == a

    def test_with_head_replaces(self):
        a, b = Packet({"x": 1}), Packet({"x": 2})
        h = History.of(a).with_head(b)
        assert h.head == b and len(h) == 1

    def test_equality(self):
        a = Packet({"x": 1})
        assert History.of(a) == History.of(a)
        assert hash(History.of(a)) == hash(History.of(a))
