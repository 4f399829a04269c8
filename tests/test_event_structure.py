"""Tests for event structures (Definitions 3-4) and their derived notions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events.structure import EventStructure


def chain(*events):
    """A linear structure: e0 enables e1 enables e2 ..."""
    covers = [frozenset(events[: i + 1]) for i in range(len(events))]
    base = [(frozenset(events[:i]), events[i]) for i in range(len(events))]
    return EventStructure(events, covers, base)


def diamond(a, b):
    """Two independent, compatible events."""
    return EventStructure(
        [a, b],
        [frozenset({a, b})],
        [(frozenset(), a), (frozenset(), b)],
    )


def conflict(a, b):
    """Two independently-enabled but mutually-inconsistent events."""
    return EventStructure(
        [a, b],
        [frozenset({a}), frozenset({b})],
        [(frozenset(), a), (frozenset(), b)],
    )


class TestConsistency:
    def test_empty_always_consistent(self):
        assert conflict("a", "b").con(frozenset())

    def test_downward_closed(self):
        es = diamond("a", "b")
        assert es.con({"a", "b"})
        assert es.con({"a"}) and es.con({"b"})

    def test_conflict_detected(self):
        es = conflict("a", "b")
        assert es.con({"a"}) and es.con({"b"})
        assert not es.con({"a", "b"})

    def test_unknown_events_rejected_in_covers(self):
        with pytest.raises(ValueError):
            EventStructure(["a"], [frozenset({"z"})], [])


class TestEnabling:
    def test_base_enabling(self):
        es = chain("a", "b")
        assert es.enables(frozenset(), "a")
        assert not es.enables(frozenset(), "b")
        assert es.enables(frozenset({"a"}), "b")

    def test_upward_closed(self):
        es = chain("a", "b", "c")
        # {a,b} |- c, so any superset enables c too.
        assert es.enables(frozenset({"a", "b"}), "c")
        assert es.enables(frozenset({"a", "b", "c"}), "c")

    def test_minimal_enablers_deduplicated(self):
        es = EventStructure(
            ["a", "b"],
            [frozenset({"a", "b"})],
            [(frozenset(), "b"), (frozenset({"a"}), "b"), (frozenset(), "a")],
        )
        # the {a} enabler is subsumed by {}
        assert es.minimal_enablers("b") == (frozenset(),)

    def test_unknown_event_in_base_rejected(self):
        with pytest.raises(ValueError):
            EventStructure(["a"], [frozenset({"a"})], [(frozenset(), "z")])


class TestEventSets:
    def test_chain_event_sets(self):
        es = chain("a", "b", "c")
        expected = {
            frozenset(),
            frozenset({"a"}),
            frozenset({"a", "b"}),
            frozenset({"a", "b", "c"}),
        }
        assert es.event_sets() == expected

    def test_diamond_event_sets(self):
        es = diamond("a", "b")
        assert es.event_sets() == {
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        }

    def test_conflict_event_sets(self):
        es = conflict("a", "b")
        assert es.event_sets() == {frozenset(), frozenset({"a"}), frozenset({"b"})}

    def test_is_event_set(self):
        es = chain("a", "b")
        assert es.is_event_set(frozenset())
        assert es.is_event_set({"a"})
        assert es.is_event_set({"a", "b"})
        assert not es.is_event_set({"b"})  # not secured: b needs a

    def test_is_event_set_rejects_inconsistent(self):
        es = conflict("a", "b")
        assert not es.is_event_set({"a", "b"})


class TestSequences:
    def test_chain_allows_in_order(self):
        es = chain("a", "b")
        assert es.allows_sequence(["a", "b"])
        assert not es.allows_sequence(["b", "a"])
        assert not es.allows_sequence(["b"])

    def test_diamond_allows_both_orders(self):
        es = diamond("a", "b")
        assert es.allows_sequence(["a", "b"])
        assert es.allows_sequence(["b", "a"])

    def test_conflict_forbids_both(self):
        es = conflict("a", "b")
        assert es.allows_sequence(["a"])
        assert not es.allows_sequence(["a", "b"])

    def test_allowed_sequences_enumeration(self):
        es = diamond("a", "b")
        seqs = set(es.allowed_sequences(max_length=2))
        assert ("a", "b") in seqs and ("b", "a") in seqs and () in seqs

    def test_repeated_event_not_allowed(self):
        es = chain("a")
        assert not es.allows_sequence(["a", "a"])


class TestForeignInterning:
    """encode() takes the id fast path for the universe's own objects;
    an equal-but-foreign event object encodes through the value index."""

    def test_encode_interns_foreign_equal_events(self):
        e0, e1 = ("ev", 0), ("ev", 1)
        es = diamond(e0, e1)
        foreign = tuple(["ev", 0])
        assert foreign == e0 and foreign is not e0
        assert es.encode([foreign]) == es.encode([e0])
        assert es.encode([foreign, tuple(["ev", 1])]) == es.encode([e0, e1])

    def test_unknown_events_still_raise_and_are_not_pinned(self):
        es = diamond(("ev", 0), ("ev", 1))
        with pytest.raises(KeyError):
            es.encode([("other", 9)])
        assert es._try_encode([("other", 9)]) is None

    def test_con_uses_the_interned_fast_path(self):
        e0, e1 = ("ev", 0), ("ev", 1)
        es = conflict(e0, e1)
        foreign0, foreign1 = tuple(["ev", 0]), tuple(["ev", 1])
        assert es.con({foreign0})
        assert not es.con({foreign0, foreign1})

    def test_pickle_drops_the_pins(self):
        import pickle

        e0, e1 = ("ev", 0), ("ev", 1)
        es = diamond(e0, e1)
        es.encode([tuple(["ev", 0])])
        clone = pickle.loads(pickle.dumps(es))
        assert set(clone._index_by_id) == {id(e) for e in clone._universe}
        assert clone.encode([tuple(["ev", 1])]) == es.encode([e1])


class TestSuccessors:
    def test_successors_respect_con_and_enabling(self):
        es = conflict("a", "b")
        assert set(es.successors(frozenset())) == {"a", "b"}
        assert set(es.successors(frozenset({"a"}))) == set()


@st.composite
def random_structures(draw):
    n = draw(st.integers(1, 5))
    events = [f"e{i}" for i in range(n)]
    n_covers = draw(st.integers(1, 4))
    covers = [
        frozenset(draw(st.sets(st.sampled_from(events), max_size=n)))
        for _ in range(n_covers)
    ]
    n_base = draw(st.integers(0, 6))
    base = [
        (
            frozenset(draw(st.sets(st.sampled_from(events), max_size=2))),
            draw(st.sampled_from(events)),
        )
        for _ in range(n_base)
    ]
    return EventStructure(events, covers, base)


class TestStructureProperties:
    @given(random_structures())
    @settings(max_examples=100, deadline=None)
    def test_every_event_set_is_event_set(self, es):
        for x in es.event_sets():
            assert es.is_event_set(x)

    @given(random_structures())
    @settings(max_examples=100, deadline=None)
    def test_con_downward_closed(self, es):
        for x in es.event_sets():
            for e in x:
                assert es.con(x - {e})

    @given(random_structures())
    @settings(max_examples=50, deadline=None)
    def test_sequences_land_in_event_sets(self, es):
        for seq in es.allowed_sequences(max_length=3):
            assert es.is_event_set(frozenset(seq))
