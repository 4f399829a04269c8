"""Tests for event-driven consistent updates: FO (first occurrences) and
Definition 2 correctness on the frozenset reference of
``tests/naive_oracles.py``, and the Definition 6 NES checker -- on
hand-built traces covering both correct and incorrect behaviors."""

import pytest

from repro.apps import firewall_app
from repro.consistency.checker import NESChecker, check_trace_against_nes
from repro.consistency.traces import NetworkTrace
from repro.events.event import Event
from repro.formula import EQ, Formula, Literal
from repro.netkat.packet import LocatedPacket, Location, Packet

from naive_oracles import EventDrivenUpdate, check_update_correctness, first_occurrences


def lp(sw, pt, **fields):
    return LocatedPacket.of(Packet({"sw": sw, "pt": pt, **fields}))


H1, H4 = 1, 4
EVENT = Event(Formula((Literal("ip_dst", EQ, H4),)), Location(4, 1))

# Trace positions for the firewall scenario:
#  pkt A (H1->H4): 1:2, 1:1, 4:1, 4:2        (triggers the event at 4:1)
#  pkt B (H4->H1) after A: 4:2, 4:1, 1:1, 1:2 (allowed in Cf)
A = [lp(1, 2, ip_dst=H4), lp(1, 1, ip_dst=H4), lp(4, 1, ip_dst=H4), lp(4, 2, ip_dst=H4)]
B = [lp(4, 2, ip_dst=H1), lp(4, 1, ip_dst=H1), lp(1, 1, ip_dst=H1), lp(1, 2, ip_dst=H1)]


@pytest.fixture(scope="module")
def app():
    return firewall_app()


@pytest.fixture(scope="module")
def checker(app):
    return NESChecker(app.nes, app.topology)


@pytest.fixture(scope="module")
def update(app, checker):
    ci = checker.config_of_event_set(frozenset())
    cf = checker.config_of_event_set(frozenset({EVENT}))
    return EventDrivenUpdate.single(ci, EVENT, cf)


def good_trace():
    """A then B: B is processed entirely in Cf."""
    packets = tuple(A + B)
    return NetworkTrace(packets, frozenset({(0, 1, 2, 3), (4, 5, 6, 7)}))


def b_dropped_after_event_trace():
    """A then B, but B is dropped at s4 -- the 'too late' violation."""
    packets = tuple(A + B[:1])
    return NetworkTrace(packets, frozenset({(0, 1, 2, 3), (4,)}))


def b_delivered_before_event_trace():
    """B delivered *before* any event -- the 'too early' violation."""
    packets = tuple(B + A)
    return NetworkTrace(packets, frozenset({(0, 1, 2, 3), (4, 5, 6, 7)}))


def b_dropped_before_event_trace():
    """B dropped at ingress before the event: correct in Ci."""
    packets = tuple(B[:1] + A)
    return NetworkTrace(packets, frozenset({(0,), (1, 2, 3, 4)}))


class TestFirstOccurrences:
    def test_fo_found(self, update):
        fo = first_occurrences(good_trace(), update)
        assert fo == (2,)  # A's arrival at 4:1

    def test_fo_missing_event(self, update):
        trace = NetworkTrace(tuple(B[:1]), frozenset({(0,)}))
        assert first_occurrences(trace, update) is None

    def test_fo_requires_trigger_in_preceding_config(self, app, checker):
        """The event-matching packet must have been processed by Ci."""
        ci = checker.config_of_event_set(frozenset())
        cf = checker.config_of_event_set(frozenset({EVENT}))
        update = EventDrivenUpdate.single(ci, EVENT, cf)
        # A is cut short (dropped mid-path): its trace is in no Traces(Ci).
        packets = tuple(A[:3])
        trace = NetworkTrace(packets, frozenset({(0, 1, 2)}))
        assert first_occurrences(trace, update) is None


class TestDefinition2:
    def test_good_trace_correct(self, update):
        assert check_update_correctness(good_trace(), update)

    def test_too_late_violation(self, update):
        report = check_update_correctness(b_dropped_after_event_trace(), update)
        assert not report
        assert "too late" in report.reason

    def test_too_early_violation(self, update):
        report = check_update_correctness(b_delivered_before_event_trace(), update)
        assert not report

    def test_drop_before_event_correct(self, update):
        assert check_update_correctness(b_dropped_before_event_trace(), update)

    def test_update_shape_validated(self, update):
        with pytest.raises(ValueError):
            EventDrivenUpdate((update.configurations[0],), (EVENT,), frozenset({EVENT}))

    def test_events_must_be_ambient(self, update):
        other = Event(Formula(), Location(9, 9))
        with pytest.raises(ValueError):
            EventDrivenUpdate(update.configurations, (other,), frozenset({EVENT}))


class TestDefinition6:
    def test_good_trace_correct(self, app, checker):
        assert checker.check(good_trace())

    def test_too_late_rejected(self, app, checker):
        report = checker.check(b_dropped_after_event_trace())
        assert not report

    def test_too_early_rejected(self, app, checker):
        assert not checker.check(b_delivered_before_event_trace())

    def test_quiet_case_correct(self, app, checker):
        """No event fires and the packet is dropped as Ci dictates."""
        trace = NetworkTrace(tuple(B[:1]), frozenset({(0,)}))
        assert checker.check(trace)

    def test_quiet_case_violation(self, app, checker):
        """No event fires but a packet is delivered against Ci."""
        trace = NetworkTrace(tuple(B), frozenset({(0, 1, 2, 3)}))
        report = checker.check(trace)
        assert not report

    def test_convenience_wrapper(self, app):
        assert check_trace_against_nes(good_trace(), app.nes, app.topology)

    def test_config_cache_reused(self, checker):
        c1 = checker.config_of_event_set(frozenset())
        c2 = checker.config_of_event_set(frozenset())
        assert c1 is c2
