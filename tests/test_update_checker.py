"""Tests for event-driven consistent updates: FO (first occurrences) and
Definition 2 correctness on the frozenset reference of
``tests/naive_oracles.py``, and the Definition 6 NES checker -- on
hand-built traces covering both correct and incorrect behaviors."""

import pytest

from repro.apps import bandwidth_cap_app, firewall_app
from repro.consistency import checker as checker_module
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
    ci = checker._config_of_mask(0)
    cf = checker._config_of_mask(checker.nes.structure.encode(frozenset({EVENT})))
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
        ci = checker._config_of_mask(0)
        cf = checker._config_of_mask(checker.nes.structure.encode(frozenset({EVENT})))
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
        c1 = checker._config_of_mask(0)
        c2 = checker._config_of_mask(0)
        assert c1 is c2


def test_membership_runs_once_per_tables_and_packet_trace(monkeypatch):
    """States sharing a policy are distinct configurations over one table
    dict; the per-check memo walks each (tables, packet trace) pair once."""
    app = bandwidth_cap_app(4)
    runtime = app.runtime(seed=3)
    for ident in range(6):
        runtime.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": ident})
        runtime.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 100 + ident})
        runtime.run_until_quiescent()
    trace = runtime.network_trace()
    runs = []
    real = checker_module.packet_trace_in_traces

    def counted(config, packet_trace):
        runs.append((config, packet_trace))
        return real(config, packet_trace)

    monkeypatch.setattr(checker_module, "packet_trace_in_traces", counted)
    assert NESChecker(app.nes, app.topology).check(trace)
    pairs = {(id(config._tables), packet_trace) for config, packet_trace in runs}
    assert len(runs) == len(pairs)
    # The trace does reach states whose configurations share tables.
    configs = {id(config) for config, _ in runs}
    assert len(configs) > len({id(config._tables) for config, _ in runs})
