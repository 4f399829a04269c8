"""Heavy-traffic streaming goldens: one simulator path, three oracles.

Every record-identity test here runs its scenario through the one
``SimNetwork`` and checks the ``DeliveryRecord``/``DropRecord``
sequences of the default ``CorrectLogic`` against (i) the frozenset
``Figure7Logic`` of ``tests/naive_oracles.py`` (the rules as Figure 7
writes them, no memo, no plan cache; under controller assistance its
CTRLRECV and CTRLSEND too, ``event_learned_at`` included), (ii) one
``inject`` per frame in place of
``inject_stream``, which must also agree with the stream under each
baseline logic, and (iii) a SHA-256 digest recorded from the
eager-heap, no-memo frozenset simulator before it was deleted.  The
checker's verdicts are compared with Definition 6 composed from the
frozenset Definition 2 of ``tests/naive_oracles.py``.  The satellites
ride along: the static egress map, the lazy checker enumeration, the
delivery accessors, the plan-cache bound, and seeded determinism.
"""

import hashlib
from functools import partial

import pytest

from repro.apps import (
    SIGNAL_FIELD,
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    learning_multi_app,
    learning_switch_app,
    ring_app,
)
from repro.apps.base import HOSTS
from repro.baselines import ReferenceLogic, TwoPhaseLogic, UncoordinatedLogic
from repro.consistency import CorrectnessReport, NESChecker
from repro.consistency.traces import NetworkTrace, position_event_masks
from repro.netkat.flowtable import FlowTable, Rule
from repro.netkat.packet import LocatedPacket, Location, Packet
from repro.network import (
    CorrectLogic,
    Frame,
    FrameBatch,
    SimNetwork,
    install_ping_responders,
    send_ping,
)
from repro.network import simulator
from repro.obs import metrics as obs_metrics
from repro.topology import Host

from naive_oracles import (
    NO_FO,
    EventDrivenUpdate,
    Figure7Logic,
    check_update_correctness,
    packet_trace_in_traces_naive,
)
from test_update_checker import (
    b_delivered_before_event_trace,
    b_dropped_after_event_trace,
    b_dropped_before_event_trace,
    good_trace,
)

APPS = (
    ("firewall", firewall_app),
    ("ids", ids_app),
    ("authentication", authentication_app),
    ("ring", lambda: ring_app(2)),
    ("bandwidth_cap", bandwidth_cap_app),
    ("learning_switch", learning_switch_app),
    ("learning_multi", learning_multi_app),
)

# Record digests (see _record_digest) of each scenario below, generated
# at commit a584c5d from SimNetwork/CorrectLogic under
# REFERENCE_SIM_OPTIONS (frozenset registers and frames, every event
# pushed on the heap eagerly, no link or classification memo).
PINNED = {
    "firewall": "b10056b9d0668f67ebdd85eb5855dcd4ddf067043fa55b23a86cb25deb4f6729",
    "ids": "30b3abecbec578761847c926035eb46a778db5d13adb5559987ff00832b86d05",
    "authentication": "30b3abecbec578761847c926035eb46a778db5d13adb5559987ff00832b86d05",
    "ring": "643ecfd7c9b7e49424c9254a71f2d54d6edd8e49266c947662acc00a80f455d5",
    "bandwidth_cap": "e9345d0e91fdd73236c3ae6b433a5aec4e016142ea1b5ab5e6e35fc595ae6c8e",
    "learning_switch": "b10056b9d0668f67ebdd85eb5855dcd4ddf067043fa55b23a86cb25deb4f6729",
    "learning_multi": "9a4eb1889420a32decb93d6ae70d093de43b982ce0ef353e3d2bf6f10bd5b4c4",
    "firewall_blocked": "ccb3bb533688156f0073828fff3ce98aa5ca7b4d66e366305113b3eb8eca6cbc",
    "ring_signal": "17972c59229c97e5c405c3352e35c7a9dbead24539766a51f09753a1c7ccd5eb",
    "cap_stream": "5e953d1ce867c4f85835670b00586a6fefe1cb6610febfe19f587bd1701c7556",
    "unsorted_times": "86cb2a80e04761ec53dc113412cffbe79ef24405717412873cb4b0884a3d4d5e",
    "negative_spacing": "0ac8771b1df635c9d3c2091770bba82d4e86a9e67f280e1bbb820d2a1224af27",
    "soak_prefix": "d01f840e37055c066fc6073964c64e3e1a408c6d1393b713dd3df29c301940ed",
    "flood": "41e87c76ee01af97b8d5f943a48b363e4259c769a459d6eabac6a7c48fe332d2",
}


def _record_digest(deliveries, drops):
    """SHA-256 over one line per record; event sets are written as
    sorted reprs, so the digest does not depend on the hash seed."""

    def events(event_set):
        return None if event_set is None else sorted(map(repr, event_set))

    lines = []
    for kind, records in (("deliver", deliveries), ("drop", drops)):
        for record in records:
            frame = record.frame
            lines.append(repr((
                kind, *record[:2], *record[3:], frame.packet, frame.payload_bytes,
                events(frame.tag), events(frame.digest), frame.flow,
                frame.ident, frame.injected_at,
            )))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _stream_records(make_app, src, dst, count, logic=CorrectLogic,
                    per_frame=False, signal=None, flow=None, **timing):
    """Run a constant-header stream (plus an optional mid-stream signal
    frame) and return the network and its full record sequences."""
    app = make_app()
    net = SimNetwork(app.topology, logic(app.compiled), seed=7)
    batch = FrameBatch(
        {"ip_src": HOSTS[src], "ip_dst": HOSTS[dst], "kind": 0, "ident": 0},
        count,
        payload_bytes=64,
        flow=("bulk", src, dst) if flow is None else flow,
        **(timing or {"spacing": 1e-5}),
    )
    if per_frame:
        for at, packet, payload, row_flow, ident in batch.rows():
            frame = Frame(packet, payload, flow=row_flow, ident=ident)
            net.inject(src, frame, at=at)
    else:
        net.inject_stream(src, batch)
    if signal is not None:
        at, host, fields = signal
        net.inject(host, Frame(packet=Packet(fields), flow=("signal",)), at=at)
    net.run()
    return net, tuple(net.deliveries), tuple(net.drops)


def _reference_logic(compiled):
    return ReferenceLogic(compiled.config_for_state(compiled.nes.initial_state))


# Their records differ from the correct logic's, but per-frame injection
# and the stream must still agree under each of them.
BASELINES = (_reference_logic, UncoordinatedLogic, TwoPhaseLogic)


def _golden_records(pinned, *scenario, **kwargs):
    """The scenario's CorrectLogic records, after checking them against
    the Figure-7 logic, per-frame injection and the pinned digest, and
    checking per-frame injection against the stream under every
    baseline."""
    _, deliveries, drops = _stream_records(*scenario, **kwargs)
    for variant in ({"logic": Figure7Logic}, {"per_frame": True}):
        _, other_deliveries, other_drops = _stream_records(
            *scenario, **kwargs, **variant
        )
        assert other_deliveries == deliveries, variant
        assert other_drops == drops, variant
    assert _record_digest(deliveries, drops) == PINNED[pinned]
    for logic in BASELINES:
        streamed = _stream_records(*scenario, **kwargs, logic=logic)[1:]
        per_frame = _stream_records(*scenario, **kwargs, logic=logic, per_frame=True)
        assert per_frame[1:] == streamed, logic
    return deliveries, drops


class TestRecordIdentityGoldens:
    """Same records from every oracle, on every seed app."""

    @pytest.mark.parametrize("name,make_app", APPS, ids=[n for n, _ in APPS])
    def test_stream_records_identical_across_knobs(self, name, make_app):
        hosts = [h.name for h in make_app().topology.hosts]
        deliveries, drops = _golden_records(name, make_app, hosts[0], hosts[-1], 120)
        # Every scenario must actually exercise the data plane.
        assert len(deliveries) + len(drops) >= 120

    def test_firewall_blocked_direction_drop_records_identical(self):
        # Figure 10/11 shape: H4->H1 is dropped until a request goes out.
        deliveries, drops = _golden_records(
            "firewall_blocked", firewall_app, "H4", "H1", 80
        )
        assert not deliveries and len(drops) == 80

    def test_ring_signal_under_traffic_identical(self):
        # Figure 16 shape: a signal frame flips the ring configuration
        # in the middle of a packet stream, so plan caches and register
        # masks are invalidated while the backlog drains.
        signal = (
            2e-3,
            "H1",
            {"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0},
        )
        deliveries, _ = _golden_records(
            "ring_signal", lambda: ring_app(2), "H1", "H2", 400, signal=signal
        )
        assert len(deliveries) == 401  # 400 stream + the signal

    def test_bandwidth_cap_stream_identical(self):
        # Figure 14 shape: a bulk stream through the capped chain.
        _golden_records(
            "cap_stream", bandwidth_cap_app, "H1", "H4", 200, spacing=1e-6
        )

    def test_unsorted_times_column_identical(self):
        # Decreasing injection times -- an explicitly unsorted times
        # column, or a negative spacing -- defeat the lazy one-ahead
        # chain; the eager fallback must stay record-identical too.
        deliveries, drops = _golden_records(
            "unsorted_times", lambda: ring_app(2), "H1", "H2", 6, flow=(),
            times=[5e-4, 1e-4, 3e-4, 2e-4, 6e-4, 0.0],
        )
        assert len(deliveries) + len(drops) == 6
        deliveries, _ = _golden_records(
            "negative_spacing", firewall_app, "H1", "H4", 5,
            start=1.0, spacing=-0.1,
        )
        assert [d.frame.ident for d in deliveries] == [4, 3, 2, 1, 0]
        assert [d.frame.injected_at for d in deliveries] == sorted(
            d.frame.injected_at for d in deliveries
        )


# Digests (see _assist_digest) of the controller-assisted scenarios
# below, generated from CorrectLogic(controller_assist=True) before its
# CTRLRECV and CTRLSEND ran on masks (when it inherited both from
# Figure7Logic).
PINNED_ASSIST = {
    "ring2": "db1be0e4d212f5b2e85a06bdbc01741b9d13f1e608e8d22391fd4861597ef7c4",
    "ring4": "3f2de8261c16ad29d9970940932440684fe2d3bfcf1ae75a8cfe82e41f5104a4",
    "ring8": "8d638de416e46c6ebf97eeb5072c2d0d2c8fd3a89822d586edf1e1da55b142e2",
    "firewall": "d51363aa11e01a5f6f4bbeaf7662dbcd5e783e6a75629e831eeb44f60857b45e",
    "authentication": "66366377defee83c4f0b45f86dadeadbfe7aeddc4bda6c873503d69222cbf9e0",
}


def _assist_digest(net):
    """SHA-256 over the record digest and every (switch, event, time)
    of ``event_learned_at``."""
    learned = sorted(
        (switch, repr(event), at)
        for (switch, event), at in net.event_learned_at.items()
    )
    records = _record_digest(net.deliveries, net.drops)
    return hashlib.sha256(f"{records}\n{learned!r}".encode()).hexdigest()


def _ring_convergence(diameter, logic):
    """Figure 16b's ring convergence run, as ``benchmarks/_scenarios.py``
    sets it up: a signal frame at 1 s under 120 background pings."""
    app = ring_app(diameter)
    net = SimNetwork(app.topology, logic(app.compiled), seed=5)
    install_ping_responders(net)
    signal = Frame(
        packet=Packet({"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0}),
        flow=("signal",),
    )
    net.inject("H1", signal, at=1.0)
    for i in range(120):
        send_ping(net, "H1", "H2", 100 + i, at=0.5 + i * 0.1)
    net.run(until=30.0)
    return net


class TestControllerAssistGoldens:
    """CTRLRECV and CTRLSEND on masks against the frozenset reference:
    with ``controller_assist=True`` the two logics agree on deliveries,
    drops and ``event_learned_at``, and both on the pinned digest."""

    @staticmethod
    def _check(pinned, run):
        correct, reference = (
            run(partial(logic, controller_assist=True))
            for logic in (CorrectLogic, Figure7Logic)
        )
        assert _records(correct) == _records(reference)
        assert correct.event_learned_at == reference.event_learned_at
        assert _assist_digest(correct) == PINNED_ASSIST[pinned]
        return correct

    @pytest.mark.parametrize("diameter", (2, 4, 8))
    def test_ring_convergence(self, diameter):
        net = self._check(
            f"ring{diameter}", lambda logic: _ring_convergence(diameter, logic)
        )
        assert {switch for switch, _ in net.event_learned_at} == set(
            net.topology.switches
        )

    def test_firewall_stream(self):
        # The firewall golden, spread over 120 ms: CTRLSEND installs the
        # event at s1 mid-stream, so later frames leave it tagged.
        net = self._check(
            "firewall",
            lambda logic: _stream_records(
                firewall_app, "H1", "H4", 120, logic=logic, spacing=1e-3
            )[0],
        )
        assert len({d.frame.tag for d in net.deliveries}) == 2

    def test_authentication_knocks(self):
        # The authentication golden stream, H1 -> H4, while H4 knocks on
        # H1 and then H2.  s4 learns the first event from the stream's
        # digests and the second only by CTRLSEND, with frames stamped
        # before it still on the s1 -> s4 link.
        def run(logic):
            app = authentication_app()
            net = SimNetwork(app.topology, logic(app.compiled), seed=7)
            batch = FrameBatch(
                {"ip_src": 1, "ip_dst": 4, "kind": 0, "ident": 0},
                800,
                payload_bytes=64,
                flow=("bulk", "H1", "H4"),
                spacing=2.5e-4,
            )
            net.inject_stream("H1", batch)
            for at, dst in ((1e-3, "H1"), (80e-3, "H2")):
                knock = {"ip_src": 4, "ip_dst": HOSTS[dst], "kind": 0, "ident": 0}
                net.inject("H4", Frame(Packet(knock), flow=("knock", dst)), at=at)
            net.run()
            return net

        net = self._check("authentication", run)
        assert len(net.deliveries) == 802
        assert len({d.frame.digest for d in net.deliveries_to("H4")}) == 3


def _allowed_sequences(structure, events, prefix=()):
    """The sequences of ``events`` the structure allows after ``prefix``
    (each event enabled by, and consistent with, those before it), in
    preorder."""
    fired = frozenset(prefix)
    for event in events:
        if event in fired or not structure.enables(fired, event):
            continue
        if structure.con(fired | {event}):
            yield prefix + (event,)
            yield from _allowed_sequences(structure, events, prefix + (event,))


def _reference_check(checker, trace):
    """Definition 6 composed from the frozenset Definition 2 of
    ``tests/naive_oracles.py``: ``Event.matches`` and the materialising
    ``Traces(C)`` membership for the quiet case,
    the allowed sequences of matched events in interning order."""
    nes = checker.nes
    matched = [
        e for e in nes.structure.universe if any(map(e.matches, trace.packets))
    ]
    if not matched:
        initial = checker.config_of_event_set(frozenset())
        for t in sorted(trace.trace_indices):
            if not packet_trace_in_traces_naive(initial, trace.packet_trace(t)):
                return CorrectnessReport(
                    False,
                    "no event fires but a packet trace is not in Traces(g(∅))",
                    t,
                )
        return CorrectnessReport(True)
    reports = []
    for sequence in _allowed_sequences(nes.structure, matched):
        chain = tuple(
            checker.config_of_event_set(frozenset(sequence[:n]))
            for n in range(len(sequence) + 1)
        )
        update = EventDrivenUpdate(chain, sequence, nes.events)
        reports.append(check_update_correctness(trace, update))
        if reports[-1]:
            return reports[-1]
    assert reports, "every trace here has an allowed candidate sequence"
    informative = [r for r in reports if r.reason != NO_FO]
    return (informative or reports)[0]


class TestCheckerVerdictIdentity:
    """Definition 6 verdicts and reasons agree between ``NESChecker``
    and the composed frozenset reference, on runtime traces from the
    seed apps and on the same traces with their last hop misdelivered."""

    @pytest.mark.parametrize("name,make_app", APPS, ids=[n for n, _ in APPS])
    def test_verdicts_identical(self, name, make_app):
        app = make_app()
        rt = app.runtime(seed=0)
        hosts = [h.name for h in app.topology.hosts]
        src, dst = hosts[0], hosts[-1]
        for i in range(3):
            rt.inject(src, {"ip_dst": HOSTS[dst], "ip_src": HOSTS[src], "ident": i})
            rt.run_until_quiescent()
        trace = rt.network_trace()
        last = trace.packets[-1]
        astray = Location(last.location.switch, 99)
        wrong = NetworkTrace(
            trace.packets[:-1] + (LocatedPacket(last.packet.at(astray), astray),),
            trace.trace_indices,
        )
        checker = NESChecker(app.nes, app.topology)
        assert checker.check(trace) and not checker.check(wrong)
        for ntr in (trace, wrong):
            assert checker.check(ntr) == _reference_check(checker, ntr)

    def test_hand_built_firewall_traces(self):
        """The too-early, too-late and missing-FO reasons, on the
        hand-built Definition 2 traces."""
        app = firewall_app()
        checker = NESChecker(app.nes, app.topology)
        fo_missing = NetworkTrace(good_trace().packets[:3], frozenset({(0, 1, 2)}))
        verdicts = []
        for ntr in (
            good_trace(),
            b_dropped_after_event_trace(),
            b_delivered_before_event_trace(),
            b_dropped_before_event_trace(),
            fo_missing,
        ):
            report = checker.check(ntr)
            assert report == _reference_check(checker, ntr)
            verdicts.append(report)
        assert [bool(r) for r in verdicts] == [True, False, False, True, False]
        assert "too late" in verdicts[1].reason
        assert "too early" in verdicts[2].reason
        assert verdicts[4].reason == NO_FO


class TestLazyCheckerEnumeration:
    def test_early_exit_tries_fewer_sequences_than_exist(self):
        # A correct trace firing two independent events: four candidate
        # sequences exist (each event alone plus both orders), but the
        # lazy generator stops at the first match instead of
        # materializing them all.
        app = learning_multi_app()
        rt = app.runtime(seed=0)
        shots = [("H1", 4, 1), ("H2", 4, 2), ("H4", 1, 4)]
        for i, (host, dst, src) in enumerate(shots * 2):
            rt.inject(host, {"ip_dst": dst, "ip_src": src, "ident": i})
            rt.run_until_quiescent()
        trace = rt.network_trace()
        checker = NESChecker(app.nes, app.topology)
        report = checker.check(trace)
        assert report
        masks = position_event_masks(trace, app.nes.structure.universe)
        total = sum(1 for _ in checker._candidate_sequences(masks))
        assert 1 <= checker.sequences_tried < total


class TestEgressMap:
    def test_ports_table_static_and_first_link_wins(self):
        # The egress map is built once from the topology -- switch ->
        # port -> host-or-link with hosts shadowing links and the first
        # link in (switch, port) order winning -- so per-packet egress
        # resolution never re-sorts link lists.
        app = ring_app(2)
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=0)
        links = sorted(app.topology.links())
        for src, dst in links:
            target = net._ports[src.switch][src.port]
            if isinstance(target, Host):
                continue  # a host attachment shadows this link
            first = next(d for s, d in links if s == src)
            assert target.dst == first
        for host in app.topology.hosts:
            at = host.attachment
            assert net._ports[at.switch][at.port] is host

    def test_flood_emission_order_identical_across_knobs(self):
        # Multi-emit (flood) outputs must come out in the same port
        # order on the plan-replay path as from the Figure-7 logic.
        deliveries, _ = _golden_records("flood", learning_switch_app, "H4", "H1", 60)
        assert [d.host for d in deliveries[:2]] == ["H1", "H2"]
        assert len(deliveries) == 120


class TestDeliveryIndices:
    def _mixed_flow_net(self, logic=CorrectLogic):
        app = ring_app(2)
        net = SimNetwork(app.topology, logic(app.compiled), seed=7)
        for ident, flow in enumerate(
            [("bulk", "H1", "H2"), ("ping", "H1", "H2"), ("bulk", "H1", "H2")]
        ):
            batch = FrameBatch(
                {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": ident},
                40,
                payload_bytes=64,
                flow=flow,
                start=ident * 1e-5,
                spacing=3e-5,
            )
            net.inject_stream("H1", batch)
        net.run()
        return net

    @pytest.mark.parametrize(
        "logic", (Figure7Logic, CorrectLogic), ids=lambda cls: cls.__name__
    )
    def test_indices_match_full_scan(self, logic):
        net = self._mixed_flow_net(logic)
        assert len(net.deliveries) == 120
        for host in ("H1", "H2"):
            scan = [r for r in net.deliveries if r.host == host]
            assert net.deliveries_to(host) == scan
        for prefix in ((), ("bulk",), ("ping",), ("bulk", "H1", "H2"), ("no",)):
            scan = [
                r
                for r in net.deliveries
                if r.frame.flow[: len(prefix)] == prefix
            ]
            assert net.delivered_flows(prefix) == scan

    def test_indices_fold_incrementally_between_runs(self):
        net = self._mixed_flow_net()
        first = net.deliveries_to("H2")
        batch = FrameBatch(
            {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 9},
            10,
            payload_bytes=64,
            flow=("late", "H1", "H2"),
            start=net.now + 1e-4,
            spacing=1e-5,
        )
        net.inject_stream("H1", batch)
        net.run()
        assert len(net.deliveries_to("H2")) == len(first) + 10
        assert net.delivered_flows(("late",)) == net.deliveries[-10:]


class TestDeterminismAndOptions:
    def test_same_seed_same_records_in_one_process(self):
        runs = [
            _stream_records(lambda: ring_app(2), "H1", "H2", 300)
            for _ in range(2)
        ]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]
        assert runs[0][0].sim.events_processed == runs[1][0].sim.events_processed

    def test_plan_cache_invalidated_by_external_register_mutation(self):
        # CTRLSEND must bump the plan generation of each switch whose
        # register it writes, so stale emission plans are never
        # replayed, and of no other.  The signal frame fires the event at
        # s5, H2's switch; the stream carries no digest back, so no other
        # switch knows it before CTRLSEND.
        signal = (0.0, "H1", {"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0})
        net, _, _ = _stream_records(
            lambda: ring_app(4), "H1", "H2", 20, signal=signal
        )
        logic = net.logic
        (event,) = logic.compiled.nes.events
        knew = {switch for switch, _ in net.event_learned_at}
        assert knew and knew != set(net.topology.switches)
        before = dict(logic.plan_generations)
        logic._controller_mask = logic.compiled.nes.structure.encode({event})
        logic._broadcast(net)
        assert {
            switch
            for switch, generation in logic.plan_generations.items()
            if generation != before[switch]
        } == set(net.topology.switches) - knew
        after = dict(logic.plan_generations)
        logic._broadcast(net)
        assert logic.plan_generations == after

    def test_each_switch_on_the_path_misses_its_plan_exactly_once(self):
        # An event-free constant-header stream: every switch runs the
        # logic for the first frame and replays its plan for the other
        # 49 -- the second through a descent to the leaf, which leaves
        # the outcome on the interned Packet object, the rest from that
        # slot (hop n+1 sees the very object hop n emitted).
        with obs_metrics.collecting() as registry:
            net, deliveries, drops = _stream_records(
                lambda: ring_app(8), "H1", "H2", 50
            )
        assert len(deliveries) == 50 and not drops
        on_path = net.sim.events_processed // (2 * 50)
        assert on_path == 9
        plan_cache = "repro_sim_plan_cache_total"
        assert registry.value(plan_cache, result="miss") == on_path
        assert registry.value(plan_cache, result="leaf") == on_path
        assert registry.value(plan_cache, result="hit") == 48 * on_path

    def test_register_mutation_mid_stream_invalidates_recorded_plans(self):
        # Under assist, a signal frame at 10.5 ms fires the ring event at
        # s3; CTRLSEND then writes the registers of s1, s2 and s4 while
        # frames stamped before it are still on the clockwise path.
        def run(logic_class):
            app = ring_app(2)
            logic = logic_class(app.compiled, controller_assist=True)
            net = SimNetwork(app.topology, logic, seed=7)
            net.inject_stream(
                "H1",
                FrameBatch(
                    {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 0},
                    400,
                    payload_bytes=64,
                    spacing=2.5e-4,
                ),
            )
            signal = Packet({"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0})
            net.inject("H1", Frame(signal, flow=("signal",)), at=10.5e-3)
            net.run()
            return tuple(net.deliveries), tuple(net.drops)

        with obs_metrics.collecting() as registry:
            records = run(CorrectLogic)
        assert len(records[0]) + len(records[1]) == 401
        assert len({d.frame.tag for d in records[0]}) == 2
        # Three switches on the path: more than three misses means the
        # stale plans were not replayed; equal records mean the re-run
        # logic saw the written register.
        assert registry.value("repro_sim_plan_cache_total", result="miss") > 3
        assert records == run(Figure7Logic)

    def test_memo_eviction_keeps_records(self):
        # The plan store is keyed by leaf, so it needs no eviction: seven
        # interleaved idents (a field no rule or event reads) and a
        # mid-stream signal all pass through one leaf per switch, the
        # records are the reference's, and the store stays within the
        # leaves of the decision trees however many headers pass.
        def run(logic_class):
            app = ring_app(2)
            net = SimNetwork(app.topology, logic_class(app.compiled), seed=7)
            header = {"ip_src": 1, "ip_dst": 2, "kind": 0}
            batch = FrameBatch(
                {**header, "ident": [i % 7 for i in range(60)]},
                60,
                payload_bytes=64,
                spacing=1e-5,
            )
            net.inject_stream("H1", batch)
            net.inject(
                "H1", Frame(Packet({**header, SIGNAL_FIELD: 1})), at=2e-4
            )
            net.run()
            assert len(net.deliveries) == 61
            return net, (tuple(net.deliveries), tuple(net.drops))

        net, records = run(CorrectLogic)
        assert records == run(Figure7Logic)[1]
        assert 0 < len(net._plans) <= _leaf_count(net.logic.compiled)
        assert not hasattr(simulator, "_MEMO_LIMIT")


def _leaf_count(compiled):
    """Distinct leaves of the decision trees built so far."""
    leaves = set()

    def visit(node):
        if node.__class__ is tuple:
            for child in (*node[1].values(), node[2]):
                visit(child)
        else:
            leaves.add(node)

    for root in compiled._roots.values():
        for tree in root.values():
            visit(tree)
    return len(leaves)


def _records(net):
    return tuple(net.deliveries), tuple(net.drops)


class TestFrameBatchValidation:
    @pytest.mark.parametrize("count", (2.9, True, "3", None))
    def test_the_frame_count_is_an_int_not_coerced(self, count):
        # Used to build int(count) frames: 2 for 2.9, 1 for True.
        with pytest.raises(TypeError, match="frame count must be an int"):
            FrameBatch({"ip_src": 1}, count)

    @pytest.mark.parametrize(
        "bad", ([*range(49), "x", *range(50)], True), ids=("entry", "scalar")
    )
    def test_a_bad_column_value_fails_the_constructor_not_the_run(self, bad):
        # Used to construct, be accepted by inject_stream, and raise from
        # inside net.run() with frames already in flight.
        with pytest.raises(TypeError, match="field 'ident' must have an int value"):
            FrameBatch({"ip_src": 1, "ip_dst": 4, "kind": 0, "ident": bad}, 100)
        with pytest.raises(TypeError, match="field names must be strings"):
            FrameBatch({1: 0}, 3)


class TestServedArtifact:
    """``CorrectLogic`` runs ``CompiledNES.guarded_tables()`` -- what the
    daemon serves -- and the plans mean what ``_Plan`` says."""

    def test_correct_logic_forwards_by_the_memoised_guarded_table(self):
        def run(compiled, logic_class):
            net = SimNetwork(compiled.topology, logic_class(compiled), seed=7)
            net.inject_stream(
                "H1",
                FrameBatch(
                    {"ip_src": 1, "ip_dst": 4, "kind": 0, "ident": 0},
                    20,
                    payload_bytes=64,
                    spacing=1e-5,
                ),
            )
            net.run()
            return _records(net)

        def plant(compiled, switch, table):
            compiled._merge[0][switch] = table
            compiled._roots = {}

        compiled = firewall_app().compiled
        served = run(compiled, CorrectLogic)
        assert served == run(compiled, Figure7Logic) and served[0]
        # Send every rule of the ingress switch out of a dead port.
        switch = compiled.topology.host("H1").attachment.switch
        original = compiled.guarded_tables()[switch]
        dead_end = frozenset({(("pt", 99),)})
        plant(
            compiled,
            switch,
            FlowTable(Rule(r.priority, r.match, dead_end) for r in original),
        )
        mutated = run(compiled, CorrectLogic)
        assert mutated != served and not mutated[0]
        assert {d.reason for d in mutated[1]} == {"no-link-at-port"}
        assert run(compiled, Figure7Logic) == served  # forwards by configuration
        plant(compiled, switch, original)
        assert run(compiled, CorrectLogic) == served

    @staticmethod
    def _varied_net(logic_class, frames=40):
        app = ring_app(2)
        net = SimNetwork(app.topology, logic_class(app.compiled), seed=7)
        batch = FrameBatch(
            {
                "ip_src": [1 + i for i in range(frames)],
                "ip_dst": 2,
                "kind": 0,
                "ident": [1000 - i for i in range(frames)],
            },
            frames,
            payload_bytes=64,
            spacing=1e-4,
        )
        return net, batch

    def test_headers_that_differ_in_unread_fields_share_one_plan(self):
        with obs_metrics.collecting() as registry:
            net, batch = self._varied_net(CorrectLogic)
            net.inject_stream("H1", batch)
            net.run()
        assert len(net.deliveries) == 40
        on_path = net.sim.events_processed // (2 * 40)
        plan_cache = "repro_sim_plan_cache_total"
        assert registry.value(plan_cache, result="miss") == on_path
        replays = registry.value(plan_cache, result="hit") + registry.value(
            plan_cache, result="leaf"
        )
        assert replays == 39 * on_path
        assert len(net._plans) == on_path

        reference, batch = self._varied_net(Figure7Logic)
        reference.inject_stream("H1", batch)
        reference.run()
        assert _records(net) == _records(reference)
        per_frame, batch = self._varied_net(CorrectLogic)
        for at, packet, payload, flow, ident in batch.rows():
            per_frame.inject("H1", Frame(packet, payload, flow=flow, ident=ident), at=at)
        per_frame.run()
        assert _records(net) == _records(per_frame)

    def test_tag_digest_and_register_each_force_one_rerun_at_the_leaf(self):
        app = ring_app(2)
        logic = CorrectLogic(app.compiled)
        net = SimNetwork(app.topology, logic, seed=7)
        structure = app.compiled.nes.structure
        (event,) = structure.universe
        switch = app.topology.host("H1").attachment.switch
        location = Location(switch, app.topology.host("H1").attachment.port)
        calls = []
        process = logic.process
        logic.process = lambda *args: calls.append(args[1]) or process(*args)

        def hop(ident, tag_mask=0, digest_mask=0):
            packet = Packet({"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": ident})
            frame = Frame(
                packet.at(location), 64, ident=ident,
                tag_mask=tag_mask, digest_mask=digest_mask, structure=structure,
            )
            before = len(calls)
            simulator._Process(net, location, frame)()
            return len(calls) - before

        assert [hop(0), hop(1), hop(2)] == [1, 0, 0]
        # A different tag: another configuration, hence another leaf.
        assert [hop(3, tag_mask=1), hop(4, tag_mask=1)] == [1, 0]
        # A different digest at the same leaf: learning is a side effect
        # (no plan), after which the register covers it.
        assert [hop(5, digest_mask=1), hop(6, digest_mask=1), hop(7, digest_mask=1)] == [1, 1, 0]
        assert [hop(8), hop(9)] == [1, 0]
        # A CTRLSEND of an event the register already holds writes
        # nothing, so the plan survives.  (No rule of Figure 7 removes an
        # event from a register.)
        logic._controller_mask = structure.encode({event})
        logic._broadcast(net)
        assert [hop(10), hop(11)] == [0, 0]

    def test_one_packet_object_in_two_networks(self):
        def net_of(app):
            return SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)

        def load(net, frame):
            for i in range(6):
                net.inject("H1", frame, at=i * 1e-4)

        packet = Packet({"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 0}).at(
            ring_app(2).topology.host("H1").attachment
        )
        frame = Frame(packet, 64)
        app = ring_app(2)
        # Alone, on packets of their own.
        alone = []
        for _ in range(2):
            net = net_of(app)
            load(net, Frame(Packet(dict(packet.items())), 64))
            net.run()
            alone.append(_records(net))
        # Together: the same Frame and Packet objects, interleaved.
        first, second = net_of(app), net_of(app)
        load(first, frame)
        load(second, frame)
        for until in (1e-4, 3e-4, None):
            first.run(until=until)
            second.run(until=until)
        assert [_records(first), _records(second)] == alone
        assert packet._replay is not None

    def test_a_finished_network_is_freed_without_the_cyclic_collector(self):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            net, batch = self._varied_net(CorrectLogic)
            net.inject_stream("H1", batch)
            net.inject_stream(
                "H1",
                FrameBatch(
                    {"ip_src": 1, "ip_dst": 2, "kind": 0, "ident": 0}, 30, spacing=1e-4
                ),
            )
            net.run()
            assert net._plans and len(net.deliveries) == 70
            ref = weakref.ref(net)
            del net, batch
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.slow
class TestMillionFrameSoak:
    def test_million_frame_stream_delivers_all_and_matches_reference_prefix(self):
        count = 1_000_000
        scenario = (lambda: ring_app(2), "H1", "H2")
        net, deliveries, _ = _stream_records(*scenario, count, spacing=1e-6)
        assert len(deliveries) == count
        assert net.sim.events_processed == 6 * count
        # Switch service is FIFO, so the first frames' records are
        # unaffected by the later backlog: the soak's prefix must be
        # byte-identical to every oracle's run of just that prefix.
        sample = 2000
        prefix, _ = _golden_records("soak_prefix", *scenario, sample, spacing=1e-6)
        assert deliveries[:sample] == prefix
