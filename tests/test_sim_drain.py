"""The drain: a lone constant-header stream finishes in one step.

``SimNetwork`` finishes every pending frame at once when they are one
stream's frames on one replayed path (see the ``network.simulator``
module docstring).  ``Figure7Logic`` publishes no plans, so it never
drains: held equal to it, ``CorrectLogic`` shows the drain is exact --
the same records in the same order, the same ``event_learned_at``, the
same event count, clock and tie-break counter, and the same records for
a stream injected after the drained run.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    SIGNAL_FIELD,
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    ring_app,
)
from repro.netkat.packet import Packet
from repro.network import (
    CorrectLogic,
    Frame,
    FrameBatch,
    LinkParams,
    SimNetwork,
    install_ping_responders,
    send_ping,
)
from repro.obs import metrics as obs_metrics

from naive_oracles import Figure7Logic

# The sim_stream scenario shapes: app, source host, constant header.
STREAMS = {
    "ring2": (lambda: ring_app(2), "H1", {"ip_src": 1, "ip_dst": 2}),
    "ring8": (lambda: ring_app(8), "H1", {"ip_src": 1, "ip_dst": 2}),
    "cap10": (lambda: bandwidth_cap_app(10), "H1", {"ip_src": 1, "ip_dst": 4}),
    "firewall_fwd": (firewall_app, "H1", {"ip_src": 1, "ip_dst": 4}),
    "firewall_rev": (firewall_app, "H4", {"ip_src": 4, "ip_dst": 1}),
}

LINKS = {"default": LinkParams(), "no_latency": LinkParams(latency=0)}


@lru_cache(maxsize=None)
def _app(name):
    return STREAMS[name][0]()


def _batch(name, frames, spacing, start=0.0, ident=0):
    _, host, header = STREAMS[name]
    return host, FrameBatch(
        dict(header, kind=0, ident=ident),
        frames,
        payload_bytes=64,
        flow=("bulk", host),
        spacing=spacing,
        start=start,
    )


def _run(name, logic_class, frames, spacing, link):
    """A lone stream run to quiescence, then a second stream of the same
    shape injected at the clock's final time and run as well."""
    app = _app(name)
    net = SimNetwork(app.topology, logic_class(app.compiled), seed=7, default_link=link)
    net.inject_stream(*_batch(name, frames, spacing))
    net.run()
    first = (
        tuple(net.deliveries),
        tuple(net.drops),
        dict(net.event_learned_at),
        net.sim.events_processed,
        net.now,
        # The next tie-break seq: a drain advances the counter by the
        # pushes it skipped.
        next(net.sim._counter),
    )
    net.inject_stream(*_batch(name, 7, spacing, start=net.now, ident=1))
    net.run()
    second = (tuple(net.deliveries), tuple(net.drops), net.sim.events_processed, net.now)
    return first, second


def _assert_exact(name, frames, spacing, link):
    with obs_metrics.collecting() as registry:
        drained = _run(name, CorrectLogic, frames, spacing, link)
    assert drained == _run(name, Figure7Logic, frames, spacing, link)
    deliveries, drops = drained[0][:2]
    assert len(deliveries) + len(drops) == frames
    return registry


@pytest.mark.parametrize(
    "name,frames,spacing,link",
    [
        ("ring2", 60, 1e-6, "default"),
        ("ring8", 40, 0.0, "no_latency"),
        ("cap10", 150, 1e-6, "default"),
        ("firewall_fwd", 150, 0.0, "default"),
        ("firewall_rev", 30, 1e-6, "no_latency"),
    ],
)
def test_a_drained_stream_keeps_every_record_of_the_reference(name, frames, spacing, link):
    registry = _assert_exact(name, frames, spacing, LINKS[link])
    assert registry.value("repro_sim_drain_total", result="taken") >= 1


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(STREAMS)),
    frames=st.integers(1, 300),
    spacing=st.sampled_from((0.0, 1e-6)),
    link=st.sampled_from(sorted(LINKS)),
)
def test_lone_streams_drain_exactly(name, frames, spacing, link):
    _assert_exact(name, frames, spacing, LINKS[link])


def _drains(load):
    """(taken, declined) drains of one CorrectLogic run of ``load``."""
    with obs_metrics.collecting() as registry:
        load()
        taken = registry.value("repro_sim_drain_total", result="taken")
        declined = registry.value("repro_sim_drain_total", result="declined")
    return taken, declined


def _churn(make_app, bulk, triggers, frames=200, seed=0):
    """The sim_churn stream shape: a bulk stream whose ident and ip_src
    differ on every frame, and event-triggering streams through it."""

    def load():
        rng = random.Random(seed)
        app = make_app()
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
        host, header = bulk
        net.inject_stream(host, FrameBatch(
            dict(header, kind=0,
                 ident=rng.sample(range(1, 1 << 20), frames),
                 ip_src=[header["ip_src"] + 10 * rng.randrange(1, 200)
                         for _ in range(frames)]),
            frames, payload_bytes=64, spacing=1e-5,
        ))
        every = frames // 20
        for index, (host, header) in enumerate(triggers):
            count = frames // every // len(triggers)
            net.inject_stream(host, FrameBatch(
                dict(header, kind=0, ident=rng.sample(range(1 << 20, 1 << 21), count)),
                count, payload_bytes=64, spacing=1e-5 * every * len(triggers),
                start=1e-5 * (0.5 + every * index),
            ))
        net.run()

    return load


def _pings():
    app = firewall_app()
    net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
    install_ping_responders(net)
    for i in range(10):
        send_ping(net, "H1", "H4", i + 1, 1.0 + 0.4 * i)
    net.run(until=30.0)


def _signal():
    app = ring_app(4)
    net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
    install_ping_responders(net)
    net.inject("H1", Frame(
        Packet({"ip_src": 1, SIGNAL_FIELD: 1, "kind": 0, "ident": 0}), flow=("signal",)
    ), at=1.0)
    for i in range(60):
        send_ping(net, "H1", "H2", 100 + i, at=0.5 + i * 0.1)
    net.run(until=30.0)


def test_a_lone_stream_drains():
    # Every sim_stream shape drains once; no sim_churn shape does: its
    # headers differ frame by frame, or its run stops at a horizon.
    for name in STREAMS:
        def load(name=name):
            app = _app(name)
            net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
            net.inject_stream(*_batch(name, 400, 1e-6))
            net.run()

        taken, _ = _drains(load)
        assert taken == 1, name
    churn = {
        "firewall": _churn(firewall_app, ("H4", {"ip_src": 4, "ip_dst": 1}),
                           [("H1", {"ip_src": 1, "ip_dst": 4})]),
        "cap10": _churn(lambda: bandwidth_cap_app(10), ("H4", {"ip_src": 4, "ip_dst": 1}),
                        [("H1", {"ip_src": 1, "ip_dst": 4})]),
        "ids": _churn(ids_app, ("H4", {"ip_src": 4, "ip_dst": 3}),
                      [("H4", {"ip_src": 4, "ip_dst": 1}), ("H4", {"ip_src": 4, "ip_dst": 2})]),
        "authentication": _churn(
            authentication_app, ("H4", {"ip_src": 4, "ip_dst": 3}),
            [("H4", {"ip_src": 4, "ip_dst": 1}), ("H4", {"ip_src": 4, "ip_dst": 2})],
        ),
    }
    for name, load in churn.items():
        taken, declined = _drains(load)
        assert taken == 0 and declined > 0, name
    # Runs to a horizon never try.
    assert _drains(_pings) == (0, 0)
    assert _drains(_signal) == (0, 0)


def test_declines_back_off_by_doubling():
    # A pending controller callback declines every drain until it fires;
    # the attempts in between come after 1, 2, 4, ... replayed path ends.
    with obs_metrics.collecting() as registry:
        app = _app("firewall_fwd")
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
        net.inject_stream(*_batch("firewall_fwd", 2000, 1e-6))
        net.run()
    declined = registry.value("repro_sim_drain_total", result="declined")
    assert registry.value("repro_sim_drain_total", result="taken") == 1
    assert 0 < declined <= (2000).bit_length()


@pytest.mark.parametrize("name", ["ring2", "firewall_fwd"])
def test_a_drain_never_crosses_max_events(name):
    def capped(logic_class, cap):
        app = _app(name)
        net = SimNetwork(app.topology, logic_class(app.compiled), seed=7)
        net.inject_stream(*_batch(name, 300, 1e-6))
        with pytest.raises(RuntimeError, match=f"exceeded {cap} events"):
            net.sim.run(max_events=cap)
        return net.sim.events_processed, tuple(net.deliveries), tuple(net.drops), net.now

    app = _app(name)
    full = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
    full.inject_stream(*_batch(name, 300, 1e-6))
    full.run()
    total = full.sim.events_processed
    for cap in (7, total // 3, total - 1):
        with obs_metrics.collecting() as registry:
            run = capped(CorrectLogic, cap)
        assert run[0] == cap
        assert run == capped(Figure7Logic, cap)
        assert registry.value("repro_sim_drain_total", result="taken") == 0
    # With room for every event the drain is taken and nothing is raised.
    with obs_metrics.collecting() as registry:
        net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
        net.inject_stream(*_batch(name, 300, 1e-6))
        net.sim.run(max_events=total)
    assert net.sim.events_processed == total
    assert registry.value("repro_sim_drain_total", result="taken") == 1
