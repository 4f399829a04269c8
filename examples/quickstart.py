#!/usr/bin/env python3
"""Quickstart: the stateful firewall, end to end.

This walks the full pipeline of the paper on its running example:

1. write a Stateful NetKAT program (Figure 9(a));
2. run the staged pipeline (ETS -> NES -> tagged flow tables) through
   the ``Pipeline`` façade, inspecting each artifact and the per-stage
   timing report;
3. apply a small ``Delta`` and recompile *incrementally*
   (``Pipeline.update``), printing how much of the build was reused;
4. execute the operational semantics on a ping workload;
5. check the resulting network trace against Definition 6;
6. stream 20k frames through the discrete-event simulator with
   ``FrameBatch``/``inject_stream`` and report events/sec;
7. re-run the compile under the observability layer (``repro.obs``):
   record a span trace, export it as a Perfetto-loadable Chrome trace
   file, and print the self-time summary tree next to the metrics the
   instrumented pipeline recorded.

Run:  python examples/quickstart.py
"""

from repro.apps import firewall_app
from repro.consistency import check_trace_against_nes
from repro.events.locality import is_locally_determined


def main() -> None:
    app = firewall_app()
    print(f"Application: {app.name}")
    print(f"  {app.description}\n")

    # -- the staged pipeline: ETS, NES, compiled tables ----------------------
    # Every app owns a Pipeline built with the default options; compile
    # options (artifact cache, deadline) are one frozen CompileOptions
    # object handed to Pipeline(...), as the cache demo below does.  An
    # option exists only when two real callers need different values
    # (see repro.pipeline); there is one compile path.
    # The ETS stage runs the symbolic all-states engine: one
    # partial-evaluation pass over every state-component value,
    # instantiated per state -- the report below splits it into
    # ets.symbolic / ets.instantiate.
    pipeline = app.pipeline
    print("Event-driven transition system:")
    print(pipeline.ets, "\n")
    nes = pipeline.nes
    print(f"NES: {nes}")
    print(f"  locally determined: {is_locally_determined(nes)}")
    print(f"  event-sets: {[sorted(map(repr, s)) for s in sorted(nes.event_sets(), key=len)]}\n")

    compiled = pipeline.compiled
    print(f"Compiled: {compiled}")
    for switch, table in sorted(compiled.guarded_tables().items()):
        print(f"  switch {switch}:")
        for rule in table:
            print(f"    {rule!r}")
    print(f"\nPer-stage report:\n{pipeline.report()}\n")

    # -- fault tolerance: signed artifact cache + health counters ------------
    # With cache_hmac_key set (or the REPRO_CACHE_HMAC_KEY environment
    # variable), cached artifacts carry an HMAC-SHA256 signature and
    # loads verify it: a tampered or unsigned entry is a recorded miss,
    # quarantined to *.pkl.bad and recompiled over -- or a hard
    # ArtifactIntegrityError under strict_cache=True.  Every absorbed
    # failure (cache rejections, swallowed cache errors) is counted in
    # report().health; empty means clean.
    import tempfile

    from repro import CompileOptions, Pipeline

    with tempfile.TemporaryDirectory() as cache_dir:
        opts = CompileOptions(
            cache_dir=cache_dir,
            cache_hmac_key="example-key",  # or export REPRO_CACHE_HMAC_KEY
            strict_cache=False,
        )
        cold = Pipeline(app.program, app.topology, app.initial_state, opts)
        cold.compiled
        warm = Pipeline(app.program, app.topology, app.initial_state, opts)
        warm.compiled
        print(f"Signed artifact cache: cold={cold.report().artifact_cache}, "
              f"warm={warm.report().artifact_cache}")
        print(f"Health counters: {dict(warm.report().health) or 'ok'}\n")

    # -- incremental recompilation: Pipeline.update --------------------------
    # A controller rarely gets a fresh program; it gets a small delta.
    # Pipeline.update(Delta(...)) runs the same three stages on the
    # post-delta inputs, each borrowing from this pipeline what the
    # delta left alone (the partial evaluation, the NES, the tables of
    # unchanged configurations) -- byte-identical to a cold rebuild of
    # the post-delta program.  Here: start
    # the firewall in state [1] ("H1 already contacted H4").
    from repro import Delta

    updated = pipeline.update(Delta(set_state=((0, 1),)))
    stats = dict(updated.report().stats)
    print(f"Incremental update (initial state [0] -> [1]): "
          f"{updated.compiled}")
    print(f"  reuse: {stats['update.reuse_percent']}% of configurations "
          f"({stats['update.configurations_reused']} reused, "
          f"{stats['update.configurations_recompiled']} recompiled; "
          f"ETS states: {stats['update.states_reused']} reused, "
          f"{stats['update.states_reinstantiated']} reinstantiated)\n")

    # -- execute the Figure 7 semantics -----------------------------------------
    rt = app.runtime(seed=0)

    print("1. H4 pings H1 before any outgoing traffic -> must be dropped")
    rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 1})
    rt.run_until_quiescent()
    print(f"   delivered={len(rt.state.delivered)} dropped={len(rt.state.dropped)}")

    print("2. H1 contacts H4 -> allowed, and triggers the event at s4")
    rt.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": 2})
    rt.run_until_quiescent()
    print(f"   delivered={len(rt.state.delivered)} dropped={len(rt.state.dropped)}")
    print(f"   s4 register: {sorted(map(repr, rt.state.switch(4).known_events))}")

    print("3. H4 pings H1 again -> now allowed (s4 heard the event)")
    rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 3})
    rt.run_until_quiescent()
    print(f"   delivered={len(rt.state.delivered)} dropped={len(rt.state.dropped)}\n")

    # -- verify the trace (the empirical Theorem 1) ---------------------------------
    trace = rt.network_trace()
    report = check_trace_against_nes(trace, nes, app.topology)
    print(f"Network trace: {len(trace)} positions, {len(trace.trace_indices)} packet traces")
    print(f"Correct w.r.t. Definition 6: {report.correct}")
    assert report.correct, report.reason

    # -- heavy traffic: batched streams through the simulator -----------------
    # For throughput experiments the discrete-event simulator takes
    # whole packet streams at once: a FrameBatch describes the frames
    # as columns (constant headers are interned to one shared Packet),
    # and inject_stream schedules them one ahead of the clock.  The
    # records are those of calling inject once per frame, and of the
    # frozenset Figure-7 logic (tests/test_sim_streaming.py pins both).
    import time

    from repro.network import CorrectLogic, FrameBatch, SimNetwork

    stream_net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
    frames = 20_000
    stream_net.inject_stream(
        "H1",
        FrameBatch(
            {"ip_src": 1, "ip_dst": 4, "kind": 0, "ident": 0},
            frames,
            payload_bytes=64,
            flow=("bulk", "H1", "H4"),
            spacing=1e-6,
        ),
    )
    start = time.perf_counter()
    stream_net.run()
    elapsed = time.perf_counter() - start
    events = stream_net.sim.events_processed
    print(f"\nStreamed {frames} frames H1->H4: "
          f"{len(stream_net.deliveries_to('H4'))} delivered, "
          f"{events} events in {elapsed:.3f}s "
          f"({events / elapsed:,.0f} events/sec)")

    # -- observability: span traces + metrics --------------------------------
    # Everything above ran with the obs layer uninstalled (each hook is
    # one module-global check).  Installing a tracer + registry records
    # a span per pipeline stage, cache access, and per-configuration
    # compile, and mirrors every health/cache counter into Prometheus
    # metric families.  The CLI spelling of this block is
    #   python -m repro compile prog.snk --report --trace out.json
    #   python -m repro trace summarize out.json
    import json
    import tempfile as _tempfile

    from repro.obs import export, metrics, trace as obs_trace

    with metrics.collecting() as registry, obs_trace.recording() as tracer:
        with obs_trace.span("quickstart.compile"):
            traced = Pipeline(app.program, app.topology, app.initial_state)
            traced.compiled
    with _tempfile.NamedTemporaryFile(
        "r", suffix=".trace.json", delete=False
    ) as handle:
        spans = export.write_chrome_trace(handle.name, tracer)
        doc = json.load(open(handle.name))
    assert export.validate_chrome_trace(doc) == [], "trace schema broke"
    print(f"\nTraced recompile: {spans} spans -> {handle.name} "
          f"(drag into Perfetto / chrome://tracing)")
    print("Self-time summary (repro trace summarize):")
    print(export.format_summary(export.summarize(tracer.finished())))
    stage_count = registry.histogram(
        "repro_pipeline_stage_seconds", stage="compile"
    ).count
    print(f"\nMetrics recorded alongside: compile-stage observations: "
          f"{stage_count}; Prometheus exposition (a GET /metrics away "
          f"when served):")
    for line in export.prometheus_text(registry).splitlines():
        if line.startswith("repro_pipeline_stage_seconds_count"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
