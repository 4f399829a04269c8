"""Compiler-perf tracker: times the hot-path suite, writes a JSON record.

Usage::

    PYTHONPATH=src python -m benchmarks.run_perf [--quick] [--out PATH]

Runs each benchmark ``rounds`` times (3 with ``--quick``, 7 otherwise),
records the per-bench median wall-clock seconds plus per-stage
(ets/nes/compile, with the ets symbolic-vs-instantiate substage split)
pipeline timings for the ids, cap-20, and cap-24 apps, and
writes ``BENCH_compiler_perf.json`` at the repository root.  The
``cap24_update_latency`` bench times an incremental
:meth:`repro.pipeline.Pipeline.update` (one initial-state component
delta) against a warm base pipeline; compare it with the cold
``cap24_full_compile`` median to read off the incremental speedup.
``cap24_service_warm_request`` times one warm ``POST /compile``
round-trip against an in-process compilation daemon
(:mod:`repro.service`) — the HTTP + wire overhead a controller pays
over the raw memo hit.
The file is checked in so the perf trajectory is visible PR over PR;
re-run this after touching the compiler, the FDD algebra, or the
event-structure engine, and commit the refreshed numbers.

The benches mirror ``bench_compiler_perf.py`` (FDD construction/union,
full app compile, NES conversion, trace checking, trie heuristic) plus
the scaling cases from ``bench_scale_events.py`` (deep bandwidth-cap
chains, wide multi-switch locality) that the bitset engine unlocked.

The ``sim_benches`` section is the streaming events/sec lane: a
100k-frame ring stream (``sim_events_per_sec_ring``), a bandwidth-cap
stream, and the Definition 6 checker throughput on a warm firewall
trace.  These run in ``--quick`` mode too.

``obs_overhead_noop`` pins the uninstalled cost of the
:mod:`repro.obs` instrumentation hooks (span / counter / histogram
sites with no registry or tracer installed): one module-global read and
an early return per site, so its median must stay flat as more of the
codebase is instrumented.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.apps import bandwidth_cap_app, firewall_app, ids_app, ring_app
from repro.apps.base import HOSTS
from repro.consistency.checker import NESChecker
from repro.events.ets_to_nes import nes_of_ets
from repro.events.locality import (
    is_locally_determined,
    minimally_inconsistent_sets,
)
from repro.netkat.fdd import FDDBuilder
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.optimize.trie import build_trie, heuristic_order, trie_rule_count
from repro.pipeline import Delta, Pipeline
from repro.stateful.ets import build_ets

from .bench_compiler_perf import random_link_free_policy
from .bench_scale_events import wide_structure

def _pipeline_of(app) -> Pipeline:
    return Pipeline(app.program, app.topology, app.initial_state)


def _bench_fdd_compile() -> None:
    policy = random_link_free_policy(seed=7)
    FDDBuilder().of_policy(policy)


def _bench_fdd_union() -> None:
    p = random_link_free_policy(seed=1, branches=16)
    q = random_link_free_policy(seed=2, branches=16)
    b = FDDBuilder()
    b.union(b.of_policy(p), b.of_policy(q))


def _bench_full_app_compile_ids() -> None:
    _pipeline_of(ids_app()).compiled.total_rule_count()


def _bench_cap_chain_nes_conversion() -> None:
    nes_of_ets(bandwidth_cap_app(20).ets)


def _bench_cap20_full_compile() -> None:
    _pipeline_of(bandwidth_cap_app(20)).compiled.total_rule_count()


def _bench_cap24_full_compile() -> None:
    _pipeline_of(bandwidth_cap_app(24)).compiled.total_rule_count()


# Warm base pipelines for the update-latency bench, keyed by app name
# and built on the harness's warm-up round, so the timed rounds pay only
# ``Pipeline.update`` itself -- the incremental recompile latency this
# bench tracks against the cold ``cap24_full_compile`` median.
_UPDATE_BASES: Dict[str, Pipeline] = {}


def _bench_cap24_update_latency() -> None:
    base = _UPDATE_BASES.get("cap24")
    if base is None:
        base = _pipeline_of(bandwidth_cap_app(24))
        base.compiled
        _UPDATE_BASES["cap24"] = base
    base.update(Delta(set_state=((0, 1),))).compiled


# A lazy module-level daemon for the warm-request bench, started (and
# warmed with one cold cap-24 compile) on the harness's warm-up round so
# the timed rounds pay the full HTTP round-trip of a warm request —
# client-side program serialization, the wire (one kept-alive
# connection), the server-side request fingerprint + index/memo hit, and
# the response encoding of the cached wire tables — but never a parse or
# a compile.  The server thread is a daemon; process exit reaps it.
_SERVICE: Dict[str, object] = {}


def _bench_cap24_service_warm_request() -> None:
    client = _SERVICE.get("client")
    if client is None:
        import threading

        from repro.service import ServiceClient, create_server

        server = create_server()
        threading.Thread(
            target=server.serve_forever, name="bench-service", daemon=True
        ).start()
        client = ServiceClient(server.base_url)
        _SERVICE["server"] = server
        _SERVICE["client"] = client
        _SERVICE["app"] = bandwidth_cap_app(24)
    app = _SERVICE["app"]
    client.compile(app.program, app.topology, app.initial_state)


# ETS-stage-only cases at depths the per-state walks made painful: the
# symbolic all-states engine keeps construction near-linear in the chain.
def _bench_cap28_ets_stage() -> None:
    app = bandwidth_cap_app(28)
    build_ets(app.program, app.initial_state)


def _bench_cap32_ets_stage() -> None:
    app = bandwidth_cap_app(32)
    build_ets(app.program, app.initial_state)


def _bench_wide_locality() -> None:
    nes = wide_structure(8, 2)
    minimally_inconsistent_sets(nes.structure)
    is_locally_determined(nes)


def _bench_trace_checker() -> None:
    app = firewall_app()
    rt = app.runtime(seed=0)
    for i in range(6):
        rt.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": i})
        rt.run_until_quiescent()
        rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 100 + i})
        rt.run_until_quiescent()
    trace = rt.network_trace()
    NESChecker(app.nes, app.topology).check(trace)


# The zero-overhead-uninstalled pin for repro.obs: hammer the three
# hot-path instrumentation entry points (span enter/exit, counter inc,
# histogram observe) with no registry or tracer installed.  Each site
# must cost one module-global read and an early return, so this median
# must not move when instrumentation is added to the codebase — compare
# it PR over PR like any other lane.
OBS_NOOP_ITERATIONS = 200_000


def _bench_obs_overhead_noop() -> None:
    assert obs_metrics.active() is None and obs_trace.active() is None
    span = obs_trace.span
    inc = obs_metrics.inc
    observe = obs_metrics.observe
    for _ in range(OBS_NOOP_ITERATIONS):
        with span("bench.noop"):
            pass
        inc("bench_noop_total")
        observe("bench_noop_seconds", 0.0)


def _bench_trie_heuristic() -> None:
    import random

    rng = random.Random(3)
    pool = [f"r{i}" for i in range(20)]
    configs = [
        frozenset(r for r in pool if rng.random() < 0.3) for _ in range(64)
    ]
    trie_rule_count(build_trie(heuristic_order(configs)))


# -- simulator events/sec lane ------------------------------------------------
#
# Unlike the compile benches above, these report a throughput (processed
# events per second of simulated traffic).  Each bench builds its
# scenario outside the timed region and times only ``net.run()``,
# returning ``(events_processed, elapsed_seconds)``; the harness folds
# rounds into a median and derives events/sec.  ``gc.collect()`` runs
# between rounds so one round's garbage does not tax the next.


def _stream_net(app, header, src, count, spacing):
    from repro.network import CorrectLogic, FrameBatch, SimNetwork

    net = SimNetwork(app.topology, CorrectLogic(app.compiled), seed=7)
    net.inject_stream(
        src,
        FrameBatch(
            header,
            count,
            payload_bytes=64,
            flow=("bulk", src),
            spacing=spacing,
        ),
    )
    return net


def _timed_run(net) -> Tuple[int, float]:
    start = time.perf_counter()
    net.run()
    return net.sim.events_processed, time.perf_counter() - start


RING_STREAM_FRAMES = 100_000


def _bench_sim_events_ring() -> Tuple[int, float]:
    header = {
        "ip_src": HOSTS["H1"],
        "ip_dst": HOSTS["H2"],
        "kind": 0,
        "ident": 0,
    }
    net = _stream_net(ring_app(2), header, "H1", RING_STREAM_FRAMES, 1e-6)
    return _timed_run(net)


def _bench_sim_events_cap() -> Tuple[int, float]:
    header = {
        "ip_src": HOSTS["H1"],
        "ip_dst": HOSTS["H4"],
        "kind": 0,
        "ident": 0,
    }
    net = _stream_net(bandwidth_cap_app(10), header, "H1", 20_000, 1e-6)
    return _timed_run(net)


# The firewall trace is a pure function of the seeded scenario; build it
# once and hand each round a fresh checker (the memoized configurations
# are what a warm controller would hold, the checker state is not).
_TRACE_CACHE: Dict[str, object] = {}


def _bench_trace_check_throughput() -> Tuple[int, float]:
    trace = _TRACE_CACHE.get("firewall")
    if trace is None:
        app = firewall_app()
        rt = app.runtime(seed=0)
        for i in range(6):
            rt.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": i})
            rt.run_until_quiescent()
            rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 100 + i})
            rt.run_until_quiescent()
        trace = rt.network_trace()
        _TRACE_CACHE["firewall"] = trace
        _TRACE_CACHE["app"] = app
    app = _TRACE_CACHE["app"]
    checker = NESChecker(app.nes, app.topology)
    start = time.perf_counter()
    report = checker.check(trace)
    elapsed = time.perf_counter() - start
    assert report
    return len(trace.packets), elapsed


SIM_BENCHES: Tuple[Tuple[str, Callable[[], Tuple[int, float]]], ...] = (
    ("sim_events_per_sec_ring", _bench_sim_events_ring),
    ("sim_events_per_sec_cap", _bench_sim_events_cap),
    ("trace_check_throughput", _bench_trace_check_throughput),
)


def run_sim(rounds: int) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in SIM_BENCHES:
        fn()  # warm-up round (app compile caches, interned structures)
        times: List[float] = []
        units = 0
        for _ in range(rounds):
            gc.collect()
            units, elapsed = fn()
            times.append(elapsed)
        median = statistics.median(times)
        results[name] = {
            "median_s": round(median, 6),
            "min_s": round(min(times), 6),
            "units": units,
            "events_per_sec": round(units / median, 1),
            "rounds": rounds,
        }
        print(
            f"{name:32s} median {median:.6f}s  "
            f"{results[name]['events_per_sec']:>12,.0f} ev/s"
        )
    return results


BENCHES: Tuple[Tuple[str, Callable[[], None]], ...] = (
    ("fdd_compile", _bench_fdd_compile),
    ("fdd_union", _bench_fdd_union),
    ("full_app_compile_ids", _bench_full_app_compile_ids),
    ("cap_chain_nes_conversion_20", _bench_cap_chain_nes_conversion),
    ("cap20_full_compile", _bench_cap20_full_compile),
    ("cap24_full_compile", _bench_cap24_full_compile),
    ("cap24_update_latency", _bench_cap24_update_latency),
    ("cap24_service_warm_request", _bench_cap24_service_warm_request),
    ("cap28_ets_stage", _bench_cap28_ets_stage),
    ("cap32_ets_stage", _bench_cap32_ets_stage),
    ("wide_locality_8x2", _bench_wide_locality),
    ("trace_checker_firewall", _bench_trace_checker),
    ("trie_heuristic_64x20", _bench_trie_heuristic),
    ("obs_overhead_noop", _bench_obs_overhead_noop),
)


def run(rounds: int) -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in BENCHES:
        fn()  # warm-up round (imports, module-level caches)
        times: List[float] = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        results[name] = {
            "median_s": round(statistics.median(times), 6),
            "min_s": round(min(times), 6),
            "rounds": rounds,
        }
        print(f"{name:32s} median {results[name]['median_s']:.6f}s")
    return results


# Apps whose staged (ets/nes/compile) timings are recorded per stage,
# including the ets symbolic-vs-instantiate substage split.
PIPELINE_STAGE_APPS: Tuple[Tuple[str, Callable[[], object]], ...] = (
    ("ids", ids_app),
    ("cap20", lambda: bandwidth_cap_app(20)),
    ("cap24", lambda: bandwidth_cap_app(24)),
)


def run_pipeline_stages(rounds: int) -> Dict[str, Dict[str, float]]:
    """Median per-stage pipeline wall-clock times, per app."""
    out: Dict[str, Dict[str, float]] = {}
    for name, make in PIPELINE_STAGE_APPS:
        samples: Dict[str, List[float]] = {}
        _pipeline_of(make()).compiled  # warm-up round, like run()
        for _ in range(rounds):
            pipeline = _pipeline_of(make())
            pipeline.compiled
            report = pipeline.report()
            for stage, seconds in report.stage_seconds + report.substages:
                samples.setdefault(stage, []).append(seconds)
        out[name] = {
            f"{stage}_median_s": round(statistics.median(times), 6)
            for stage, times in samples.items()
            if times
        }
        summary = "  ".join(f"{k} {v:.6f}s" for k, v in out[name].items())
        print(f"pipeline[{name:6s}] {summary}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="3 rounds per bench instead of 7"
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_compiler_perf.json"),
        help="output JSON path (default: repo root)",
    )
    args = parser.parse_args()
    rounds = 3 if args.quick else 7
    results = run(rounds)
    stages = run_pipeline_stages(rounds)
    sim = run_sim(rounds)
    payload = {
        "suite": "compiler_perf",
        "python": platform.python_version(),
        "rounds": rounds,
        "benches": results,
        "pipeline_stages": stages,
        "sim_benches": sim,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
