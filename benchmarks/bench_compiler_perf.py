"""Compiler performance microbenchmarks (timed, multi-round).

Unlike the figure benches (single-shot scenario reproductions), these
use pytest-benchmark's statistical timing to track the toolchain's
hot paths: FDD construction, full app compilation, NES conversion, the
trace checker, and the uninstalled cost of the ``repro.obs`` sites; one
untimed lane pins the union operands a policy update compiles.
They guard against performance regressions in the substrate the
reproductions run on.
"""

import random

import pytest

from repro.apps import bandwidth_cap_app, firewall_app, ids_app, ring_app
from repro.consistency.checker import NESChecker
from repro.events.ets_to_nes import nes_of_ets
from repro.netkat import compiler as netkat_compiler
from repro.netkat.ast import assign, conj, filter_, seq, test as field_test, union
from repro.netkat.fdd import FDDBuilder
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.optimize.trie import heuristic_order, build_trie, trie_rule_count
from repro.pipeline import Delta, Pipeline
from repro.service.protocol import tables_to_wire
from repro.stateful.ets import build_ets


def random_link_free_policy(seed: int, branches: int = 24):
    rng = random.Random(seed)
    parts = []
    for _ in range(branches):
        tests = [
            filter_(field_test(f, rng.randrange(4)))
            for f in rng.sample(["a", "b", "c", "d"], k=rng.randint(1, 3))
        ]
        mods = [
            assign(f, rng.randrange(4))
            for f in rng.sample(["a", "b", "c", "d"], k=rng.randint(1, 2))
        ]
        parts.append(seq(*tests, *mods))
    return union(*parts)


def test_fdd_compilation_speed(benchmark):
    policy = random_link_free_policy(seed=7)

    def compile_once():
        return FDDBuilder().of_policy(policy)

    d = benchmark(compile_once)
    assert d is not None


def test_fdd_union_speed(benchmark):
    p = random_link_free_policy(seed=1, branches=16)
    q = random_link_free_policy(seed=2, branches=16)

    def union_fdds():
        b = FDDBuilder()
        return b.union(b.of_policy(p), b.of_policy(q))

    assert benchmark(union_fdds) is not None


def test_full_app_compile_speed(benchmark):
    """Program -> ETS -> NES -> guarded tables for the IDS case study."""

    def pipeline():
        app = ids_app()
        return app.compiled.total_rule_count()

    assert benchmark(pipeline) > 0


def test_cap_chain_nes_conversion_speed(benchmark):
    """The renaming-heavy conversion: a 20-deep event chain."""
    app = bandwidth_cap_app(20)
    ets = app.ets

    def convert():
        return nes_of_ets(ets)

    nes = benchmark(convert)
    assert len(nes.events) == 21


def test_policy_update_compiles_only_the_touched_operands(monkeypatch):
    """Untimed: a ring8 reply-path update looks up the 5 union operands
    of its two changed configuration policies and compiles only the one
    the delta rewrote (both policies hold it); its tables are a cold
    rebuild's."""
    app = ring_app(8)
    base = Pipeline(app.program, app.topology, app.initial_state)
    base.compiled
    old = filter_(conj(field_test("pt", 3), field_test("ip_dst", 1)))
    delta = Delta(
        replace_policy=old,
        with_policy=filter_(conj(field_test("pt", 3), field_test("ip_dst", 11))),
    )
    traffic = {"lookups": 0, "compiles": 0}
    split = netkat_compiler._union_operands
    compile_operand = netkat_compiler._compile_operand

    def looked_up(policy):
        operands = split(policy)
        traffic["lookups"] += len(operands)
        return operands

    def compiled(*args):
        traffic["compiles"] += 1
        return compile_operand(*args)

    monkeypatch.setattr(netkat_compiler, "_union_operands", looked_up)
    monkeypatch.setattr(netkat_compiler, "_compile_operand", compiled)
    updated = base.update(delta).compiled
    assert traffic == {"lookups": 5, "compiles": 1}
    monkeypatch.undo()
    cold = Pipeline(
        delta.apply_program(app.program), app.topology, app.initial_state
    ).compiled
    assert tables_to_wire(updated) == tables_to_wire(cold)


def test_trace_checker_speed(benchmark):
    """Definition 6 checking of a moderately long runtime trace."""
    app = firewall_app()
    rt = app.runtime(seed=0)
    for i in range(6):
        rt.inject("H1", {"ip_dst": 4, "ip_src": 1, "ident": i})
        rt.run_until_quiescent()
        rt.inject("H4", {"ip_dst": 1, "ip_src": 4, "ident": 100 + i})
        rt.run_until_quiescent()
    trace = rt.network_trace()
    checker = NESChecker(app.nes, app.topology)

    report = benchmark(checker.check, trace)
    assert report.correct


def test_trie_heuristic_speed(benchmark):
    rng = random.Random(3)
    pool = [f"r{i}" for i in range(20)]
    configs = [
        frozenset(r for r in pool if rng.random() < 0.3) for _ in range(64)
    ]

    def optimize():
        return trie_rule_count(build_trie(heuristic_order(configs)))

    assert benchmark(optimize) > 0


# The zero-overhead-uninstalled pin for repro.obs: hammer the three
# hot-path instrumentation entry points (span enter/exit, counter inc,
# histogram observe) with no registry or tracer installed.  Each site
# must cost one module-global read and an early return, so this median
# must not move when instrumentation is added to the codebase.
OBS_NOOP_ITERATIONS = 200_000


def test_obs_overhead_noop(benchmark):
    assert obs_metrics.active() is None and obs_trace.active() is None
    span = obs_trace.span
    inc = obs_metrics.inc
    observe = obs_metrics.observe

    def hammer():
        for _ in range(OBS_NOOP_ITERATIONS):
            with span("bench.noop"):
                pass
            inc("bench_noop_total")
            observe("bench_noop_seconds", 0.0)

    benchmark(hammer)
