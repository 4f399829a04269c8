"""Empirical Theorem 1: every execution of the implementation yields a
network trace that is correct with respect to the NES (Definition 6).

Random seeded interleavings of the operational semantics are run for
every case study, with workloads chosen to exercise the apps' event
transitions; each resulting trace goes through the Definition 6 checker.
"""

import pytest

from repro.apps import (
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    learning_switch_app,
)
from repro.consistency.checker import NESChecker

H1, H2, H3, H4 = 1, 2, 3, 4

SEEDS = [0, 1, 2, 7, 13, 42]


def run_workload(app, injections, seed, controller_assist=False, interleaved=False):
    """Inject packets and run; ``interleaved`` injects all up front so the
    scheduler can interleave them arbitrarily."""
    rt = app.runtime(seed=seed, controller_assist=controller_assist)
    if interleaved:
        for host, fields in injections:
            rt.inject(host, fields)
        rt.run_until_quiescent()
    else:
        for host, fields in injections:
            rt.inject(host, fields)
            rt.run_until_quiescent()
    rt.drain_controller()
    return rt.network_trace()


FIREWALL_WORKLOADS = [
    [("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1})],
    [
        ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1}),
        ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 2}),
    ],
    [
        ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1}),
        ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 2}),
        ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 3}),
        ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 4}),
    ],
]


class TestFirewallTheorem1:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workload", range(len(FIREWALL_WORKLOADS)))
    def test_sequential_traces_correct(self, seed, workload):
        app = firewall_app()
        trace = run_workload(app, FIREWALL_WORKLOADS[workload], seed)
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_traces_correct(self, seed):
        """Packets racing through arbitrary interleavings stay correct."""
        app = firewall_app()
        trace = run_workload(
            app, FIREWALL_WORKLOADS[2], seed, interleaved=True
        )
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_with_controller_assist(self, seed):
        app = firewall_app()
        trace = run_workload(
            app, FIREWALL_WORKLOADS[1], seed, controller_assist=True
        )
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason


class TestLearningSwitchTheorem1:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_flood_then_learn(self, seed):
        app = learning_switch_app()
        workload = [
            ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1}),
            ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 2}),
            ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 3}),
        ]
        trace = run_workload(app, workload, seed)
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_interleaved(self, seed):
        app = learning_switch_app()
        workload = [
            ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1}),
            ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 2}),
        ]
        trace = run_workload(app, workload, seed, interleaved=True)
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason


class TestAuthenticationTheorem1:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_knock_sequence(self, seed):
        app = authentication_app()
        workload = [
            ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1}),
            ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 2}),
            ("H4", {"ip_dst": H2, "ip_src": H4, "ident": 3}),
            ("H2", {"ip_dst": H4, "ip_src": H2, "ident": 4}),
            ("H4", {"ip_dst": H3, "ip_src": H4, "ident": 5}),
        ]
        trace = run_workload(app, workload, seed)
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason


class TestBandwidthCapTheorem1:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_cap_chain(self, seed):
        app = bandwidth_cap_app(2)
        workload = []
        for i in range(4):
            workload.append(("H1", {"ip_dst": H4, "ip_src": H1, "ident": i}))
            workload.append(("H4", {"ip_dst": H1, "ip_src": H4, "ident": 100 + i}))
        trace = run_workload(app, workload, seed)
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason

    @pytest.mark.parametrize("cap", [14, 16])
    def test_chain_longer_than_twelve_events(self, cap):
        """One exchange per event of the chain: the only sequence that
        explains the trace is as long as the chain, and the search has
        to reach it (a search cut at twelve events reported the correct
        trace incorrect)."""
        app = bandwidth_cap_app(cap)
        workload = []
        for i in range(cap):
            workload.append(("H1", {"ip_dst": H4, "ip_src": H1, "ident": i}))
            workload.append(("H4", {"ip_dst": H1, "ip_src": H4, "ident": 100 + i}))
        trace = run_workload(app, workload, seed=1)
        checker = NESChecker(app.nes, app.topology)
        report = checker.check(trace)
        assert report, report.reason
        assert checker.sequences_tried == cap

    def test_search_bound_is_gone(self):
        app = bandwidth_cap_app(2)
        with pytest.raises(TypeError, match="max_sequence_length"):
            NESChecker(app.nes, app.topology, max_sequence_length=12)
        assert not hasattr(NESChecker(app.nes, app.topology), "max_sequence_length")


class TestIDSTheorem1:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_scan_sequence(self, seed):
        app = ids_app()
        workload = [
            ("H4", {"ip_dst": H3, "ip_src": H4, "ident": 1}),
            ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 2}),
            ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 3}),
            ("H4", {"ip_dst": H2, "ip_src": H4, "ident": 4}),
            ("H2", {"ip_dst": H4, "ip_src": H2, "ident": 5}),
            ("H4", {"ip_dst": H3, "ip_src": H4, "ident": 6}),
        ]
        trace = run_workload(app, workload, seed)
        report = NESChecker(app.nes, app.topology).check(trace)
        assert report, report.reason
