"""The converse of Theorem 1: executions that ignore the event-driven
machinery produce traces the Definition 6 checker *rejects*.

We model a worst-case uncoordinated runtime inside the untimed
operational semantics: switches forward with whatever configuration the
controller last installed (initially C0, never updated within the test
window), with no tags or digests.  The firewall workload then yields a
"update happened too late" trace, and a prematurely-updated variant
yields "too early" -- demonstrating the checker separates correct from
incorrect implementations in both directions.
"""

import dataclasses


from repro.apps import bandwidth_cap_app, firewall_app
from repro.consistency.checker import NESChecker
from repro.netkat.packet import Location
from repro.runtime.semantics import Runtime

H1, H4 = 1, 4


class StaleConfigRuntime(Runtime):
    """Forwards every packet with a fixed installed configuration,
    regardless of tags -- an uncoordinated switch before the push."""

    def __init__(self, compiled, installed_event_set=frozenset(), seed=0):
        super().__init__(compiled, seed=seed)
        self._installed = frozenset(installed_event_set)

    def _step_switch(self, switch_id, port):
        switch = self.state.switch(switch_id)
        packet = switch.in_queues[port].popleft()
        location = Location(switch_id, port)
        # Event detection still happens (the paper's uncoordinated
        # controller is notified), but forwarding uses the stale table.
        structure = self.compiled.nes.structure
        known = frozenset(switch.known_events) | packet.digest
        for event in sorted(self.compiled.nes.events, key=repr):
            if (
                event not in known
                and event.matches_packet(packet.packet, location)
                and structure.enables(known, event)
                and structure.con(known | {event})
            ):
                switch.known_events.add(event)
                break
        config = self.compiled.config_for_event_set(self._installed)
        outputs = config.table(switch_id).apply(packet.packet.at(location))
        if not outputs:
            self.recorder.finish(packet.trace_path)
            self.state.dropped.append((location, packet))
            return
        for out_packet in sorted(outputs, key=repr):
            egress = Location(switch_id, out_packet["pt"])
            index = self.recorder.record(out_packet, egress)
            child = dataclasses.replace(
                packet, packet=out_packet.at(egress), trace_path=packet.trace_path + (index,)
            )
            switch.enqueue_out(egress.port, child)


class TestTooLateViolation:
    def test_stale_firewall_trace_rejected(self):
        """H1 contacts H4 (the event fires at s4), then H4's reply is
        dropped because s4 still runs C0: 'too late'."""
        app = firewall_app()
        rt = StaleConfigRuntime(app.compiled)
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1})
        rt.run_until_quiescent(policy="fifo")
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4, "ident": 2})
        rt.run_until_quiescent(policy="fifo")
        report = NESChecker(app.nes, app.topology).check(rt.network_trace())
        assert not report
        assert "too late" in report.reason or "no configuration" in report.reason

    def test_stale_cap_exceeds_budget(self):
        """With C0 pinned, the cap never closes: replies keep flowing
        past the budget, and the trace is incorrect."""
        cap = 2
        app = bandwidth_cap_app(cap)
        rt = StaleConfigRuntime(app.compiled)
        for i in range(cap + 2):
            rt.inject("H1", {"ip_dst": H4, "ip_src": H1, "ident": i})
            rt.run_until_quiescent(policy="fifo")
            rt.inject("H4", {"ip_dst": H1, "ip_src": H4, "ident": 100 + i})
            rt.run_until_quiescent(policy="fifo")
        # All cap+2 replies delivered: more than the cap allows.
        deliveries_to_h1 = sum(
            1
            for loc, _ in rt.state.delivered
            if app.topology.host_at(loc).name == "H1"
        )
        assert deliveries_to_h1 == cap + 2
        report = NESChecker(app.nes, app.topology).check(rt.network_trace())
        assert not report


class TestTooEarlyViolation:
    def test_premature_firewall_trace_rejected(self):
        """A runtime running Cf from the start delivers H4's packet
        before any event: 'too early'."""
        app = firewall_app()
        final = frozenset(app.nes.events)
        rt = StaleConfigRuntime(app.compiled, installed_event_set=final)
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1})
        rt.run_until_quiescent(policy="fifo")
        report = NESChecker(app.nes, app.topology).check(rt.network_trace())
        assert not report


class TestCorrectRuntimeContrast:
    def test_same_workloads_pass_with_real_runtime(self):
        """Sanity: the identical workloads are correct under the real
        tag-based runtime."""
        app = firewall_app()
        rt = app.runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1})
        rt.run_until_quiescent()
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4, "ident": 2})
        rt.run_until_quiescent()
        report = NESChecker(app.nes, app.topology).check(rt.network_trace())
        assert report, report.reason
