"""Tests for the operational semantics (Figure 7) and its compiler:
tags, digests, event detection, per-packet consistency, and the
application-level behaviors of all five case studies."""

import pytest

from repro.apps import (
    authentication_app,
    bandwidth_cap_app,
    firewall_app,
    ids_app,
    learning_switch_app,
)
from repro.runtime.compiler import TAG_FIELD, LocalityError
from repro.runtime.semantics import Runtime, RuntimeInvariantError

from seed_apps import APPS


H1, H2, H3, H4 = 1, 2, 3, 4


class TestCompiledNES:
    def test_tag_encoding_roundtrip(self):
        # A frame carries only the masks and the reference logic decodes
        # them on entry and encodes them on exit, so both directions must
        # be exact on every seed app.
        for name, make_app in APPS:
            compiled = make_app().compiled
            structure = compiled.nes.structure
            for event_set in compiled.nes.event_sets():
                mask = structure.encode(event_set)
                assert structure.decode(mask) == event_set, name
            for mask in range(1 << len(structure.universe)):
                assert structure.encode(structure.decode(mask)) == mask, name

    def test_distinct_tags_per_state(self):
        compiled = firewall_app().compiled
        assert len(set(compiled.config_ids.values())) == len(compiled.states)

    def test_guarded_tables_have_tag_guards(self):
        compiled = firewall_app().compiled
        for table in compiled.guarded_tables().values():
            for rule in table:
                assert rule.match.get(TAG_FIELD) is not None

    def test_rule_counts_add_up(self):
        compiled = firewall_app().compiled
        assert (
            compiled.total_rule_count()
            == compiled.forwarding_rule_count() + compiled.stamp_rule_count()
        )

    def test_locality_enforced(self):
        """A non-locally-determined NES is refused by the compile stage."""
        from repro.netkat.ast import filter_, seq, union
        from repro.pipeline import Pipeline
        from repro.stateful.ast import link_update, state_eq
        from repro.topology import star_topology

        # Two conflicting events at different switches (program P1).
        prog = union(
            seq(filter_(state_eq([0])), link_update("4:1", "1:1", [1])),
            seq(filter_(state_eq([0])), link_update("4:3", "2:1", [2])),
        )
        with pytest.raises(LocalityError):
            Pipeline(prog, star_topology(), (0,)).compiled

    def test_locality_enforcement_can_be_disabled(self):
        """The artifact itself does not check locality: only the
        pipeline's compile stage refuses."""
        from repro.netkat.ast import filter_, seq, union
        from repro.netkat.compiler import compile_policy
        from repro.pipeline import Pipeline
        from repro.runtime.compiler import CompiledNES
        from repro.stateful.ast import link_update, state_eq
        from repro.topology import star_topology

        prog = union(
            seq(filter_(state_eq([0])), link_update("4:1", "1:1", [1])),
            seq(filter_(state_eq([0])), link_update("4:3", "2:1", [2])),
        )
        pipeline = Pipeline(prog, star_topology(), (0,))
        with pytest.raises(LocalityError):
            pipeline.compiled
        nes = pipeline.nes
        compiled = CompiledNES(nes, star_topology(), {
            state: compile_policy(nes.configuration_policy(state), star_topology())
            for state in nes.configuration_states()
        })
        assert len(compiled.states) == len(nes.configuration_states())


class TestFirewallRuntime:
    def test_blocked_before_event(self):
        rt = firewall_app().runtime()
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        rt.run_until_quiescent()
        assert len(rt.state.dropped) == 1 and not rt.state.delivered

    def test_event_opens_reverse_path(self):
        rt = firewall_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.run_until_quiescent()
        assert len(rt.state.delivered) == 1
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        rt.run_until_quiescent()
        assert len(rt.state.delivered) == 2

    def test_event_recorded_at_s4(self):
        rt = firewall_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.run_until_quiescent()
        assert len(rt.state.switch(4).known_events) == 1
        # s1 has not heard yet: no packet flowed back
        assert not rt.state.switch(1).known_events

    def test_digest_gossip_reaches_s1(self):
        rt = firewall_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.run_until_quiescent()
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        rt.run_until_quiescent()
        # the reply carried the digest to s1
        assert len(rt.state.switch(1).known_events) == 1

    def test_event_reported_to_controller_queue(self):
        rt = firewall_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.run_until_quiescent()
        assert len(rt.state.controller_queue | rt.state.controller) == 1

    def test_drain_controller(self):
        rt = firewall_app().runtime(controller_assist=True)
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.run_until_quiescent()
        rt.drain_controller()
        # with assist, every switch now knows the event
        for switch in rt.state.switches.values():
            assert len(switch.known_events) == 1

    def test_per_packet_consistency_tag_fixed_at_ingress(self):
        """A packet stamped in Ci keeps using Ci even after the event."""
        rt = firewall_app().runtime()
        packet = rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        assert packet.tag == frozenset()
        rt.run_until_quiescent()


class TestLearningSwitchRuntime:
    def test_flooding_before_learning(self):
        rt = learning_switch_app().runtime()
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        rt.run_until_quiescent()
        hosts = sorted(
            rt.compiled.topology.host_at(loc).name for loc, _ in rt.state.delivered
        )
        assert hosts == ["H1", "H2"]  # flooded to both

    def test_point_to_point_after_learning(self):
        rt = learning_switch_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})  # the learning event
        rt.run_until_quiescent()
        before = len(rt.state.delivered)
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        rt.run_until_quiescent()
        new = rt.state.delivered[before:]
        hosts = sorted(rt.compiled.topology.host_at(loc).name for loc, _ in new)
        assert hosts == ["H1"]  # no more flooding


class TestAuthenticationRuntime:
    def knock(self, rt, dst):
        rt.inject("H4", {"ip_dst": dst, "ip_src": H4})
        rt.run_until_quiescent()

    def reply(self, rt, src):
        rt.inject(f"H{src}", {"ip_dst": H4, "ip_src": src})
        rt.run_until_quiescent()

    def test_h3_blocked_initially(self):
        rt = authentication_app().runtime()
        self.knock(rt, H3)
        assert not rt.state.delivered

    def test_knock_sequence_grants_access(self):
        rt = authentication_app().runtime()
        self.knock(rt, H1)
        self.reply(rt, H1)  # reply carries the digest back to s4
        self.knock(rt, H2)
        self.reply(rt, H2)
        before = len(rt.state.delivered)
        self.knock(rt, H3)
        assert len(rt.state.delivered) == before + 1

    def test_wrong_order_does_not_unlock(self):
        rt = authentication_app().runtime()
        self.knock(rt, H2)  # H2 first: no event in state [0]
        self.knock(rt, H3)
        assert not any(
            rt.compiled.topology.host_at(loc).name == "H3"
            for loc, _ in rt.state.delivered
        )


class TestBandwidthCapRuntime:
    def exchange(self, rt):
        """One full ping: H1->H4 then H4->H1 reply; count reply delivery."""
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.run_until_quiescent()
        before = len(rt.state.delivered)
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        rt.run_until_quiescent()
        return len(rt.state.delivered) > before

    @pytest.mark.parametrize("cap", [1, 3, 5])
    def test_exactly_cap_replies_allowed(self, cap):
        rt = bandwidth_cap_app(cap).runtime()
        successes = sum(1 for _ in range(cap + 3) if self.exchange(rt))
        assert successes == cap

    def test_outgoing_still_allowed_after_cap(self):
        cap = 2
        rt = bandwidth_cap_app(cap).runtime()
        for _ in range(cap + 2):
            self.exchange(rt)
        outgoing = [
            1
            for loc, _ in rt.state.delivered
            if rt.compiled.topology.host_at(loc).name == "H4"
        ]
        assert len(outgoing) == cap + 2  # requests keep flowing


class TestIDSRuntime:
    def contact(self, rt, dst, with_reply=True):
        rt.inject("H4", {"ip_dst": dst, "ip_src": H4})
        rt.run_until_quiescent()
        if with_reply:
            rt.inject(f"H{dst}", {"ip_dst": H4, "ip_src": dst})
            rt.run_until_quiescent()

    def delivered_to(self, rt, name):
        return sum(
            1
            for loc, _ in rt.state.delivered
            if rt.compiled.topology.host_at(loc).name == name
        )

    def test_all_hosts_reachable_initially(self):
        rt = ids_app().runtime()
        for dst in (H3, H2, H1):
            self.contact(rt, dst, with_reply=False)
        assert self.delivered_to(rt, "H3") == 1
        assert self.delivered_to(rt, "H2") == 1
        assert self.delivered_to(rt, "H1") == 1

    def test_scan_signature_blocks_h3(self):
        rt = ids_app().runtime()
        self.contact(rt, H1)  # event 1
        self.contact(rt, H2)  # event 2 (scan detected)
        before = self.delivered_to(rt, "H3")
        self.contact(rt, H3, with_reply=False)
        assert self.delivered_to(rt, "H3") == before  # blocked

    def test_benign_order_keeps_h3_open(self):
        rt = ids_app().runtime()
        self.contact(rt, H2)  # H2 before H1: not the signature
        self.contact(rt, H3, with_reply=False)
        assert self.delivered_to(rt, "H3") == 1


class TestRuntimeInvariants:
    def test_trace_extraction_covers_everything(self):
        rt = firewall_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
        rt.run_until_quiescent()
        trace = rt.network_trace()
        assert len(trace.trace_indices) == 2

    def test_pending_packets_counted(self):
        rt = firewall_app().runtime()
        rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
        assert rt.state.total_pending() == 1
        assert not rt.state.quiescent()
        rt.run_until_quiescent()
        assert rt.state.quiescent()

    def test_fifo_policy_deterministic(self):
        def run():
            rt = firewall_app().runtime()
            rt.inject("H1", {"ip_dst": H4, "ip_src": H1})
            rt.inject("H4", {"ip_dst": H1, "ip_src": H4})
            rt.run_until_quiescent(policy="fifo")
            return [repr(p) for p in rt.network_trace().packets]

        assert run() == run()

    def test_unknown_host_rejected(self):
        rt = firewall_app().runtime()
        with pytest.raises(KeyError):
            rt.inject("H9", {"ip_dst": 1})
