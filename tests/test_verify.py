"""Tests for the verification extras: exhaustive interleaving
exploration (bounded Theorem 1) and table equivalence; the policy,
configuration and per-state laws are checked on the canonical FDDs and
per-switch tables they rest on."""


from repro.apps import bandwidth_cap_app, firewall_app, learning_switch_app
from repro.netkat.ast import (
    ID,
    assign,
    filter_,
    link,
    neg,
    seq,
    star,
    test as field_test,
    union,
)
from repro.netkat.compiler import compile_policy
from repro.netkat.flowtable import FlowTable, Match, Rule
from repro.netkat.fdd import FDDBuilder, mod_of
from repro.runtime.model import RuntimePacket
from repro.runtime.semantics import Runtime
from repro.stateful.ast import state_eq
from repro.stateful.projection import project
from repro.topology import firewall_topology
from repro.verify import explore_all_interleavings, tables_equivalent

H1, H4 = 1, 4


def policies_equivalent(p, q):
    """``p == q`` for link-free policies: FDDs are hash-consed over a
    fixed field order, so semantic equality is node identity."""
    builder = FDDBuilder()
    return builder.of_policy(p) is builder.of_policy(q)


def predicates_equivalent(a, b):
    builder = FDDBuilder()
    return builder.of_predicate(a) is builder.of_predicate(b)


def configurations_equivalent(c1, c2):
    """Same switches, and every switch's tables behave alike."""
    return c1.topology.switches == c2.topology.switches and all(
        tables_equivalent(c1.table(switch), c2.table(switch))
        for switch in c1.topology.switches
    )


def states_where_projections_differ(p, q, states):
    return [
        state
        for state in states
        if not policies_equivalent(project(p, state), project(q, state))
    ]


class TestExhaustiveExploration:
    def test_firewall_two_packet_race(self):
        app = firewall_app()
        result = explore_all_interleavings(
            app,
            [
                ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1}),
                ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 2}),
            ],
        )
        assert result.all_correct
        assert result.states_visited > 1
        assert result.truncated == 0

    def test_firewall_three_packet_race(self):
        app = firewall_app()
        result = explore_all_interleavings(
            app,
            [
                ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1}),
                ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 2}),
                ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 3}),
            ],
        )
        assert result.all_correct

    def test_learning_switch_race(self):
        app = learning_switch_app()
        result = explore_all_interleavings(
            app,
            [
                ("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1}),
                ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 2}),
            ],
        )
        assert result.all_correct

    def test_bandwidth_cap_race(self):
        app = bandwidth_cap_app(1)
        result = explore_all_interleavings(
            app,
            [
                ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1}),
                ("H1", {"ip_dst": H4, "ip_src": H1, "ident": 2}),
            ],
        )
        assert result.all_correct

    def test_with_controller_transitions(self):
        app = firewall_app()
        result = explore_all_interleavings(
            app,
            [("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1})],
            include_controller=True,
        )
        assert result.all_correct

    def test_depth_bound_reported(self):
        app = firewall_app()
        result = explore_all_interleavings(
            app,
            [("H1", {"ip_dst": H4, "ip_src": H1, "ident": 1})],
            max_depth=1,
        )
        assert result.truncated > 0

    def test_buggy_runtime_caught(self):
        """A runtime that stamps packets with the *final* configuration
        before the event occurs violates 'not too early' -- the explorer
        must find it."""
        app = firewall_app()
        full_event_set = frozenset(app.nes.events)

        class PrematureStampRuntime(Runtime):
            def inject(self, host_name, fields):
                packet = super().inject(host_name, fields)
                # Override the tag to the final event-set: pretend the
                # update already happened everywhere.
                switch = self.state.switch(
                    self.topology.host(host_name).attachment.switch
                )
                queue = switch.in_queues[
                    self.topology.host(host_name).attachment.port
                ]
                stamped = RuntimePacket(
                    packet.packet, full_event_set, packet.digest, packet.trace_path
                )
                queue[-1] = stamped
                return stamped

        result = explore_all_interleavings(
            app,
            [("H4", {"ip_dst": H1, "ip_src": H4, "ident": 1})],
            runtime_factory=lambda: PrematureStampRuntime(app.compiled, seed=0),
        )
        assert not result.all_correct
        assert result.violations


class TestPolicyEquivalence:
    def test_reflexivity(self):
        p = seq(filter_(field_test("a", 1)), assign("b", 2))
        assert policies_equivalent(p, p)

    def test_union_commutativity(self):
        p, q = assign("a", 1), assign("a", 2)
        assert policies_equivalent(union(p, q), union(q, p))

    def test_seq_distributivity(self):
        a, p, q = filter_(field_test("x", 1)), assign("a", 1), assign("a", 2)
        lhs = seq(a, union(p, q))
        rhs = union(seq(a, p), seq(a, q))
        assert policies_equivalent(lhs, rhs)

    def test_test_absorption(self):
        """a; a = a for tests."""
        a = filter_(field_test("x", 1))
        assert policies_equivalent(seq(a, a), a)

    def test_assign_then_test_same_value(self):
        """f<-1; f=1 = f<-1."""
        assert policies_equivalent(
            seq(assign("f", 1), filter_(field_test("f", 1))), assign("f", 1)
        )

    def test_inequivalent_detected(self):
        assert not policies_equivalent(assign("a", 1), assign("a", 2))

    def test_star_unrolling(self):
        p = seq(filter_(field_test("a", 0)), assign("a", 1))
        assert policies_equivalent(star(p), union(ID, p))  # p;p = drop here

    def test_predicate_de_morgan(self):
        a, b = field_test("x", 1), field_test("y", 2)
        assert predicates_equivalent(neg(a & b), neg(a) | neg(b))

    def test_predicate_excluded_middle_on_finite_domain(self):
        a = field_test("x", 1)
        assert predicates_equivalent(a | neg(a), filter_(ID.predicate).predicate)


class TestTableEquivalence:
    def test_priority_shuffle_equivalent(self):
        r1 = Rule(10, Match({"a": 1}), frozenset({mod_of({"out": 1})}))
        r2 = Rule(5, Match({"b": 2}), frozenset({mod_of({"out": 2})}))
        t1 = FlowTable([r1, r2])
        t2 = FlowTable([Rule(7, r1.match, r1.actions), Rule(3, r2.match, r2.actions)])
        assert tables_equivalent(t1, t2)

    def test_overlap_priority_matters(self):
        specific = Rule(10, Match({"a": 1, "b": 1}), frozenset({mod_of({"out": 1})}))
        general = Rule(5, Match({"a": 1}), frozenset({mod_of({"out": 2})}))
        t1 = FlowTable([specific, general])
        # swapped priorities: the general rule shadows the specific one
        t2 = FlowTable(
            [
                Rule(5, specific.match, specific.actions),
                Rule(10, general.match, general.actions),
            ]
        )
        assert not tables_equivalent(t1, t2)

    def test_redundant_rule_equivalent(self):
        r = Rule(10, Match({"a": 1}), frozenset({mod_of({"out": 1})}))
        shadowed = Rule(5, Match({"a": 1}), frozenset({mod_of({"out": 9})}))
        assert tables_equivalent(FlowTable([r]), FlowTable([r, shadowed]))

    def test_empty_tables_equivalent(self):
        assert tables_equivalent(FlowTable(), FlowTable())


class TestConfigurationEquivalence:
    def test_same_policy_compiles_equivalent(self):
        topo = firewall_topology()
        p = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 4)),
            assign("pt", 1),
            link("1:1", "4:1"),
            assign("pt", 2),
        )
        c1 = compile_policy(p, topo)
        # A syntactically different but equivalent formulation.
        p2 = seq(
            filter_(field_test("ip_dst", 4)),
            filter_(field_test("pt", 2)),
            assign("pt", 1),
            link("1:1", "4:1"),
            assign("pt", 2),
        )
        c2 = compile_policy(p2, topo)
        assert configurations_equivalent(c1, c2)

    def test_different_policies_not_equivalent(self):
        topo = firewall_topology()
        p1 = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 4)),
            assign("pt", 1),
            link("1:1", "4:1"),
            assign("pt", 2),
        )
        p2 = seq(
            filter_(field_test("pt", 2) & field_test("ip_dst", 1)),
            assign("pt", 1),
            link("4:1", "1:1"),
            assign("pt", 2),
        )
        assert not configurations_equivalent(
            compile_policy(p1, topo), compile_policy(p2, topo)
        )


class TestStatefulEquivalence:
    def test_projections_compared_per_state(self):
        p = union(
            seq(filter_(state_eq([0])), assign("a", 1)),
            seq(filter_(state_eq([1])), assign("a", 2)),
        )
        q = union(
            seq(filter_(state_eq([0])), assign("a", 1)),
            seq(filter_(state_eq([1])), assign("a", 3)),  # differs at [1]
        )
        differing = states_where_projections_differ(p, q, [(0,), (1,)])
        assert differing == [(1,)]

    def test_equivalent_programs(self):
        p = seq(filter_(state_eq([0])), assign("a", 1))
        q = seq(filter_(state_eq([0])), assign("a", 1), filter_(field_test("a", 1)))
        assert states_where_projections_differ(p, q, [(0,), (1,)]) == []
