"""Tests for ETS construction, ETS->NES conversion (section 3.1), and
locality (section 2) -- including the paper's own examples: the Figure 3
transition systems and the P1/P2 locality programs."""

import pytest

from repro.events.ets_to_nes import (
    FiniteCompletenessError,
    UniqueConfigurationError,
    check_finite_complete,
    family_of_ets,
    nes_of_ets,
)
from repro.events.event import Event
from repro.events.locality import (
    is_locally_determined,
    locality_violations,
    minimally_inconsistent_sets,
)
from repro.apps import bandwidth_cap_app
from repro.formula import EQ, Conjunction, Formula, Literal, StateGuard
from repro.netkat.ast import assign, filter_, link, seq, test as field_test, union
from repro.netkat.packet import Location
from repro.pipeline import Pipeline
from repro.stateful.ast import link_update, state_eq
from repro.stateful.ets import ETS, build_ets
from repro.stateful.events import EventEdge


def ev(field, value, sw, pt, eid=0):
    return Event(Formula((Literal(field, EQ, value),)), Location(sw, pt), eid)


def make_ets(initial, vertex_configs, edges):
    """Hand-build an ETS; vertex_configs maps state -> distinct policy."""
    vertices = tuple((s, vertex_configs[s]) for s in vertex_configs)
    return ETS(initial=initial, vertices=vertices, edges=frozenset(edges))


def distinct_policies(states):
    return {s: assign("cfg", i) for i, s in enumerate(states)}


class TestBuildETS:
    def test_firewall_shape(self):
        prog = union(
            seq(
                filter_(field_test("ip_dst", 4)),
                union(
                    seq(filter_(state_eq([0])), link_update("1:1", "4:1", [1])),
                    seq(filter_(~state_eq([0])), link("1:1", "4:1")),
                ),
            ),
            seq(filter_(field_test("ip_dst", 1) & state_eq([1])), link("4:1", "1:1")),
        )
        ets = build_ets(prog, (0,))
        assert ets.states() == ((0,), (1,))
        (edge,) = ets.edges
        assert edge.src == (0,) and edge.dst == (1,)

    def test_identity_updates_skipped(self):
        prog = seq(filter_(state_eq([1])), link_update("1:1", "4:1", [1]))
        ets = build_ets(prog, (1,))
        assert ets.edges == frozenset()

    def test_unreachable_states_excluded_by_default(self):
        prog = seq(filter_(state_eq([0])), link_update("1:1", "4:1", [1]))
        ets = build_ets(prog, (0,))
        assert set(ets.states()) == {(0,), (1,)}

    def test_loop_detection(self):
        prog = union(
            seq(filter_(state_eq([0])), link_update("1:1", "4:1", [1])),
            seq(filter_(state_eq([1])), link_update("1:1", "4:1", [0])),
        )
        ets = build_ets(prog, (0,))
        assert ets.has_loops()

    def test_chain_is_not_loop(self):
        prog = union(
            seq(filter_(state_eq([0])), link_update("1:1", "4:1", [1])),
            seq(filter_(state_eq([1])), link_update("1:1", "4:1", [2])),
        )
        assert not build_ets(prog, (0,)).has_loops()

    def test_has_loops_survives_chains_beyond_the_recursion_limit(self):
        # The symbolic engine makes very deep state chains cheap to
        # build; the explicit-stack DFS must not hit CPython's
        # recursion limit walking them.
        import sys

        depth = sys.getrecursionlimit() + 100
        states = [(i,) for i in range(depth)]
        event = ev("ip_dst", 4, 4, 1)
        chain_edges = [
            EventEdge(states[i], event, states[i + 1])
            for i in range(depth - 1)
        ]
        configs = {s: assign("cfg", s[0]) for s in states}
        assert not make_ets(states[0], configs, chain_edges).has_loops()
        back_edge = EventEdge(states[-1], event, states[0])
        assert make_ets(
            states[0], configs, chain_edges + [back_edge]
        ).has_loops()


class TestFamilyOfETS:
    def test_figure_3a_compatible_events(self):
        """Two events in any order -> the full diamond family."""
        e1, e2 = ev("a", 1, 1, 1), ev("b", 1, 2, 1)
        states = [(0,), (1,), (2,), (3,)]
        ets = make_ets(
            (0,),
            distinct_policies(states),
            [
                EventEdge((0,), e1, (1,)),
                EventEdge((0,), e2, (2,)),
                EventEdge((1,), e2, (3,)),
                EventEdge((2,), e1, (3,)),
            ],
        )
        family = family_of_ets(ets)
        assert set(family) == {
            frozenset(),
            frozenset({e1}),
            frozenset({e2}),
            frozenset({e1, e2}),
        }

    def test_figure_3b_incompatible_events(self):
        """Two events, only one of which may occur."""
        e1, e2 = ev("a", 1, 1, 1), ev("b", 1, 1, 1)
        states = [(0,), (1,), (2,)]
        ets = make_ets(
            (0,),
            distinct_policies(states),
            [EventEdge((0,), e1, (1,)), EventEdge((0,), e2, (2,))],
        )
        family = family_of_ets(ets)
        assert set(family) == {frozenset(), frozenset({e1}), frozenset({e2})}
        nes = nes_of_ets(ets)
        assert not nes.con({e1, e2})

    def test_figure_3c_violates_finite_completeness(self):
        """E1={e1}, E2={e3} have upper bound {e1,e4,e3} but {e1,e3} is
        missing -- the paper's counterexample."""
        e1, e3, e4 = ev("a", 1, 1, 1), ev("c", 1, 1, 1), ev("d", 1, 1, 1)
        states = [(0,), (1,), (2,), (3,), (4,)]
        ets = make_ets(
            (0,),
            distinct_policies(states),
            [
                EventEdge((0,), e1, (1,)),
                EventEdge((0,), e3, (2,)),
                EventEdge((1,), e4, (3,)),
                EventEdge((3,), e3, (4,)),
            ],
        )
        family = family_of_ets(ets)
        assert check_finite_complete(family)
        with pytest.raises(FiniteCompletenessError):
            nes_of_ets(ets)

    def test_unique_configuration_violation(self):
        """Same event reaching states with different configurations."""
        e1, e2 = ev("a", 1, 1, 1), ev("b", 1, 1, 1)
        states = [(0,), (1,), (2,), (3,), (4,)]
        ets = make_ets(
            (0,),
            distinct_policies(states),
            [
                EventEdge((0,), e1, (1,)),
                EventEdge((0,), e2, (2,)),
                EventEdge((1,), e2, (3,)),
                EventEdge((2,), e1, (4,)),  # {e1,e2} again, different config
            ],
        )
        with pytest.raises(UniqueConfigurationError):
            family_of_ets(ets)

    def test_same_event_set_same_config_allowed(self):
        """A true diamond: both orders reach the same configuration."""
        e1, e2 = ev("a", 1, 1, 1), ev("b", 1, 1, 1)
        configs = distinct_policies([(0,), (1,), (2,), (3,)])
        ets = make_ets(
            (0,),
            configs,
            [
                EventEdge((0,), e1, (1,)),
                EventEdge((0,), e2, (2,)),
                EventEdge((1,), e2, (3,)),
                EventEdge((2,), e1, (3,)),
            ],
        )
        nes = nes_of_ets(ets)
        assert nes.state_of({e1, e2}) == (3,)

    def test_chain_renames_repeated_events(self):
        """The bandwidth-cap pattern: one syntactic event per chain level."""
        e = ev("a", 1, 1, 1)
        states = [(0,), (1,), (2,)]
        ets = make_ets(
            (0,),
            distinct_policies(states),
            [EventEdge((0,), e, (1,)), EventEdge((1,), e, (2,))],
        )
        family = family_of_ets(ets)
        assert frozenset({e.renamed(0)}) in family
        assert frozenset({e.renamed(0), e.renamed(1)}) in family

    def test_unbounded_loop_detected(self):
        e = ev("a", 1, 1, 1)
        ets = make_ets(
            (0,),
            distinct_policies([(0,), (1,)]),
            [EventEdge((0,), e, (1,)), EventEdge((1,), e, (0,))],
        )
        from repro.events.ets_to_nes import ETSConversionError

        with pytest.raises(ETSConversionError):
            family_of_ets(ets, max_occurrences=8)
        with pytest.raises(ETSConversionError, match="more than 64 times"):
            family_of_ets(ets)


class TestChainDepth:
    def test_a_finite_chain_deeper_than_the_loop_bound_converts(self):
        """The default occurrence bound is for loops: cap-100 is acyclic,
        its 101 renamed occurrences of one event are a finite chain."""
        app = bandwidth_cap_app(100)
        pipeline = Pipeline(app.program, app.topology, app.initial_state)
        assert not pipeline.ets.has_loops()
        assert len(pipeline.ets.states()) == 102
        assert len(pipeline.nes.events) == 101
        assert len(pipeline.compiled.configurations) == 102
        # Adoption applies the same default bound as a fresh conversion.
        adopted = nes_of_ets(pipeline.ets, previous=(pipeline.ets, pipeline.nes))
        assert adopted.structure is pipeline.nes.structure

    def test_a_cold_front_half_is_linear_in_chain_depth(self, monkeypatch):
        """Doubling the chain at most doubles (x 2.2) the guard work of a
        cold ``Pipeline(...).nes``: the union fold decides cells a guard
        already fixes without a meet, and instantiation tests only the
        guards indexed under the state's literals."""
        calls = {"meet": 0, "holds": 0}
        meet, holds = Conjunction.meet, StateGuard.holds

        def counted_meet(self, other):
            calls["meet"] += 1
            return meet(self, other)

        def counted_holds(self, state):
            calls["holds"] += 1
            return holds(self, state)

        monkeypatch.setattr(Conjunction, "meet", counted_meet)
        monkeypatch.setattr(StateGuard, "holds", counted_holds)
        counts = {}
        for depth in (24, 48):
            calls.update(meet=0, holds=0)
            app = bandwidth_cap_app(depth)
            Pipeline(app.program, app.topology, app.initial_state).nes
            counts[depth] = dict(calls)
        for name in calls:
            assert counts[24][name] > 0
            assert counts[48][name] <= 2.2 * counts[24][name], counts


class TestNES:
    def make_firewall_nes(self):
        prog = union(
            seq(
                filter_(field_test("ip_dst", 4)),
                union(
                    seq(filter_(state_eq([0])), link_update("1:1", "4:1", [1])),
                    seq(filter_(~state_eq([0])), link("1:1", "4:1")),
                ),
            ),
        )
        return nes_of_ets(build_ets(prog, (0,)))

    def test_g_total_on_event_sets(self):
        nes = self.make_firewall_nes()
        for es in nes.event_sets():
            nes.config_of(es)  # must not raise

    def test_g_rejects_non_event_sets(self):
        nes = self.make_firewall_nes()
        bogus = ev("zzz", 1, 9, 9)
        with pytest.raises(KeyError):
            nes.state_of({bogus})

    def test_initial_state(self):
        assert self.make_firewall_nes().initial_state == (0,)

    def test_structure_event_sets_equal_family(self):
        """The reconstructed structure's event-sets are exactly F(T)."""
        nes = self.make_firewall_nes()
        assert nes.structure.event_sets() == nes.event_sets()

    def test_newly_enabled(self):
        nes = self.make_firewall_nes()
        (event,) = nes.events
        assert set(nes.structure.successors(frozenset())) == {event}
        assert set(nes.structure.successors(frozenset({event}))) == set()


class TestStructureAdoption:
    """``nes_of_ets(ets, previous=(old_ets, old_nes))``: the conversion
    reads the initial vertex, the edges, and the vertex labels only
    through condition 1 -- a re-labelled ETS adopts the structure."""

    E1, E2 = ev("a", 1, 1, 1), ev("b", 1, 1, 1)
    STATES = [(0,), (1,), (2,), (3,), (4,)]
    # {e1,e2} is collected at (3,) via e1;e2 and at (4,) via e2;e1.
    EDGES = [
        EventEdge((0,), E1, (1,)),
        EventEdge((0,), E2, (2,)),
        EventEdge((1,), E2, (3,)),
        EventEdge((2,), E1, (4,)),
    ]

    def split_diamond(self, relabel=None, edges=None, initial=(0,)):
        configs = distinct_policies(self.STATES)
        configs[(4,)] = configs[(3,)]  # equal policies: condition 1 holds
        configs.update(relabel or {})
        return make_ets(initial, configs, self.EDGES if edges is None else edges)

    def converted(self):
        ets = self.split_diamond()
        return ets, nes_of_ets(ets)

    def test_conversion_records_the_compared_pair(self):
        ets, nes = self.converted()
        assert nes.state_of({self.E1, self.E2}) in {(3,), (4,)}
        (pair,) = ets.__dict__["_condition1_pairs"]
        assert set(pair) == {(3,), (4,)}
        compared = set()
        family_of_ets(ets, compared=compared)
        assert compared == {pair}
        # A proper diamond compares nothing: both paths end at one state.
        diamond = self.split_diamond(
            edges=self.EDGES[:3] + [EventEdge((2,), self.E1, (3,))]
        )
        nes_of_ets(diamond)
        assert diamond.__dict__["_condition1_pairs"] == frozenset()

    @pytest.mark.parametrize("state", [(0,), (1,), (2,)])
    def test_relabelling_an_uncompared_vertex_adopts(self, state):
        ets, nes = self.converted()
        relabelled = self.split_diamond({state: assign("cfg", 99)})
        adopted = nes_of_ets(relabelled, previous=(ets, nes))
        assert adopted is not nes
        assert adopted.structure is nes.structure
        assert adopted.configuration_policy(state) == assign("cfg", 99)
        scratch = nes_of_ets(self.split_diamond({state: assign("cfg", 99)}))
        assert adopted.event_sets() == scratch.event_sets()
        for event_set in scratch.event_sets():
            assert adopted.state_of(event_set) == scratch.state_of(event_set)
            assert adopted.config_of(event_set) == scratch.config_of(event_set)
        # The pairs are handed on, so the result lends in turn.
        again = self.split_diamond({state: assign("cfg", 98)})
        assert nes_of_ets(
            again, previous=(relabelled, adopted)
        ).structure is nes.structure

    def test_relabelling_both_compared_vertices_alike_adopts(self):
        ets, nes = self.converted()
        both = {(3,): assign("cfg", 7), (4,): assign("cfg", 7)}
        adopted = nes_of_ets(self.split_diamond(both), previous=(ets, nes))
        assert adopted.structure is nes.structure
        assert adopted.config_of({self.E1, self.E2}) == assign("cfg", 7)

    @pytest.mark.parametrize("state", [(3,), (4,)])
    def test_relabelling_a_compared_vertex_is_the_cold_error(self, state):
        ets, nes = self.converted()
        relabel = {state: assign("cfg", 99)}
        with pytest.raises(UniqueConfigurationError) as cold:
            nes_of_ets(self.split_diamond(relabel))
        with pytest.raises(UniqueConfigurationError) as adopting:
            nes_of_ets(self.split_diamond(relabel), previous=(ets, nes))
        assert str(adopting.value) == str(cold.value)

    def test_an_edge_initial_or_vertex_set_change_never_adopts(self):
        ets, nes = self.converted()
        rerouted = self.split_diamond(
            edges=self.EDGES[:3] + [EventEdge((2,), self.E1, (3,))]
        )
        restarted = self.split_diamond(initial=(1,))
        configs = dict(ets.vertices)
        grown = make_ets((0,), {**configs, (5,): assign("cfg", 5)}, self.EDGES)
        for changed in (rerouted, restarted, grown):
            converted = nes_of_ets(changed, previous=(ets, nes))
            assert converted.structure is not nes.structure
            scratch = nes_of_ets(
                make_ets(changed.initial, dict(changed.vertices), changed.edges)
            )
            assert converted.event_sets() == scratch.event_sets()
            assert converted.configuration_states() == scratch.configuration_states()

    def test_nothing_is_lent_without_a_recorded_conversion(self):
        ets, nes = self.converted()
        # An equal ETS nobody converted (a warm artifact's NES has none
        # at all) carries no pairs, so it cannot vouch for condition 1.
        unconverted = self.split_diamond()
        relabelled = self.split_diamond({(0,): assign("cfg", 99)})
        for lender in (unconverted, None):
            assert nes_of_ets(
                relabelled, previous=(lender, nes)
            ).structure is not nes.structure

    def test_a_tighter_occurrence_bound_is_still_enforced(self):
        from repro.events.ets_to_nes import ETSConversionError

        e = ev("a", 1, 1, 1)
        states = [(0,), (1,), (2,)]
        edges = [EventEdge((0,), e, (1,)), EventEdge((1,), e, (2,))]
        chain = make_ets((0,), distinct_policies(states), edges)
        nes = nes_of_ets(chain)
        relabelled = make_ets(
            (0,), {**distinct_policies(states), (2,): assign("cfg", 9)}, edges
        )
        with pytest.raises(ETSConversionError):
            nes_of_ets(relabelled, max_occurrences=1, previous=(chain, nes))
        assert nes_of_ets(
            relabelled, max_occurrences=2, previous=(chain, nes)
        ).structure is nes.structure


class TestLocality:
    def test_program_p1_not_locally_determined(self):
        """Section 2's P1: incompatible events at *different* switches."""
        e1, e2 = ev("src", 1, 2, 1), ev("src", 1, 4, 1)
        es_states = [(0,), (1,), (2,)]
        ets = make_ets(
            (0,),
            distinct_policies(es_states),
            [EventEdge((0,), e1, (1,)), EventEdge((0,), e2, (2,))],
        )
        nes = nes_of_ets(ets)
        assert not is_locally_determined(nes)
        (violation,) = locality_violations(nes)
        assert violation == frozenset({e1, e2})

    def test_program_p2_locally_determined(self):
        """Section 2's P2: incompatible events at the *same* switch."""
        e1, e2 = ev("src", 1, 2, 1), ev("src", 3, 2, 1)
        es_states = [(0,), (1,), (2,)]
        ets = make_ets(
            (0,),
            distinct_policies(es_states),
            [EventEdge((0,), e1, (1,)), EventEdge((0,), e2, (2,))],
        )
        nes = nes_of_ets(ets)
        assert is_locally_determined(nes)

    def test_compatible_events_never_violate(self):
        e1, e2 = ev("a", 1, 1, 1), ev("b", 1, 9, 1)
        ets = make_ets(
            (0,),
            distinct_policies([(0,), (1,), (2,), (3,)]),
            [
                EventEdge((0,), e1, (1,)),
                EventEdge((0,), e2, (2,)),
                EventEdge((1,), e2, (3,)),
                EventEdge((2,), e1, (3,)),
            ],
        )
        nes = nes_of_ets(ets)
        assert is_locally_determined(nes)
        assert minimally_inconsistent_sets(nes.structure) == frozenset()

    def test_minimally_inconsistent_excludes_supersets(self):
        e1, e2, e3 = ev("a", 1, 1, 1), ev("b", 1, 1, 1), ev("c", 1, 1, 1)
        ets = make_ets(
            (0,),
            distinct_policies([(0,), (1,), (2,), (3,)]),
            [
                EventEdge((0,), e1, (1,)),
                EventEdge((0,), e2, (2,)),
                EventEdge((0,), e3, (3,)),
            ],
        )
        nes = nes_of_ets(ets)
        minimal = minimally_inconsistent_sets(nes.structure)
        # all pairs are minimally inconsistent; the triple is not minimal
        assert frozenset({e1, e2}) in minimal
        assert frozenset({e1, e2, e3}) not in minimal
