"""Tests for Stateful NetKAT: AST, projection (Figure 5), and event
extraction (Figure 6)."""

import pytest

from repro.formula import EQ, Formula, Literal, NE
from repro.netkat.ast import (
    FALSE,
    Filter,
    Link,
    TRUE,
    assign,
    filter_,
    link,
    neg,
    seq,
    star,
    test as field_test,
    union,
)
from repro.netkat.packet import Location
from repro.stateful.ast import (
    LinkUpdate,
    StateTest,
    link_update,
    state_eq,
    state_test,
    uses_state,
    vector_update,
)
from repro.stateful.projection import project, project_predicate

from naive_oracles import extract


class TestStatefulAST:
    def test_state_test(self):
        t = state_test(0, 3)
        assert isinstance(t, StateTest)
        assert t.component == 0 and t.value == 3

    def test_state_eq_builds_conjunction(self):
        a = state_eq([1, 2])
        # must mention both components
        assert uses_state(filter_(a))

    def test_link_update_vector_sugar(self):
        lu = link_update("1:1", "2:2", [5, 6])
        assert isinstance(lu, LinkUpdate)
        assert lu.updates == ((0, 5), (1, 6))

    def test_link_update_pairs(self):
        lu = link_update("1:1", "2:2", [(1, 9)])
        assert lu.updates == ((1, 9),)

    def test_vector_update(self):
        assert vector_update((0, 0), [(1, 5)]) == (0, 5)
        assert vector_update((1, 2), [(0, 9), (1, 8)]) == (9, 8)

    def test_vector_update_out_of_range(self):
        with pytest.raises(IndexError):
            vector_update((0,), [(3, 1)])

    def test_uses_state(self):
        assert uses_state(filter_(state_test(0, 1)))
        assert uses_state(link_update("1:1", "2:2", [1]))
        assert not uses_state(seq(assign("a", 1), link("1:1", "2:2")))


class TestProjection:
    def test_state_test_resolves_true(self):
        assert project_predicate(state_test(0, 1), (1,)) is TRUE

    def test_state_test_resolves_false(self):
        assert project_predicate(state_test(0, 1), (2,)) is FALSE

    def test_state_test_out_of_range(self):
        with pytest.raises(IndexError):
            project_predicate(state_test(3, 1), (0,))

    def test_negated_state_test(self):
        assert project_predicate(neg(state_test(0, 1)), (2,)) is TRUE

    def test_link_update_becomes_link(self):
        p = project(link_update("1:1", "2:2", [1]), (0,))
        assert p == Link(Location(1, 1), Location(2, 2))

    def test_guarded_branch_selection(self):
        prog = union(
            seq(filter_(state_eq([0])), assign("a", 1)),
            seq(filter_(state_eq([1])), assign("a", 2)),
        )
        c0 = project(prog, (0,))
        c1 = project(prog, (1,))
        assert c0 == assign("a", 1)
        assert c1 == assign("a", 2)

    def test_field_tests_untouched(self):
        p = filter_(field_test("ip_dst", 4) & state_test(0, 0))
        assert project(p, (0,)) == filter_(field_test("ip_dst", 4))

    def test_projection_of_star(self):
        p = star(seq(filter_(state_eq([0])), assign("a", 1)))
        assert project(p, (1,)) == Filter(TRUE)  # drop* = id


class TestEventExtraction:
    def test_no_update_no_edges(self):
        result = extract(seq(filter_(field_test("a", 1)), link("1:1", "2:2")), (0,))
        assert result.edges == frozenset()
        assert len(result.formulas) == 1

    def test_link_update_produces_edge(self):
        result = extract(
            seq(filter_(field_test("ip_dst", 4)), link_update("1:1", "4:1", [1])),
            (0,),
        )
        (edge,) = result.edges
        assert edge.src == (0,) and edge.dst == (1,)
        assert edge.event.location == Location(4, 1)
        assert edge.event.guard == Formula((Literal("ip_dst", EQ, 4),))

    def test_guard_collects_conjunction(self):
        result = extract(
            seq(
                filter_(field_test("a", 1) & field_test("b", 2)),
                link_update("1:1", "4:1", [1]),
            ),
            (0,),
        )
        (edge,) = result.edges
        assert edge.event.guard == Formula(
            (Literal("a", EQ, 1), Literal("b", EQ, 2))
        )

    def test_sw_pt_tests_ignored_in_guard(self):
        """Figure 6: Lsw =© nM phi = LtrueM phi, likewise for port."""
        result = extract(
            seq(
                filter_(field_test("pt", 2) & field_test("sw", 1) & field_test("a", 1)),
                link_update("1:1", "4:1", [1]),
            ),
            (0,),
        )
        (edge,) = result.edges
        assert edge.event.guard == Formula((Literal("a", EQ, 1),))

    def test_pt_assignment_ignored_in_guard(self):
        result = extract(
            seq(filter_(field_test("a", 1)), assign("pt", 1), link_update("1:1", "4:1", [1])),
            (0,),
        )
        (edge,) = result.edges
        assert edge.event.guard == Formula((Literal("a", EQ, 1),))

    def test_assignment_strips_and_replaces(self):
        """Lf <- nM phi = ((exists f: phi) AND f=n)."""
        result = extract(
            seq(
                filter_(field_test("a", 1)),
                assign("a", 5),
                link_update("1:1", "4:1", [1]),
            ),
            (0,),
        )
        (edge,) = result.edges
        assert edge.event.guard == Formula((Literal("a", EQ, 5),))

    def test_state_test_prunes_branch(self):
        prog = union(
            seq(filter_(state_eq([0])), link_update("1:1", "4:1", [1])),
            seq(filter_(state_eq([1])), link_update("1:1", "4:1", [2])),
        )
        r0 = extract(prog, (0,))
        assert {e.dst for e in r0.edges} == {(1,)}
        r1 = extract(prog, (1,))
        assert {e.dst for e in r1.edges} == {(2,)}

    def test_negated_state_test(self):
        prog = seq(filter_(~state_eq([0])), link_update("1:1", "4:1", [5]))
        assert extract(prog, (0,)).edges == frozenset()
        assert len(extract(prog, (1,)).edges) == 1

    def test_negated_field_test_gives_ne_literal(self):
        result = extract(
            seq(filter_(neg(field_test("a", 1))), link_update("1:1", "4:1", [1])),
            (0,),
        )
        (edge,) = result.edges
        assert edge.event.guard == Formula((Literal("a", NE, 1),))

    def test_demorgan_negated_conj(self):
        """not (a=1 and b=2) splits into two branches."""
        result = extract(
            seq(
                filter_(neg(field_test("a", 1) & field_test("b", 2))),
                link_update("1:1", "4:1", [1]),
            ),
            (0,),
        )
        guards = {e.event.guard for e in result.edges}
        assert guards == {
            Formula((Literal("a", NE, 1),)),
            Formula((Literal("b", NE, 2),)),
        }

    def test_disjunction_unions(self):
        result = extract(
            seq(
                filter_(field_test("a", 1) | field_test("a", 2)),
                link_update("1:1", "4:1", [1]),
            ),
            (0,),
        )
        guards = {e.event.guard for e in result.edges}
        assert guards == {
            Formula((Literal("a", EQ, 1),)),
            Formula((Literal("a", EQ, 2),)),
        }

    def test_contradictory_path_pruned(self):
        result = extract(
            seq(
                filter_(field_test("a", 1) & field_test("a", 2)),
                link_update("1:1", "4:1", [1]),
            ),
            (0,),
        )
        assert result.edges == frozenset()

    def test_multi_component_update(self):
        result = extract(link_update("1:1", "4:1", [(0, 7), (1, 8)]), (0, 0))
        (edge,) = result.edges
        assert edge.dst == (7, 8)

    def test_star_extraction_terminates(self):
        prog = star(seq(filter_(field_test("a", 1)), assign("a", 1)))
        result = extract(prog, (0,))
        assert result.formulas  # converged without raising

    def test_star_collects_edges(self):
        prog = star(link_update("1:1", "4:1", [1]))
        result = extract(prog, (0,))
        assert any(e.dst == (1,) for e in result.edges)

    def test_kleisli_threads_formulas(self):
        """Tests after a union see each branch's formula separately."""
        prog = seq(
            union(filter_(field_test("a", 1)), filter_(field_test("a", 2))),
            filter_(field_test("b", 3)),
            link_update("1:1", "4:1", [1]),
        )
        guards = {e.event.guard for e in extract(prog, (0,)).edges}
        assert guards == {
            Formula((Literal("a", EQ, 1), Literal("b", EQ, 3))),
            Formula((Literal("a", EQ, 2), Literal("b", EQ, 3))),
        }
