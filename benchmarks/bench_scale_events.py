"""Scaling benchmarks for the bitset event-structure engine.

Two stress axes the brute-force engine could not handle:

- *deep chains*: ``bandwidth_cap_app(depth)`` renames one syntactic
  event ``depth+1`` times, so the structure has that many events and a
  linear cover family.  The old subset enumeration was 2^n here (10s at
  depth 20, intractable past ~24); the transversal engine is linear.
- *wide multi-switch structures*: ``k`` switches with ``m`` exclusive
  events each (covers = one event per switch), giving ``m^k`` maximal
  covers and ``k * C(m, 2)`` minimally-inconsistent pairs -- the
  Berge-enumeration-heavy regime.

One lane is untimed: it converts cap-100 (a chain deeper than the loop
bound) so the ETS -> NES mask walk runs at depth on every push.
"""

import pytest

from repro.apps import bandwidth_cap_app
from repro.events.ets_to_nes import nes_of_ets
from repro.events.event import Event
from repro.stateful.ets import build_ets
from repro.events.locality import (
    is_locally_determined,
    minimally_inconsistent_sets,
)
from repro.events.nes import NES
from repro.events.structure import EventStructure
from repro.formula import EQ, Formula, Literal
from repro.netkat.ast import ID
from repro.netkat.packet import Location

CHAIN_DEPTHS = (16, 20, 24, 28)

# Depths for the ETS-stage-only benchmark: the symbolic all-states
# engine makes construction near-linear in the chain, so deeper caps
# than the full-pipeline cases stay tractable.
ETS_STAGE_DEPTHS = (24, 28, 32)


def _event(field: str, value: int, switch: int, port: int = 1, eid: int = 0) -> Event:
    return Event(Formula((Literal(field, EQ, value),)), Location(switch, port), eid)


def wide_structure(switches: int, per_switch: int) -> NES:
    """``switches`` switches, ``per_switch`` mutually-exclusive events each.

    Covers pick exactly one event per switch, so the minimally
    inconsistent sets are the same-switch pairs (locally determined).
    """
    events = [
        _event("sig", i, sw)
        for sw in range(1, switches + 1)
        for i in range(per_switch)
    ]
    by_switch = [events[i : i + per_switch] for i in range(0, len(events), per_switch)]
    covers = [frozenset()]

    def expand(prefix, groups):
        if not groups:
            covers.append(frozenset(prefix))
            return
        for event in groups[0]:
            expand(prefix + [event], groups[1:])

    expand([], by_switch)
    structure = EventStructure(
        events,
        covers,
        [(frozenset(), e) for e in events],
    )
    return NES(structure, {0: (0,)}, {(0,): ID})


@pytest.mark.parametrize("depth", CHAIN_DEPTHS)
def test_chain_compile_scales(benchmark, depth):
    """Full pipeline (app -> ETS -> NES -> guarded tables) per chain depth."""

    def compile_chain():
        return bandwidth_cap_app(depth).compiled.total_rule_count()

    rules = benchmark(compile_chain)
    # One counting rule per chain state plus the static paths.
    assert rules > depth


@pytest.mark.parametrize("depth", ETS_STAGE_DEPTHS)
def test_chain_ets_stage_scales(benchmark, depth):
    """ETS construction alone (the symbolic partial-evaluation pass plus
    per-state instantiation), per chain depth."""
    app = bandwidth_cap_app(depth)

    def build():
        return build_ets(app.program, app.initial_state)

    ets = benchmark(build)
    # One chain state per counter value, plus the capped terminal state.
    assert len(ets.states()) == depth + 2
    assert len(ets.edges) == depth + 1


def test_deep_chain_converts_on_masks():
    """cap-100: 101 renamed occurrences of one event, 102 event-sets,
    and each occurrence enabled by exactly the chain below it."""
    app = bandwidth_cap_app(100)
    nes = nes_of_ets(build_ets(app.program, app.initial_state))
    structure = nes.structure
    assert len(nes.event_set_masks()) == 102
    assert len(structure.universe) == 101
    assert len(structure.maximal_cover_masks) == 1
    enablers = structure._base_masks
    assert sorted(enablers) == list(range(101))
    assert all(len(masks) == 1 for masks in enablers.values())
    # The chain: occurrence k is enabled by occurrences 0 .. k-1.
    by_eid = {e.eid: structure.event_index[e] for e in structure.universe}
    below = 0
    for eid in range(101):
        assert enablers[by_eid[eid]] == (below,)
        below |= 1 << by_eid[eid]


@pytest.mark.parametrize("switches,per_switch", [(6, 2), (8, 2), (5, 3)])
def test_wide_locality_scales(benchmark, switches, per_switch):
    """Transversal enumeration over m^k maximal covers."""
    nes = wide_structure(switches, per_switch)

    def check():
        nes.structure._transversal_cache.clear()
        minimal = minimally_inconsistent_sets(nes.structure)
        return is_locally_determined(nes), len(minimal)

    local, count = benchmark(check)
    assert local
    assert count == switches * per_switch * (per_switch - 1) // 2
