"""Differential testing: the FDD compiler against the denotational semantics.

A seeded random generator produces link-free NetKAT policies (filters,
modifications, union, sequence, star) over the seed apps' field
vocabulary.  Each policy is compiled three ways -- to an FDD with the
ordered-insert splice, to an FDD with the retained mask/union reference
strategy, and on to a prioritized flow table -- and all three are checked
against direct evaluation in :mod:`repro.netkat.semantics` on random
packets.  This is the harness that proves the perf-wave caching layers
invisible: any divergence between the fast paths and the ground-truth
semantics fails loudly with the generating seed in the test id.

A second generator produces random *Stateful* NetKAT programs (state
tests, state-updating links, union/sequence/star over them) and
cross-checks the symbolic all-states engine
(:mod:`repro.stateful.symbolic`) against the per-state ``extract`` /
``project`` reference walks on every state vector of a small box.
"""

import itertools
import random

import pytest

from repro.netkat.ast import (
    FALSE,
    Policy,
    Predicate,
    TRUE,
    assign,
    conj,
    disj,
    filter_,
    neg,
    seq,
    star,
    test as field_test,
    union,
)
from repro.netkat.ast import link
from repro.netkat.fdd import FDDBuilder
from repro.netkat.flowtable import table_of_fdd
from repro.netkat.packet import Packet
from repro.netkat.semantics import eval_packet
from repro.stateful.ast import StateTest, link_update
from repro.stateful.projection import project
from repro.stateful.symbolic import SymbolicProgram

from naive_oracles import ReferenceFDDBuilder, eval_fdd, extract, formulas_at

# The field vocabulary shared by the seed applications (plus the two
# location fields, which exercise the head of the FDD field order).
FIELDS = ("sw", "pt", "ip_src", "ip_dst", "ident")
VALUES = (0, 1, 2)


def random_predicate(rng: random.Random, depth: int) -> Predicate:
    if depth <= 0 or rng.random() < 0.45:
        roll = rng.random()
        if roll < 0.06:
            return TRUE
        if roll < 0.12:
            return FALSE
        return field_test(rng.choice(FIELDS), rng.choice(VALUES))
    kind = rng.random()
    if kind < 0.4:
        return conj(
            random_predicate(rng, depth - 1), random_predicate(rng, depth - 1)
        )
    if kind < 0.8:
        return disj(
            random_predicate(rng, depth - 1), random_predicate(rng, depth - 1)
        )
    return neg(random_predicate(rng, depth - 1))


def random_policy(rng: random.Random, depth: int) -> Policy:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return filter_(random_predicate(rng, 2))
        return assign(rng.choice(FIELDS), rng.choice(VALUES))
    kind = rng.random()
    if kind < 0.4:
        return union(random_policy(rng, depth - 1), random_policy(rng, depth - 1))
    if kind < 0.85:
        return seq(random_policy(rng, depth - 1), random_policy(rng, depth - 1))
    # Star sparingly: the finite field domain keeps both fixpoints small.
    return star(random_policy(rng, depth - 1))


def random_packet(rng: random.Random) -> Packet:
    fields = {}
    for field in FIELDS:
        # Occasionally leave a field unset: tests on absent fields must
        # fail identically in the FDD and the semantics.
        if rng.random() < 0.85:
            fields[field] = rng.choice(VALUES)
    return Packet(fields)


def assert_differential(policy: Policy, packets) -> None:
    """FDD eval, reference-FDD eval, and table apply all match semantics."""
    fast = FDDBuilder()
    ref = ReferenceFDDBuilder()
    d_fast = fast.of_policy(policy)
    d_ref = ref.of_policy(policy)
    # The two strategies must build the same canonical diagram.
    assert repr(d_fast) == repr(d_ref)
    table = table_of_fdd(fast, d_fast)
    for packet in packets:
        expected = eval_packet(policy, packet)
        assert eval_fdd(d_fast, packet) == expected
        assert eval_fdd(d_ref, packet) == expected
        assert table.apply(packet) == expected


@pytest.mark.parametrize("seed", range(40))
def test_random_policies_match_semantics(seed):
    """40 random policies x 5 random packets = 200 differential cases."""
    rng = random.Random(seed)
    policy = random_policy(rng, depth=4)
    packets = [random_packet(rng) for _ in range(5)]
    assert_differential(policy, packets)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(100, 125))
def test_deep_random_policies_match_semantics(seed):
    """Deeper policies (more star/seq nesting) and more packets per case."""
    rng = random.Random(seed)
    policy = random_policy(rng, depth=6)
    packets = [random_packet(rng) for _ in range(12)]
    assert_differential(policy, packets)


def test_known_out_of_order_splice():
    """A hand-picked case that forces ite_test to reorder branches:
    the assignment decides a later test, then an earlier field is tested."""
    policy = seq(
        assign("ip_dst", 1),
        filter_(disj(field_test("sw", 1), field_test("ip_dst", 1))),
        filter_(neg(field_test("pt", 2))),
    )
    packets = [
        Packet({"sw": 1, "pt": 2, "ip_dst": 0}),
        Packet({"sw": 0, "pt": 1, "ip_dst": 2}),
        Packet({"sw": 1, "pt": 1}),
    ]
    assert_differential(policy, packets)


# ---------------------------------------------------------------------------
# Symbolic all-states extraction vs the per-state reference walks
# ---------------------------------------------------------------------------

# Random stateful programs range over a 2-component state vector with
# values 0..2, so the cross-check below can enumerate the whole box.
STATE_WIDTH = 2
STATE_VALUES = (0, 1, 2)
STATE_BOX = tuple(itertools.product(STATE_VALUES, repeat=STATE_WIDTH))


def random_stateful_predicate(rng: random.Random, depth: int) -> Predicate:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.08:
            return TRUE
        if roll < 0.16:
            return FALSE
        if roll < 0.55:
            return StateTest(
                rng.randrange(STATE_WIDTH), rng.choice(STATE_VALUES)
            )
        return field_test(rng.choice(FIELDS), rng.choice(VALUES))
    kind = rng.random()
    if kind < 0.35:
        return conj(
            random_stateful_predicate(rng, depth - 1),
            random_stateful_predicate(rng, depth - 1),
        )
    if kind < 0.7:
        return disj(
            random_stateful_predicate(rng, depth - 1),
            random_stateful_predicate(rng, depth - 1),
        )
    return neg(random_stateful_predicate(rng, depth - 1))


def random_stateful_policy(rng: random.Random, depth: int) -> Policy:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return filter_(random_stateful_predicate(rng, 2))
        if roll < 0.55:
            return assign(rng.choice(FIELDS), rng.choice(VALUES))
        src = f"{rng.randint(1, 3)}:1"
        dst = f"{rng.randint(1, 3)}:1"
        if roll < 0.85:
            return link_update(
                src,
                dst,
                [(rng.randrange(STATE_WIDTH), rng.choice(STATE_VALUES))],
            )
        return link(src, dst)
    kind = rng.random()
    if kind < 0.4:
        return union(
            random_stateful_policy(rng, depth - 1),
            random_stateful_policy(rng, depth - 1),
        )
    if kind < 0.85:
        return seq(
            random_stateful_policy(rng, depth - 1),
            random_stateful_policy(rng, depth - 1),
        )
    return star(random_stateful_policy(rng, depth - 1))


def assert_symbolic_matches_per_state(program: Policy) -> None:
    """One symbolic pass == per-state extract/project, on every state."""
    symbolic = SymbolicProgram(program)
    for state in STATE_BOX:
        concrete = extract(program, state)
        assert symbolic.edges_at(state) == concrete.edges
        assert formulas_at(symbolic, state) == concrete.formulas
        assert symbolic.configuration_at(state) == project(program, state)
        # The per-state memo serves the very same objects on a revisit.
        assert symbolic.edges_at(state) is symbolic.edges_at(state)
        assert symbolic.configuration_at(state) is symbolic.configuration_at(state)


@pytest.mark.parametrize("seed", range(40))
def test_random_stateful_programs_match_per_state_walks(seed):
    """40 random stateful programs x 9 states = 360 differential cases."""
    rng = random.Random(1000 + seed)
    program = random_stateful_policy(rng, depth=4)
    assert_symbolic_matches_per_state(program)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2000, 2030))
def test_deep_random_stateful_programs_match_per_state_walks(seed):
    """Deeper stateful programs (more star/seq nesting over state)."""
    rng = random.Random(seed)
    program = random_stateful_policy(rng, depth=6)
    assert_symbolic_matches_per_state(program)


def random_state_guard(rng: random.Random) -> Predicate:
    """``c=v``, ``!c=v`` or a conjunction over both components."""
    component, value = rng.randrange(STATE_WIDTH), rng.choice(STATE_VALUES)
    roll = rng.random()
    if roll < 0.45:
        return StateTest(component, value)
    if roll < 0.7:
        return neg(StateTest(component, value))
    other = StateTest(1 - component, rng.choice(STATE_VALUES))
    return conj(StateTest(component, value), other if roll < 0.85 else neg(other))


def wide_state_union(rng: random.Random) -> Policy:
    """A left-nested union of 8-16 state-guarded branches, the shape of
    the bandwidth-cap chain: the projection's fold meets each branch's
    cells against every cell the branches before it made.  Some
    branches are an if-then-else on one test (a non-drop else cell),
    and some are state-free."""
    branches = []
    for _ in range(rng.randint(8, 16)):
        roll = rng.random()
        body = random_stateful_policy(rng, 1)
        if roll < 0.15:
            branches.append(body)
            continue
        guard = random_state_guard(rng)
        branch = seq(filter_(guard), body)
        if roll < 0.4:
            otherwise = random_stateful_policy(rng, 1)
            branch = union(branch, seq(filter_(neg(guard)), otherwise))
        branches.append(branch)
    return union(*branches)


@pytest.mark.parametrize("seed", range(40))
def test_wide_state_unions_match_per_state_walks(seed):
    """The union fold's shortcut -- a left cell whose guard fixes the
    tested component meets exactly one cell of a state test -- and its
    pairwise fallback, against the per-state walks on every state."""
    rng = random.Random(3000 + seed)
    program = wide_state_union(rng)
    if rng.random() < 0.5:
        program = seq(
            filter_(field_test("ip_dst", rng.choice(VALUES))),
            program,
            assign("pt", rng.choice(VALUES)),
        )
    assert_symbolic_matches_per_state(program)
    symbolic = SymbolicProgram(program)
    for state in STATE_BOX:
        assert repr(symbolic.configuration_at(state)) == repr(
            project(program, state)
        )


def test_star_with_modification_cycle():
    """Star over a field toggle: fixpoints in FDD and semantics agree."""
    toggle = union(
        seq(filter_(field_test("ident", 0)), assign("ident", 1)),
        seq(filter_(field_test("ident", 1)), assign("ident", 0)),
    )
    policy = star(toggle)
    packets = [Packet({"ident": v, "sw": 0, "pt": 0}) for v in VALUES]
    assert_differential(policy, packets)


# ---------------------------------------------------------------------------
# Random delta chains: Pipeline.update vs cold rebuild at every step
# ---------------------------------------------------------------------------
#
# Starting from each seed application, a seeded generator produces a
# chain of random deltas (initial-state component writes, sub-policy
# replacements drawn from the program's own subterms, and topology
# edits: host attach/move, unused-link add/remove, switch add).  At
# every step
# the incremental path (``Pipeline.update``) is compared against a cold
# pipeline built from the post-delta program: both must yield
# byte-identical guarded tables, or raise the same exception type (in
# which case the chain ends -- the post-delta program is simply not
# compilable, and both paths must agree on that too).

from repro.netkat import ast as _nk
from repro.pipeline import Delta, Pipeline
from repro.service.protocol import topology_to_wire

from seed_apps import APPS, edited_topology, guarded_bytes


def _subpolicies(p: Policy):
    out = [p]
    if isinstance(p, (_nk.Seq, _nk.Union)):
        out += _subpolicies(p.left) + _subpolicies(p.right)
    elif isinstance(p, _nk.Star):
        out += _subpolicies(p.operand)
    return out


def _state_values(p: Policy, initial):
    values = {0, 1}
    values.update(initial)
    for sub in _subpolicies(p):
        if isinstance(sub, _nk.Filter):
            stack = [sub.predicate]
            while stack:
                a = stack.pop()
                if isinstance(a, StateTest):
                    values.add(a.value)
                elif isinstance(a, (_nk.Conj, _nk.Disj)):
                    stack.extend((a.left, a.right))
                elif isinstance(a, _nk.Neg):
                    stack.append(a.operand)
    return sorted(values)


# Ports from here up are the generator's own: no seed program mentions
# them, so a link between two of them is unused by construction.
_SPARE_PORT = 100


def _random_topology(rng: random.Random, topology):
    wire = topology_to_wire(topology)
    links, hosts, switches = wire["links"], wire["hosts"], wire["switches"]
    ports = [
        int(location.split(":")[1])
        for location in [loc for link in links for loc in link]
        + [attachment for _, attachment in hosts]
    ]
    port = max([_SPARE_PORT - 1] + ports) + 1
    spare = f"{rng.choice(switches)}:{port}"
    unused = [l for l in links if int(l[0].split(":")[1]) >= _SPARE_PORT]
    kind = rng.choice(
        ["attach", "move", "add_link", "add_switch"]
        + ["remove_link"] * bool(unused)
    )
    if kind == "attach":
        return edited_topology(topology, hosts=hosts + [[f"X{port}", spare]])
    if kind == "move":
        moved = rng.randrange(len(hosts))
        return edited_topology(topology, hosts=[
            [name, spare if i == moved else attachment]
            for i, (name, attachment) in enumerate(hosts)
        ])
    if kind == "add_link":
        far = f"{rng.choice(switches)}:{port + 1}"
        return edited_topology(topology, links=links + [[spare, far]])
    if kind == "remove_link":
        gone = rng.choice(unused)
        return edited_topology(topology, links=[l for l in links if l != gone])
    return edited_topology(topology, switches=switches + [max(switches) + 1])


def _random_delta(rng: random.Random, program: Policy, initial, topology) -> Delta:
    kind = rng.randrange(3)
    if kind == 0:
        component = rng.randrange(len(initial))
        value = rng.choice(_state_values(program, initial))
        return Delta(set_state=((component, value),))
    if kind == 1:
        return Delta(topology=_random_topology(rng, topology))
    filters = [s for s in _subpolicies(program) if isinstance(s, _nk.Filter)]
    old = rng.choice(filters)
    roll = rng.random()
    if roll < 0.4:
        new = _nk.Filter(TRUE)
    elif roll < 0.8:
        new = filter_(neg(old.predicate))
    else:
        new = _nk.Filter(StateTest(rng.randrange(len(initial)), rng.choice((0, 1))))
    return Delta(replace_policy=old, with_policy=new)


def _outcome(thunk):
    try:
        return ("ok", guarded_bytes(thunk()))
    except Exception as exc:  # noqa: BLE001 - the *type* is the oracle
        return ("error", type(exc))


@pytest.mark.parametrize(
    "app_index,seed", [(i, s) for i in range(len(APPS)) for s in range(2)],
    ids=[f"{APPS[i][0]}-{s}" for i in range(len(APPS)) for s in range(2)],
)
def test_random_delta_chains_match_cold_rebuild(app_index, seed):
    rng = random.Random(3000 + 17 * app_index + seed)
    _, make = APPS[app_index]
    app = make()
    program, topology, initial = app.program, app.topology, app.initial_state
    base = Pipeline(program, topology, initial)
    base.compiled
    for _ in range(3):
        delta = _random_delta(rng, program, initial, topology)
        cold = _outcome(
            lambda: Pipeline(
                delta.apply_program(program),
                delta.apply_topology(topology),
                delta.apply_initial_state(initial),
            ).compiled
        )
        incremental = _outcome(lambda: base.update(delta).compiled)
        assert incremental == cold, (
            f"update diverged from cold rebuild on delta {delta!r}"
        )
        if cold[0] == "error":
            break
        program = delta.apply_program(program)
        topology = delta.apply_topology(topology)
        initial = delta.apply_initial_state(initial)
        base = base.update(delta)
