"""The path compiler: NetKAT policies with links -> per-switch flow tables.

The paper's configurations (Figure 9, projected to a single state by
``⟦p⟧~k``) describe *end-to-end paths*: link-free processing segments
alternating with physical link crossings.  This module splits such a
policy at its links and compiles each hop into rules for the switch where
the hop executes, yielding a :class:`Configuration`:

1. normalize the policy into *alternations* -- sequences
   ``q0 ; L1 ; q1 ; ... ; Ln ; qn`` with link-free ``qi``;
2. symbolically execute each alternation hop by hop, carrying the
   *knowledge* (field constraints established by earlier hops, translated
   through modifications) forward across links;
3. build one FDD per switch (unioning all hops that execute there, which
   realizes NetKAT's multicast union semantics) and extract prioritized
   rules.

The resulting configuration is exactly the relation ``C`` of section 2:
switch steps come from the tables, link steps from the topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .ast import (
    Assign,
    Conj,
    Disj,
    Dup,
    FALSE,
    ID,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    Test,
    TRUE,
    Union,
    at_location,
    conj,
    neg,
    seq as seq_policy,
    test,
)
from .fdd import FDD, FDDBuilder, Leaf, Mod
from .flowtable import FlowTable, Match, Rule, table_of_fdd
from .packet import Location, LocatedPacket, Packet, PT, SW
from ..topology import Topology

__all__ = [
    "CompileError",
    "Alternation",
    "alternations",
    "link_free",
    "strip_dup",
    "Knowledge",
    "Configuration",
    "compile_policy",
    "knowledge_fdd",
]


class CompileError(Exception):
    """Raised when a policy falls outside the compilable fragment."""


# Knowledge states carried across one hop before compile_policy gives
# up on a policy whose path structure is too large.
MAX_FRONTIER = 4096


def link_free(p: Policy) -> bool:
    """True when the policy contains no link constructors."""
    if isinstance(p, Link):
        return False
    if isinstance(p, (Union, Seq)):
        return link_free(p.left) and link_free(p.right)
    if isinstance(p, Star):
        return link_free(p.operand)
    return True


def strip_dup(p: Policy) -> Policy:
    """Replace ``dup`` by the identity (dup only affects histories).

    Identity-preserving: dup-free subtrees come back as the same object,
    so the builder's id-keyed ``of_policy`` memo keeps hitting on the
    subtrees that per-state projections share.
    """
    if isinstance(p, Dup):
        return ID
    if isinstance(p, Union):
        left = strip_dup(p.left)
        right = strip_dup(p.right)
        return p if left is p.left and right is p.right else Union(left, right)
    if isinstance(p, Seq):
        left = strip_dup(p.left)
        right = strip_dup(p.right)
        return (
            p
            if left is p.left and right is p.right
            else seq_policy(left, right)
        )
    if isinstance(p, Star):
        inner = strip_dup(p.operand)
        if inner is p.operand:
            return p
        return ID if inner is ID else Star(inner)
    return p


@dataclass(frozen=True)
class Alternation:
    """One union branch of a policy: ``q0 ; L1 ; q1 ; ... ; Ln ; qn``."""

    segments: Tuple[Policy, ...]
    links: Tuple[Link, ...]

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.links) + 1:
            raise ValueError("an alternation needs one more segment than links")


def alternations(p: Policy) -> List[Alternation]:
    """Distribute unions and split sequences at link crossings.

    Kleene stars are only supported over link-free bodies; a star whose
    body crosses links would describe unboundedly long paths and is
    rejected (the paper's programs never need it).
    """
    if isinstance(p, Link):
        return [Alternation((ID, ID), (p,))]
    if isinstance(p, Union):
        return alternations(p.left) + alternations(p.right)
    if isinstance(p, Seq):
        out: List[Alternation] = []
        for a in alternations(p.left):
            for b in alternations(p.right):
                glue = seq_policy(a.segments[-1], b.segments[0])
                segments = a.segments[:-1] + (glue,) + b.segments[1:]
                out.append(Alternation(segments, a.links + b.links))
        return out
    if isinstance(p, Star):
        if not link_free(p.operand):
            raise CompileError(
                f"cannot compile {p!r}: Kleene star over a policy that "
                "crosses links is outside the compilable fragment"
            )
        return [Alternation((p,), ())]
    # Filters, assignments, dup -- link-free atoms.
    return [Alternation((p,), ())]


@dataclass(frozen=True)
class Knowledge:
    """Field constraints known to hold of the packet arriving at a hop.

    ``pos`` maps fields to their known values; ``neg`` maps fields to
    sets of excluded values.  Knowledge is carried across links so that
    downstream switches re-match the constraints that selected this path
    (unmodified fields keep their values across hops).

    Deliberately not a :class:`repro.formula.Formula`, though
    ``predicate()`` is its ``to_predicate()``: in ``compile_policy``'s
    per-hop loop sorted tuples build, hash and order faster than
    frozen-dataclass literals (replacing it measured -16 % / -10 % ops/s
    on ``compile_chain`` / ``compile_apps``; CHANGES.md, PR 20).
    """

    pos: Tuple[Tuple[str, int], ...] = ()
    neg: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    @staticmethod
    def empty() -> "Knowledge":
        return Knowledge()

    def predicate(self) -> Predicate:
        """The conjunction of all known constraints."""
        terms: List[Predicate] = [test(f, v) for f, v in self.pos]
        for f, excluded in self.neg:
            for v in excluded:
                terms.append(neg(test(f, v)))
        return conj(*terms)

    @staticmethod
    def after_hop(
        constraints: Sequence[Tuple[str, int, bool]],
        mod: Mod,
        dst: Location,
    ) -> "Knowledge":
        """Knowledge about the packet after this hop's mods and a link to ``dst``.

        ``constraints`` are the FDD path literals on the hop's arrival
        packet (which already include the incoming knowledge, because the
        hop FDD was built under it).
        """
        pos: Dict[str, int] = {}
        neg: Dict[str, Set[int]] = {}
        for f, v, is_eq in constraints:
            if is_eq:
                pos[f] = v
                neg.pop(f, None)
            elif f not in pos:
                neg.setdefault(f, set()).add(v)
        for f, v in mod:
            pos[f] = v
            neg.pop(f, None)
        pos[SW] = dst.switch
        pos[PT] = dst.port
        neg.pop(SW, None)
        neg.pop(PT, None)
        return Knowledge(
            pos=tuple(sorted(pos.items())),
            neg=tuple(sorted((f, tuple(sorted(vs))) for f, vs in neg.items() if vs)),
        )


class Configuration:
    """A compiled network configuration: per-switch tables over a topology.

    This realizes the relation ``C`` of section 2 -- switch-internal
    forwarding steps plus link steps -- and is the unit manipulated by
    event-driven updates.
    """

    def __init__(
        self,
        tables: Dict[int, FlowTable],
        topology: Topology,
        name: str = "",
    ):
        self._tables = dict(tables)
        for switch in topology.switches:
            self._tables.setdefault(switch, FlowTable())
        self.topology = topology
        self.name = name

    @property
    def tables(self) -> Dict[int, FlowTable]:
        return dict(self._tables)

    def table(self, switch: int) -> FlowTable:
        # Every switch of the topology has an entry (__init__); only a
        # foreign switch falls back to a fresh empty table.
        table = self._tables.get(switch)
        return table if table is not None else FlowTable()

    def on_topology(self, topology: Topology) -> "Configuration":
        """The same tables over ``topology``, which must have this
        configuration's switch set.

        :func:`compile_policy` reads only the switch set of its topology
        (the policy spells its own links), so the tables are valid for
        any topology with those switches; hosts and links reach the
        result through ``topology`` alone (:meth:`link_step`).  The
        table dict is shared, not copied.
        """
        if topology.switches != self.topology.switches:
            raise ValueError(
                "on_topology needs the same switch set: "
                f"{sorted(self.topology.switches)} != {sorted(topology.switches)}"
            )
        return self._sharing_tables(topology, self.name)

    def named(self, name: str) -> "Configuration":
        """The same tables (shared, not copied) under another name."""
        return self._sharing_tables(self.topology, name)

    def _sharing_tables(self, topology: Topology, name: str) -> "Configuration":
        # Assigned in ``__init__`` order, so the instance keeps the class's
        # shared-key attribute layout (``copy.copy`` does not, and
        # ``relates`` under the checker is measurably slower for it).
        other = Configuration.__new__(Configuration)
        other._tables, other.topology, other.name = self._tables, topology, name
        return other

    def rule_count(self) -> int:
        return sum(len(t) for t in self._tables.values())

    # -- the step relation C -------------------------------------------------

    def _switch_outputs(self, lp: LocatedPacket) -> Iterator[Packet]:
        """The winning rule's outputs at ``lp``'s switch, ``pt`` naming each
        one's egress port, minus the packet left in place: a switch step
        must move the packet, so a rule changing nothing is a no-op."""
        packet = lp.packet.at(lp.location)
        rule = self.table(lp.location.switch).lookup(packet)
        for mod in rule.actions if rule is not None else ():
            out = packet._with(mod)
            if out != packet:
                yield out

    def switch_step(self, lp: LocatedPacket) -> FrozenSet[LocatedPacket]:
        """Forward within a switch: table lookup, outputs at egress ports."""
        return frozenset(
            LocatedPacket(out, Location(lp.location.switch, out[PT]))
            for out in self._switch_outputs(lp)
        )

    def link_step(self, lp: LocatedPacket) -> FrozenSet[LocatedPacket]:
        """Cross a physical link, keeping all non-location fields."""
        outputs = set()
        for dst in self.topology.link_targets(lp.location):
            moved = lp.packet.at(dst)
            outputs.add(LocatedPacket(moved, dst))
        return frozenset(outputs)

    def step(self, lp: LocatedPacket) -> FrozenSet[LocatedPacket]:
        """One step of the relation C (switch forwarding or link crossing)."""
        return self.switch_step(lp) | self.link_step(lp)

    def relates(self, lp: LocatedPacket, lp2: LocatedPacket) -> bool:
        """``lp2 in self.step(lp)``, testing the pair alone."""
        here, there = lp.location, lp2.location
        if here.switch == there.switch:
            for out in self._switch_outputs(lp):
                if out[PT] == there.port and out == lp2.packet:
                    return True
        return self.topology.has_link(here, there) and lp2.packet == lp.packet.at(there)

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return f"Configuration({label}, {self.rule_count()} rules)"


def _sw_decomposition(
    builder: FDDBuilder, d: FDD
) -> Tuple[Dict[int, FDD], FDD]:
    """Split an FDD by its root-level ``sw`` tests.

    Returns (per-switch specializations, residual for untested switches).
    ``sw`` is first in the field order, so all sw tests sit at the root.
    """
    per_switch: Dict[int, FDD] = {}
    node = d
    seen: List[int] = []
    while not isinstance(node, Leaf) and node.field == SW:
        value = node.value
        specialized = builder.cofactor(d, SW, value)
        per_switch[value] = specialized
        seen.append(value)
        node = node.lo
    residual = node
    return per_switch, residual


def _prune_table(table: FlowTable) -> FlowTable:
    """Drop rules that cannot affect behavior.

    A drop rule is kept only when some lower-priority rule with actions
    overlaps its match (the drop shadows it); trailing drops merely
    restate the table's default.

    Lower-priority action rules are indexed by their exact-match fields,
    so each drop rule only examines the action rules that could possibly
    overlap on its most selective field (instead of rescanning the whole
    table suffix, which made pruning quadratic).
    """
    rules = list(table.rules)
    action_positions: List[int] = [i for i, r in enumerate(rules) if r.actions]
    # field -> value -> positions of action rules pinning field to value;
    # field -> positions of action rules not constraining field (those
    # overlap regardless of the drop rule's value).  All lists ascend.
    by_field_value: Dict[Tuple[str, int], List[int]] = {}
    field_positions: Dict[str, List[int]] = {}
    for pos in action_positions:
        for f, c in rules[pos].match.entries():
            if isinstance(c, int):
                by_field_value.setdefault((f, c), []).append(pos)
                field_positions.setdefault(f, []).append(pos)

    lacking_cache: Dict[str, List[int]] = {}

    def lacking(f: str) -> List[int]:
        cached = lacking_cache.get(f)
        if cached is None:
            with_field = set(field_positions.get(f, ()))
            cached = [p for p in action_positions if p not in with_field]
            lacking_cache[f] = cached
        return cached

    def candidates(rule: Rule) -> List[int]:
        best: Optional[Tuple[str, int]] = None
        best_count = None
        for f, c in rule.match.entries():
            if not isinstance(c, int):
                continue
            count = len(by_field_value.get((f, c), ())) + len(lacking(f))
            if best_count is None or count < best_count:
                best, best_count = (f, c), count
        if best is None:
            return action_positions
        return by_field_value.get(best, []) + lacking(best[0])

    kept: List[Rule] = []
    for i, rule in enumerate(rules):
        if rule.actions:
            kept.append(rule)
            continue
        shadows = any(
            pos > i and _matches_overlap(rule.match, rules[pos].match)
            for pos in candidates(rule)
        )
        if shadows:
            kept.append(rule)
    return FlowTable(kept)


def _matches_overlap(m1: Match, m2: Match) -> bool:
    """Can some packet satisfy both matches? (conservative for prefixes)."""
    for f, c1 in m1.entries():
        c2 = m2.get(f)
        if c2 is None:
            continue
        if isinstance(c1, int) and isinstance(c2, int) and c1 != c2:
            return False
    return True


_at_location_predicates: Dict[Location, Predicate] = {}


def _at_location_interned(location: Location) -> Predicate:
    """A canonical ``at_location`` predicate AST per location.

    ``compile_policy`` builds one reach-link guard per hop per call; the
    builder's id-keyed ``of_predicate`` memo would pin a fresh throwaway
    AST per compile, so the predicate objects are interned here (bounded
    by the distinct locations ever compiled) and every compile hits the
    same memo entry.
    """
    a = _at_location_predicates.get(location)
    if a is None:
        a = at_location(location)
        _at_location_predicates[location] = a
    return a


def knowledge_fdd(builder: FDDBuilder, knowledge: Knowledge) -> FDD:
    """The predicate FDD of a :class:`Knowledge`, cached on the builder.

    ``compile_policy`` re-derives the same knowledge predicates for every
    frontier state of every hop (and the runtime compiles every
    configuration against one shared builder), so the FDDs are memoized
    in the builder's own ``knowledge_fdds`` dict, keyed by the canonical
    ``(pos, neg)`` tuple: 70-97 % of lookups hit on the compile and
    update workloads.
    """
    cache = builder.knowledge_fdds
    key = (knowledge.pos, knowledge.neg)
    d = cache.get(key)
    if d is None:
        d = builder.of_predicate(knowledge.predicate())
        cache[key] = d
    return d


def compile_policy(
    policy: Policy,
    topology: Topology,
    builder: Optional[FDDBuilder] = None,
    name: str = "",
) -> Configuration:
    """Compile a configuration policy to per-switch flow tables.  The
    configuration tag guards the merged tables only
    (:meth:`repro.runtime.compiler.CompiledNES.guarded_tables`)."""
    builder = builder or FDDBuilder()
    per_switch_fdd: Dict[int, FDD] = {n: builder.drop for n in topology.switches}

    for alt in alternations(strip_dup(policy)):
        frontier: List[Knowledge] = [Knowledge.empty()]
        for hop_index, segment in enumerate(alt.segments):
            is_final = hop_index == len(alt.links)
            # The hop body is knowledge-independent: compile it once and
            # sequence each frontier state's knowledge FDD in front of it.
            hop_fdd = builder.of_policy(segment)
            if not is_final:
                link_ = alt.links[hop_index]
                reach_link = builder.of_predicate(_at_location_interned(link_.src))
                hop_fdd = builder.seq(hop_fdd, reach_link)
            next_frontier: Set[Knowledge] = set()
            for knowledge in frontier:
                d = builder.seq(knowledge_fdd(builder, knowledge), hop_fdd)
                if d is builder.drop:
                    continue
                switch_fdds, residual = _sw_decomposition(builder, d)
                for switch, fdd_n in switch_fdds.items():
                    if switch in per_switch_fdd:
                        per_switch_fdd[switch] = builder.union(
                            per_switch_fdd[switch], fdd_n
                        )
                if not (isinstance(residual, Leaf) and not residual.actions):
                    # Paths that never pin ``sw`` apply at every switch.
                    for switch in per_switch_fdd:
                        per_switch_fdd[switch] = builder.union(
                            per_switch_fdd[switch],
                            builder.cofactor(residual, SW, switch),
                        )
                if is_final:
                    continue
                for constraints, actions in builder.paths(d):
                    for mod in actions:
                        next_frontier.add(
                            Knowledge.after_hop(constraints, mod, link_.dst)
                        )
                if len(next_frontier) > MAX_FRONTIER:
                    raise CompileError(
                        f"symbolic frontier exceeded {MAX_FRONTIER} states; "
                        "the policy path structure is too large"
                    )
            if not is_final:
                frontier = sorted(next_frontier, key=lambda k: (k.pos, k.neg))
                if not frontier:
                    break  # no packet reaches the next hop on this branch

    tables = {
        switch: _prune_table(table_of_fdd(builder, fdd_n))
        for switch, fdd_n in per_switch_fdd.items()
    }
    return Configuration(tables, topology, name=name)
