"""The implementation pipeline of section 4: NES -> deployable artifacts.

Five steps (section 1, "Implementing Network Programs"):

1. encode the event-sets of the NES as flat integer tags;
2. compile each configuration to per-switch flow tables;
3. guard each configuration's rules with its tag;
4. stamp incoming packets with the tag of the current event-set;
5. learn events from packet digests and forward them onward.

Steps 1 and 3 are realized here, in :class:`CompiledNES`, the artifact.
Step 2 is the compile stage of :class:`repro.pipeline.Pipeline`, which
hands the artifact its finished configurations.  Steps 4-5 are the
switch-local behavior of the operational semantics
(:mod:`repro.runtime.semantics`), which the paper likewise folds into
the runtime (the IN and SWITCH rules); their rule-space cost is
accounted for by :meth:`CompiledNES.stamp_rule_count` so total rule
counts include them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..events.event import Event
from ..events.locality import locality_violations
from ..events.nes import NES
from ..formula import EQ, Literal
from ..netkat.compiler import Configuration
from ..netkat.flowtable import FlowTable, Rule
from ..netkat.packet import PT, Packet
from ..stateful.ast import StateVector
from ..topology import Topology

__all__ = ["TAG_FIELD", "CompiledNES", "Leaf", "LocalityError", "check_locally_determined"]

# The packet metadata field carrying the configuration tag in deployed
# (guarded) tables; a single unused header field, as section 4.1 argues.
TAG_FIELD = "tag"


class Leaf:
    """Where one descent of a switch's decision tree ends.

    ``mods`` are the winning rule's modifications (none: drop) and
    ``events`` the mask of events whose location and guard the packet
    satisfies.  When ``ordered``, every modification writes the same
    fields, ``pt`` among them, and ``mods`` is in emission order: the
    order ``sorted(outputs, key=repr)`` gives, because in a packet's repr
    the character after a value (``,`` or ``)``) sorts below every digit
    and ``-``, so the first differing written field decides.  Otherwise
    the outputs are deduplicated and sorted per packet.
    """

    __slots__ = ("mods", "ordered", "events")

    def __init__(self, actions: FrozenSet[Tuple], events: int):
        written = {tuple(field for field, _ in mod) for mod in actions}
        self.ordered = len(written) <= 1 and all(PT in fields for fields in written)
        self.mods: Tuple[Tuple, ...] = tuple(
            sorted(actions, key=lambda mod: tuple(str(value) for _, value in mod))
            if self.ordered
            else actions
        )
        self.events = events

    def outputs(self, packet: Packet) -> List[Packet]:
        """The rule's output packets for ``packet``, in emission order."""
        if self.ordered:
            return [packet._with(mod) for mod in self.mods]
        return sorted({packet._with(mod) for mod in self.mods}, key=repr)


def _decision_tree(rules, events, leaves):
    """Index one configuration's rules at one switch, with the events
    located there, as ``(field, {value: child}, default)`` nodes over
    :class:`Leaf` leaves.

    ``rules`` are ``(constraints, actions)`` in priority order and
    ``events`` ``(bit, literals)``, both holding only what no ancestor
    has tested.  A value the node does not list and a missing field take
    ``default``: an exact-match constraint fails on them, and so does an
    ``=`` literal, while a ``!=`` literal holds.
    """
    for position, (constraints, _) in enumerate(rules):
        if not constraints:  # shadows every rule after it
            rules = rules[: position + 1]
            break
    fields = {field for constraints, _ in rules for field in constraints}
    fields.update(l.field for _, literals in events for l in literals)
    if not fields:
        actions = rules[0][1] if rules else frozenset()
        mask = sum(bit for bit, _ in events)
        return leaves.setdefault((actions, mask), Leaf(actions, mask))
    field = PT if PT in fields else min(fields)

    def child(value):
        below_rules = [
            ({f: c for f, c in constraints.items() if f != field}, actions)
            for constraints, actions in rules
            if constraints.get(field, value) == value
        ]
        below_events = [
            (bit, tuple(l for l in literals if l.field != field))
            for bit, literals in events
            if all(
                (l.value == value) == (l.op == EQ)
                for l in literals
                if l.field == field
            )
        ]
        return _decision_tree(below_rules, below_events, leaves)

    values = {c[field] for c, _ in rules if field in c}
    values.update(
        l.value for _, literals in events for l in literals if l.field == field
    )
    return (field, {value: child(value) for value in values}, child(None))


class LocalityError(Exception):
    """The NES is not locally determined, so it cannot be implemented
    without synchronization or buffering (Lemma 1)."""


def check_locally_determined(nes: NES) -> None:
    """Refuse an NES that is not locally determined.

    Implementations of such NESs must synchronize or buffer (Lemma 1),
    which this runtime does not do -- so the compile stage runs this
    first and raises :class:`LocalityError`.
    """
    violations = locality_violations(nes)
    if violations:
        sample = next(iter(violations))
        raise LocalityError(
            "NES is not locally determined: the minimally-inconsistent "
            f"set {set(sample)} spans multiple switches "
            f"({len(violations)} violation(s) total)"
        )


class CompiledNES:
    """An NES compiled to tags, per-state configurations, and guarded tables."""

    def __init__(
        self,
        nes: NES,
        topology: Topology,
        configurations: Mapping[StateVector, Configuration],
        merge: Optional[List[Optional[Dict[int, FlowTable]]]] = None,
    ):
        """The artifact of ``nes`` over ``topology``, given the compiled
        configuration of every configuration state, and optionally the
        one-item cell of its guarded merge, which every artifact with
        the same states and tables may share.  Whether the NES is
        locally determined is not checked here;
        :func:`check_locally_determined` does."""
        self.nes = nes
        self.topology = topology
        # Step 1: a state's configuration tag is its position.
        self.states: Tuple[StateVector, ...] = nes.configuration_states()
        self.config_ids: Dict[StateVector, int] = {
            state: i for i, state in enumerate(self.states)
        }
        self.configurations: Dict[StateVector, Configuration] = dict(configurations)
        # The guarded merge, built on first use by whichever sharer of
        # the cell needs it first.
        self._merge = [None] if merge is None else merge
        # What the simulator forwards by (:meth:`classify`): a decision
        # tree per (switch, table), viewed per tag mask.
        self._trees: Dict[Tuple[int, FlowTable], object] = {}
        self._roots: Dict[Optional[int], Dict[int, object]] = {}
        self._deposit()

    def _deposit(self) -> None:
        """Leave the finished configurations on the NES as its compiled
        ``g``: a copy, so that replacing an entry of ``configurations``
        never changes what the checker holds traces against."""
        self.nes.compiled = (self.topology.switches, dict(self.configurations))

    # -- configuration access ---------------------------------------------------

    def config_for_state(self, state: StateVector) -> Configuration:
        return self.configurations[state]

    def config_for_event_set(self, event_set: Iterable[Event]) -> Configuration:
        return self.configurations[self.nes.state_of(frozenset(event_set))]

    # -- step 3: guarded merged tables ------------------------------------------

    def guarded_tables(self) -> Dict[int, FlowTable]:
        """One deployable table per switch: every configuration's rules,
        each guarded by its configuration tag in :data:`TAG_FIELD`.

        Priorities are partitioned per configuration; tags make the
        partitions disjoint, so relative priorities within each
        configuration are preserved.

        The merged tables are memoized, and each table keeps its rules'
        wire lines once, split where the tag goes; a merged table makes
        its guarded rules when first iterated.  A fresh dict over the
        immutable :class:`FlowTable` values is returned each call, so
        callers may mutate the mapping without corrupting the cache.
        """
        memo = self._merge[0]
        if memo is None:
            merged: Dict[int, List] = {n: [] for n in self.topology.switches}
            for state, config_id in self.config_ids.items():
                for switch, table in self.configurations[state]._tables.items():
                    merged.setdefault(switch, []).append((config_id, table._guarded(TAG_FIELD)))
            memo = {n: FlowTable._merged(TAG_FIELD, parts) for n, parts in merged.items()}
            self._merge[0] = memo
        return dict(memo)

    def classify(self, switch: int, tag_mask: Optional[int], packet: Packet) -> Leaf:
        """One descent of the guarded table of ``switch``: the
        :class:`Leaf` for ``packet`` (located at the switch) among the
        rules guarded by the configuration that ``tag_mask`` stamps.  A
        tag that is no event-set of the NES raises ``KeyError``."""
        try:
            node = self._roots[tag_mask][switch]
        except KeyError:
            node = self._root(tag_mask)[switch]
        while node.__class__ is tuple:
            field, children, default = node
            node = children.get(packet.get(field), default)
        return node

    def _root(self, tag_mask: Optional[int]) -> Dict[int, object]:
        """The decision trees, switch -> root, of the configuration
        ``tag_mask`` stamps: its table at each switch, whose rules must
        be exact matches, indexed once per (switch, table)."""
        self.guarded_tables()  # refuse what cannot be served
        state = self.nes.state_of_mask(tag_mask or 0)
        root: Dict[int, object] = {}
        for switch, table in self.configurations[state]._tables.items():
            tree = self._trees.get((switch, table))
            if tree is None:
                events = [
                    (1 << index, (Literal(PT, EQ, e.location.port), *e.guard.literals))
                    for index, e in enumerate(self.nes.structure.universe)
                    if e.location.switch == switch
                ]
                rules = []
                for rule in table:
                    constraints = dict(rule.match.entries())
                    if not all(c.__class__ is int for c in constraints.values()):
                        raise ValueError(f"cannot index non-exact match of {rule!r}")
                    rules.append((constraints, rule.actions))
                tree = self._trees[switch, table] = _decision_tree(rules, events, {})
            root[switch] = tree
        self._roots[tag_mask] = root
        return root

    # -- persistence ------------------------------------------------------------

    def __getstate__(self):
        """Pickle the artifact alone, without the merged-table memo or
        its trees (derived on demand after a load).

        No option value is persisted: options describe how the storing
        run executed (the cache-signing key among them, which must
        never land inside the file it signs), not what it produced; the
        loading pipeline sets its own.
        """
        return {
            name: self.__dict__[name]
            for name in ("nes", "topology", "states", "config_ids", "configurations")
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._merge = [None]
        self._trees = {}
        self._roots = {}
        self._deposit()

    def forwarding_rule_count(self) -> int:
        """Forwarding rules (steps 1-3), summed per configuration.

        The guarded merge keeps exactly one rule per (configuration,
        rule), so this is its size without forcing it: repr and
        :meth:`Pipeline.report` stay plain observers, even of a program
        whose merge raises because it matches on the tag field.
        """
        return sum(
            len(table)
            for config in self.configurations.values()
            for table in config.tables.values()
        )

    def stamp_rule_count(self) -> int:
        """Rules implementing ingress stamping (step 4).

        One rule per host-facing port per configuration tag: "if the
        local register maps to tag j, set tag <- j on packets entering
        this port".
        """
        return len(self.topology.edge_locations()) * len(self.states)

    def total_rule_count(self) -> int:
        """The §5.1 metric: forwarding + stamping rules."""
        return self.forwarding_rule_count() + self.stamp_rule_count()

    # -- per-configuration rule view (input to the §5.3 optimizer) --------------

    def rules_by_configuration(self, switch: int) -> Dict[int, FrozenSet[Rule]]:
        """Unguarded rule sets per configuration ID at one switch."""
        out: Dict[int, FrozenSet[Rule]] = {}
        for state in self.states:
            config_id = self.config_ids[state]
            out[config_id] = frozenset(self.configurations[state].table(switch).rules)
        return out

    def __repr__(self) -> str:
        return (
            f"CompiledNES({len(self.states)} configurations, "
            f"{len(self.nes.events)} events, "
            f"{self.total_rule_count()} rules)"
        )

