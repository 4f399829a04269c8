"""The implementation pipeline of section 4: NES -> deployable artifacts.

Five steps (section 1, "Implementing Network Programs"):

1. encode the event-sets of the NES as flat integer tags;
2. compile each configuration to per-switch flow tables;
3. guard each configuration's rules with its tag;
4. stamp incoming packets with the tag of the current event-set;
5. learn events from packet digests and forward them onward.

Steps 1-3 are realized here.  Steps 4-5 are the switch-local behavior of
the operational semantics (:mod:`repro.runtime.semantics`), which the
paper likewise folds into the runtime (the IN and SWITCH rules); their
rule-space cost is accounted for by :meth:`CompiledNES.stamp_rule_count`
so total rule counts include them.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .. import faults
from ..events.event import Event, EventSet
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..events.locality import locality_violations
from ..events.nes import NES
from ..formula import EQ, Literal
from ..netkat.ast import Policy
from ..netkat.compiler import CompileError, Configuration, compile_policy
from ..netkat.fdd import FDDBuilder
from ..netkat.flowtable import FlowTable, Match, Rule
from ..netkat.packet import PT, Packet
from ..stateful.ast import StateVector
from ..topology import Topology

__all__ = ["TAG_FIELD", "CompiledNES", "Leaf", "LocalityError", "compile_nes"]

# The packet metadata field carrying the configuration tag in deployed
# (guarded) tables; a single unused header field, as section 4.1 argues.
TAG_FIELD = "tag"

def _default_options():
    # Imported lazily: repro.pipeline imports this module at load time.
    from ..pipeline import CompileOptions

    return CompileOptions()


def _pipeline_errors():
    # Imported lazily for the same reason.
    from ..pipeline import PipelineError, StageError

    return PipelineError, StageError


# Deterministic exponential backoff between per-configuration retry
# attempts: no jitter (chaos runs must replay), capped so an exhausted
# retry budget costs milliseconds, not seconds.
_BACKOFF_BASE_SECONDS = 0.001
_BACKOFF_CAP_SECONDS = 0.05


def _backoff_delay(attempt: int) -> float:
    return min(_BACKOFF_BASE_SECONDS * (2 ** attempt), _BACKOFF_CAP_SECONDS)


def _compile_configurations(
    nes: NES,
    topology: Topology,
    states: Tuple[StateVector, ...],
    builder: Optional[FDDBuilder],
    options,
    health: Optional[Dict[str, int]] = None,
    reuse: Optional[Mapping[StateVector, Configuration]] = None,
) -> Tuple[Dict[StateVector, Configuration], int]:
    """Compile every configuration, one after another, on ``builder``
    (a fresh one when ``None``); also returns how many
    ``compile_policy`` runs that took.

    ``reuse`` maps states to already-compiled configurations that are
    adopted as-is (the incremental-recompilation seam:
    :meth:`repro.pipeline.Pipeline.update` passes the unaffected
    configurations of the pre-delta artifact).  Because tables are a
    pure function of (policy, switch set) — links live in the program,
    and ``compile_policy`` reads nothing else of the topology — a
    reused configuration is byte-identical to
    what a fresh compile would produce; the caller is responsible for
    only offering entries whose policy and switch set are unchanged,
    homed on ``topology``.  By the same purity, the states that are not
    adopted are indexed by their configuration policy (structural
    equality) and ``compile_policy`` runs once per *distinct* policy:
    the first state of a policy is compiled, every later one holds the
    same immutable :class:`FlowTable` objects under its own name (a
    cap-N chain has N+2 states and two policies).  The result dict is
    built in ``states`` order regardless, so neither reuse nor sharing
    perturbs iteration (or pickle) order.

    Failure discipline (the fault-tolerance layer):

    - every per-configuration attempt passes the ``executor.worker``
      fault site and is retried up to ``options.compile_retries`` times
      with deterministic backoff (counted in ``health``), except after a
      :class:`~repro.netkat.compiler.CompileError`, which is
      deterministic and fails on its first attempt;
    - ``options.deadline_seconds`` bounds the stage wall clock,
      checked between attempts (one configuration is never preempted);
    - a failure that survives retry surfaces as a typed
      :class:`~repro.pipeline.StageError` with stage provenance, never
      as a bare exception.
    """
    PipelineError, StageError = _pipeline_errors()
    health = health if health is not None else {}
    reuse = reuse if reuse is not None else {}
    pending: Tuple[StateVector, ...] = tuple(
        state for state in states if state not in reuse
    )
    if builder is None and pending:
        builder = FDDBuilder()

    retries = options.compile_retries
    deadline = (
        time.monotonic() + options.deadline_seconds
        if options.deadline_seconds is not None
        else None
    )

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise StageError(
                "compile",
                f"deadline_seconds={options.deadline_seconds} exceeded "
                f"with {len(pending)} configuration(s) in flight",
            )

    def compile_one(state: StateVector) -> Configuration:
        attempt = 0
        while True:
            check_deadline()
            try:
                with obs_trace.span(
                    "compile.configuration",
                    configuration=f"C{list(state)}",
                    attempt=attempt,
                ):
                    faults.check("executor.worker")
                    return compile_policy(
                        nes.configuration_policy(state),
                        topology,
                        builder=builder,
                        name=f"C{list(state)}",
                    )
            except PipelineError:
                raise  # typed failures (e.g. deadline) are not transient
            except Exception as exc:
                # A CompileError says the program is outside the
                # compilable fragment: a property of the input, which no
                # further attempt changes.
                if attempt >= retries or isinstance(exc, CompileError):
                    raise StageError(
                        "compile",
                        f"configuration C{list(state)} failed after "
                        f"{attempt + 1} attempt(s): {exc!r}",
                    ) from exc
                obs_metrics.count_health(health, "executor.retries")
                with obs_trace.span("compile.backoff", attempt=attempt):
                    time.sleep(_backoff_delay(attempt))
                attempt += 1

    first: Dict[Policy, Configuration] = {}
    fresh: Dict[StateVector, Configuration] = {}
    for state in pending:
        policy = nes.configuration_policy(state)
        shared = first.get(policy)
        if shared is None:
            fresh[state] = first[policy] = compile_one(state)
        else:
            fresh[state] = shared.named(f"C{list(state)}")
    if obs_metrics.active() is not None:
        for result, count in (
            ("compiled", len(first)),
            ("shared", len(pending) - len(first)),
            ("adopted", len(states) - len(pending)),
        ):
            obs_metrics.inc(
                "repro_compile_configurations_total", count, result=result,
                help="Configurations by how the compile obtained their tables",
            )
    # States order, whatever mix of reused/fresh produced the parts.
    done = {**reuse, **fresh}
    return {state: done[state] for state in states}, len(first)


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


class CompiledNES:
    """An NES compiled to tags, per-state configurations, and guarded tables."""

    def __init__(
        self,
        nes: NES,
        topology: Topology,
        builder: Optional[FDDBuilder] = None,
        options=None,
        health: Optional[Dict[str, int]] = None,
        reuse_configurations: Optional[
            Mapping[StateVector, Configuration]
        ] = None,
    ):
        """Compile ``nes`` over ``topology`` under ``options``.

        ``options`` is a :class:`repro.pipeline.CompileOptions` (default
        constructed when omitted); ``builder`` defaults to a fresh
        :class:`FDDBuilder`, and is not kept once the configurations are
        compiled.  This constructor does not check that the NES is
        locally determined; :func:`compile_nes` does.

        ``health`` is an optional counter dict (the pipeline passes its
        own) that the per-configuration retry bookkeeping increments; it
        is observed during construction only and never stored on the
        instance (artifacts stay health-free).

        ``reuse_configurations`` maps states to already-compiled
        configurations adopted without recompiling (see
        :func:`_compile_configurations`); entries for states this NES
        does not have are ignored.  Callers must only offer entries
        whose policy and switch set are unchanged (tables are a pure
        function of policy and switch set; links live in the program),
        homed on ``topology`` — adopted entries are then byte-identical
        to a fresh compile.
        """
        if options is None:
            options = _default_options()
        self.options = options
        self.nes = nes
        self.topology = topology
        # The guarded merge, built on first use.
        self._guarded_tables: Optional[Dict[int, FlowTable]] = None
        # What the simulator forwards by (see :meth:`classify`): tag
        # mask -> switch -> decision tree over the merge.
        self._roots: Dict[Optional[int], Dict[int, object]] = {}

        # Step 1: flat integer encodings.
        self.states: Tuple[StateVector, ...] = nes.configuration_states()
        self.config_ids: Dict[StateVector, int] = {
            state: i for i, state in enumerate(self.states)
        }
        self.event_sets: Tuple[EventSet, ...] = tuple(
            sorted(nes.event_sets(), key=lambda s: (len(s), sorted(map(repr, s))))
        )
        self.event_set_ids: Dict[EventSet, int] = {
            s: i for i, s in enumerate(self.event_sets)
        }
        # Digest bits reuse the event structure's interning (also sorted
        # by repr), so digests and the locality engine agree bit-for-bit.
        self.event_bits: Dict[Event, int] = dict(nes.structure.event_index)

        # Step 2: compile every configuration, counting the
        # ``compile_policy`` runs (never pickled: a loaded artifact took none).
        self.configurations: Dict[StateVector, Configuration]
        self.configurations, self.compiled_configurations = (
            _compile_configurations(
                nes, topology, self.states, builder, options,
                health=health, reuse=reuse_configurations,
            )
        )
        self._deposit()

    def _deposit(self) -> None:
        """Leave the finished configurations on the NES as its compiled
        ``g``: a copy, so that replacing an entry of ``configurations``
        never changes what the checker holds traces against."""
        self.nes.compiled = (self.topology.switches, dict(self.configurations))

    # -- tag and digest encodings ----------------------------------------------

    def tag_of_event_set(self, event_set: Iterable[Event]) -> int:
        """The configuration tag stamped on packets entering at this event-set."""
        return self.config_ids[self.nes.state_of(frozenset(event_set))]

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

        The merged tables are memoized (``forwarding_rule_count``, repr,
        and the runtime all re-derive them).  A fresh dict over the
        immutable :class:`FlowTable` values is returned each call, so
        callers may mutate the mapping without corrupting the cache.  Use
        :meth:`invalidate_guarded_tables` after replacing a
        configuration in ``self.configurations``.
        """
        memo = self._guarded_tables
        if memo is None:
            tables: Dict[int, List[Rule]] = {n: [] for n in self.topology.switches}
            for state in self.states:
                config_id = self.config_ids[state]
                config = self.configurations[state]
                for switch, table in config.tables.items():
                    for rule in table:
                        guarded_match = rule.match.guarded(TAG_FIELD, config_id)
                        tables.setdefault(switch, []).append(
                            Rule(rule.priority, guarded_match, rule.actions)
                        )
            memo = {n: FlowTable(rules) for n, rules in tables.items()}
            self._guarded_tables = memo
        return dict(memo)

    def invalidate_guarded_tables(self) -> None:
        """Drop the memoized merge and the decision trees indexing it
        (rebuilt on access)."""
        self._guarded_tables = None
        self._roots = {}

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
        """Build the decision trees, switch -> root, of the configuration
        ``tag_mask`` stamps from the guarded merge, every rule of which
        must be guarded by a plain configuration id."""
        config_id = self.tag_of_event_set(self.nes.structure.decode(tag_mask or 0))
        root: Dict[int, object] = {}
        for switch, table in self.guarded_tables().items():
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
                if constraints.pop(TAG_FIELD) == config_id:
                    rules.append((constraints, rule.actions))
            root[switch] = _decision_tree(rules, events, {})
        self._roots[tag_mask] = root
        return root

    def adopt_guarded_tables(self, other: "CompiledNES") -> None:
        """Take over the merge ``other`` has memoized, if it has.

        The merge is a function of the state tuple (hence the config
        ids guarding each rule), the per-configuration tables and the
        switch set; the caller vouches that all three are ``other``'s.
        The memo dict is never mutated once built, so sharing it leaves
        either side free to invalidate its own; the immutable
        :class:`FlowTable` values are shared.
        """
        self._guarded_tables = other._guarded_tables

    # -- persistence ------------------------------------------------------------

    def __getstate__(self):
        """Pickle without the merged-table memo or its trees.

        The pipeline's artifact cache persists compiled NESs; shipping
        the derived tables would bloat artifacts and could resurrect
        tables a caller had explicitly invalidated.  No option
        value is persisted: options describe how the storing run
        executed (the cache-signing key among them, which must never
        land inside the file it signs), not what it produced; a loading
        pipeline stamps in its own.
        """
        state = dict(self.__dict__)
        del state["_roots"], state["compiled_configurations"]
        del state["options"]
        state["_guarded_tables"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.options = _default_options()
        self._roots = {}
        self.compiled_configurations = 0
        self._deposit()

    def forwarding_rule_count(self) -> int:
        """Rules in the guarded merged tables (steps 1-3)."""
        return sum(len(t) for t in self.guarded_tables().values())

    def config_rule_count(self) -> int:
        """Forwarding rules summed per configuration, without forcing
        the guarded merge.

        The merge keeps exactly one rule per (configuration, rule), so
        this equals :meth:`forwarding_rule_count` — but stays cheap and
        total (the merge raises on a program matching on the tag field); repr and
        :meth:`Pipeline.report` use it to remain plain observers.
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
            f"{self.config_rule_count() + self.stamp_rule_count()} rules)"
        )


def compile_nes(
    nes: NES,
    topology: Topology,
    builder: Optional[FDDBuilder] = None,
    options=None,
    health: Optional[Dict[str, int]] = None,
    reuse_configurations: Optional[Mapping[StateVector, Configuration]] = None,
) -> CompiledNES:
    """Compile an NES, first checking the locally-determined condition.

    Implementations of non-locally-determined NESs must synchronize or
    buffer (Lemma 1), which this runtime does not do -- so compilation
    refuses them.  ``options`` is a
    :class:`repro.pipeline.CompileOptions`; ``reuse_configurations`` is
    the incremental-recompilation seam of :class:`CompiledNES`.
    """
    violations = locality_violations(nes)
    if violations:
        sample = next(iter(violations))
        raise LocalityError(
            "NES is not locally determined: the minimally-inconsistent "
            f"set {set(sample)} spans multiple switches "
            f"({len(violations)} violation(s) total)"
        )
    return CompiledNES(
        nes, topology, builder=builder, options=options, health=health,
        reuse_configurations=reuse_configurations,
    )
