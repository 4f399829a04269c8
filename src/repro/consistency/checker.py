"""Correctness of network traces with respect to an NES (Definition 6).

A trace is correct when either no event ever fires and every packet is
processed by the initial configuration ``g(∅)``, or some event sequence
allowed by the NES turns the trace into a correct event-driven
consistent update.  The checker searches the (finite) space of allowed
sequences; it is the empirical counterpart of Theorem 1 and is exercised
by the test suite against traces produced by the runtime semantics.
Configurations are not compiled here: Definition 5's ``g`` arrives
compiled on the NES (``NES.compiled``, left by ``CompiledNES``) and is
adopted when its switch set is the topology's; only an NES nobody
compiled is compiled on demand, on a builder made at the first miss.

The search runs on interned event bitmasks: per-position match masks
are computed once per trace, candidate sequences are pruned and
enumerated on ints, first occurrences and the quiet case test single
bits, and ``Traces(C)`` membership is memoized across candidate
sequences (the chains share prefixes, so the same (configuration,
packet-trace) pairs recur).  Candidate sequences are enumerated
*lazily*, so a correct trace early-exits after its first matching
sequence -- ``sequences_tried`` counts how many Definition 2 checks the
last :meth:`NESChecker.check` actually ran.  The frozenset reference for
each step lives at the layer that defines it:
:func:`~repro.consistency.update.check_update_correctness` called
without the mask keywords is Definition 2 on frozensets, and
``Event.matches`` is the quiet-case test.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..events.event import Event
from ..events.nes import NES
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..netkat.compiler import Configuration, compile_policy
from ..netkat.fdd import FDDBuilder
from ..stateful.ast import StateVector
from ..topology import Topology
from .traces import NetworkTrace, packet_trace_in_traces, position_event_masks
from .update import CorrectnessReport, EventDrivenUpdate, check_update_correctness

__all__ = ["NESChecker", "check_trace_against_nes"]


class NESChecker:
    """Checks traces against an NES over ``topology``, by the compiled
    ``g`` the NES carries when it was compiled for this switch set."""

    def __init__(self, nes: NES, topology: Topology):
        self.nes = nes
        self.topology = topology
        switches, deposited = nes.compiled or (None, {})
        self._deposited = deposited if switches == topology.switches else {}
        self._builder: Optional[FDDBuilder] = None  # made on the first miss
        self._configs_by_mask: Dict[int, Configuration] = {}
        self._ambient: FrozenSet[Event] = frozenset(nes.events)
        # Number of candidate sequences the last check() ran Definition 2
        # on (the lazy-enumeration counter hook).
        self.sequences_tried = 0

    def configuration(self, state: StateVector) -> Configuration:
        """``g`` at ``state`` over this checker's topology: the deposited
        configuration, compiled here only for an NES nobody compiled."""
        config = self._deposited.get(state)
        obs_metrics.inc(
            "repro_checker_configurations_total",
            result="compiled" if config is None else "adopted",
            help="NESChecker configurations, taken from the NES or compiled",
        )
        if config is not None:
            same = config.topology is self.topology
            return config if same else config.on_topology(self.topology)
        if self._builder is None:
            self._builder = FDDBuilder()
        return compile_policy(
            self.nes.configuration_policy(state),
            self.topology,
            builder=self._builder,
            name=f"C{list(state)}",
        )

    def config_of_event_set(self, event_set: FrozenSet[Event]) -> Configuration:
        return self._config_of_mask(self.nes.structure.encode(event_set))

    def _config_of_mask(self, mask: int) -> Configuration:
        """The configuration of an encoded event-set, memoized: no
        frozensets materialize between checker steps after the first
        visit of a collected-mask, and its ``id`` is stable."""
        cached = self._configs_by_mask.get(mask)
        if cached is None:
            event_set = self.nes.structure.decode(mask)
            cached = self.configuration(self.nes.state_of(event_set))
            self._configs_by_mask[mask] = cached
        return cached

    # -- Definition 6 ----------------------------------------------------------

    def check(self, trace: NetworkTrace) -> CorrectnessReport:
        """Is the trace correct with respect to the NES?"""
        with obs_trace.span("checker.check") as check_span:
            report = self._check_impl(trace)
            # sequences_tried stays the legacy per-check attribute; the
            # registry accumulates the same counts across checks.
            obs_metrics.inc(
                "repro_checker_sequences_tried_total",
                by=self.sequences_tried,
                help="Definition 2 checks run across all NESChecker.check "
                     "calls (the lazy candidate-sequence counter)",
            )
            check_span.set(
                sequences_tried=self.sequences_tried, correct=bool(report)
            )
            return report

    def _check_impl(self, trace: NetworkTrace) -> CorrectnessReport:
        self.sequences_tried = 0
        masks = position_event_masks(trace, self.nes.structure.universe)
        if not any(masks):
            return self._check_no_events(trace)

        happens_before = trace.happens_before()
        membership = self._membership_memo()
        ambient_mask = self.nes.structure.all_mask
        reports: List[CorrectnessReport] = []
        for sequence, bits in self._candidate_sequences(masks):
            self.sequences_tried += 1
            report = check_update_correctness(
                trace,
                self._update_of_sequence(sequence, bits),
                happens_before=happens_before,
                position_masks=masks,
                event_bits=bits,
                ambient_mask=ambient_mask,
                membership=membership,
            )
            if report:
                return report
            reports.append(report)
        if not reports:
            return CorrectnessReport(
                False,
                "no event sequence allowed by the NES matches the trace "
                "(and some packet matches an event, so the quiet case "
                "does not apply)",
            )
        # Surface the most informative failure: prefer reports whose FO
        # existed (their reason names a concrete violating packet trace).
        for report in reports:
            if report.reason != "FO(ntr, U) does not exist":
                return report
        return reports[0]

    def _membership_memo(self) -> Callable:
        """A per-check ``Traces(C)`` membership memo: candidate chains
        share configuration prefixes, so the same (configuration,
        packet-trace) pairs recur across sequences.  The chain's
        configurations are memoized by mask, so their ids are stable."""
        memo: Dict[Tuple[int, Tuple[int, ...]], bool] = {}

        def member(config: Configuration, trace: NetworkTrace, t) -> bool:
            key = (id(config), t)
            hit = memo.get(key)
            if hit is None:
                hit = packet_trace_in_traces(config, trace.packet_trace(t))
                memo[key] = hit
            return hit

        return member

    def _check_no_events(self, trace: NetworkTrace) -> CorrectnessReport:
        """The first disjunct of Definition 6, for a trace on which no
        event fires."""
        initial = self._config_of_mask(0)
        for t in sorted(trace.trace_indices):
            if not packet_trace_in_traces(initial, trace.packet_trace(t)):
                return CorrectnessReport(
                    False,
                    "no event fires but a packet trace is not in Traces(g(∅))",
                    t,
                )
        return CorrectnessReport(True)

    def _candidate_sequences(
        self, masks: Tuple[int, ...]
    ) -> Iterator[Tuple[Tuple[Event, ...], Tuple[int, ...]]]:
        """Lazily enumerate allowed event sequences worth trying, given
        the trace's per-position match masks.

        Only events matched by some trace position can have a first
        occurrence, so sequences are built from those (hugely pruning
        the search).  Yields ``(sequence, per-event bits)`` pairs in
        preorder; being a generator, a correct trace stops the
        enumeration at its first match.
        """
        structure = self.nes.structure
        seen = 0
        for mask in masks:
            seen |= mask
        universe = structure.universe
        matched = []
        while seen:
            low = seen & -seen
            seen ^= low
            # Ascending bit order == sorted-by-repr order: the universe
            # is interned sorted by repr.
            matched.append((universe[low.bit_length() - 1], low))

        def extend(
            prefix: Tuple[Event, ...], bits: Tuple[int, ...], collected: int
        ) -> Iterator[Tuple[Tuple[Event, ...], Tuple[int, ...]]]:
            if prefix:
                yield prefix, bits
            for event, bit in matched:
                if collected & bit:
                    continue
                if not structure.enables_mask(collected, bit.bit_length() - 1):
                    continue
                if not structure.con_mask(collected | bit):
                    continue
                yield from extend(prefix + (event,), bits + (bit,), collected | bit)

        yield from extend((), (), 0)

    def _update_of_sequence(
        self, sequence: Tuple[Event, ...], bits: Tuple[int, ...]
    ) -> EventDrivenUpdate:
        configs: List[Configuration] = [self._config_of_mask(0)]
        collected = 0
        for bit in bits:
            collected |= bit
            configs.append(self._config_of_mask(collected))
        return EventDrivenUpdate(tuple(configs), tuple(sequence), self._ambient)


def check_trace_against_nes(
    trace: NetworkTrace, nes: NES, topology: Topology
) -> CorrectnessReport:
    """One-shot convenience wrapper around :class:`NESChecker`."""
    return NESChecker(nes, topology).check(trace)
