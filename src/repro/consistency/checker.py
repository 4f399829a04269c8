"""Correctness of network traces with respect to an NES (Definitions 2 and 6).

A trace is correct when either no event ever fires and every packet is
processed by the initial configuration ``g(∅)``, or some event sequence
allowed by the NES makes the trace correct for the event-driven
consistent update ``g(∅) -e0-> g({e0}) ... -en-> g({e0..en})``
(Definition 2).  The checker searches the (finite) space of allowed
sequences; it is the empirical counterpart of Theorem 1.  Configurations
are not compiled here: Definition 5's ``g`` arrives compiled on the NES
(``NES.compiled``, left by ``CompiledNES``) and is adopted when its
switch set is the topology's; only an NES nobody compiled is compiled on
demand, on a builder made at the first miss.

Both definitions are decided on interned event bitmasks in
:class:`NESChecker` alone: per-position match masks are computed once
per trace (each position testing only the guards located there),
happens-before is one int bitset of successors per position, and
candidate sequences are enumerated lazily as tuples of event bits, so a
correct trace stops at its first match (``sequences_tried`` counts the
Definition 2 checks the last :meth:`NESChecker.check` ran).
``Traces(C)`` membership is memoized for one check, keyed by the
configuration's table dict and the packet trace: candidate chains share
prefixes, and states with one policy share one table dict, so each
(tables, packet trace) pair is walked once.  The frozenset reference the
tests hold these verdicts and reasons equal to lives in
``tests/naive_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..events.nes import NES
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..netkat.compiler import Configuration, compile_policy
from ..netkat.fdd import FDDBuilder
from ..stateful.ast import StateVector
from ..topology import Topology
from .traces import (
    HappensBefore,
    NetworkTrace,
    packet_trace_in_traces,
    position_event_masks,
)

__all__ = ["CorrectnessReport", "NESChecker", "check_trace_against_nes"]

_NO_FO = "FO(ntr, U) does not exist"


@dataclass(frozen=True)
class CorrectnessReport:
    """Outcome of a Definition 2 or 6 check, with the first violation found."""

    correct: bool
    reason: str = ""
    violating_trace: Optional[Tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.correct


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

    def _config_of_mask(self, mask: int) -> Configuration:
        """The configuration of an encoded event-set, memoized: no
        frozensets materialize between checker steps after the first
        visit of a collected-mask, and its ``id`` is stable."""
        cached = self._configs_by_mask.get(mask)
        if cached is None:
            cached = self.configuration(self.nes.state_of_mask(mask))
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
        member = self._membership_memo(trace)
        reports: List[CorrectnessReport] = []
        for bits in self._candidate_sequences(masks):
            self.sequences_tried += 1
            report = self._check_update(trace, masks, bits, happens_before, member)
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
            if report.reason != _NO_FO:
                return report
        return reports[0]

    def _membership_memo(self, trace: NetworkTrace) -> Callable:
        """A per-check ``Traces(C)`` membership memo: candidate chains
        share configuration prefixes, so the same (configuration,
        packet-trace) pairs recur across sequences.  It is keyed by the
        configuration's table dict, not the configuration: states with
        one policy are distinct configurations over the same tables, and
        walk each packet trace once.  That key is sound because every
        configuration of this checker is on its topology, and membership
        reads only tables and topology.  The chain's configurations are
        memoized by mask and hold their tables, so the ids are stable."""
        memo: Dict[Tuple[int, Tuple[int, ...]], bool] = {}

        def member(config: Configuration, t: Tuple[int, ...]) -> bool:
            key = (id(config._tables), t)
            hit = memo.get(key)
            if hit is None:
                hit = packet_trace_in_traces(config, trace.packet_trace(t))
                memo[key] = hit
            return hit

        return member

    def _check_update(
        self,
        trace: NetworkTrace,
        masks: Tuple[int, ...],
        bits: Tuple[int, ...],
        happens_before: HappensBefore,
        member: Callable,
    ) -> CorrectnessReport:
        """Definition 2 for the update ``g(∅) -e0-> ... -en-> g({e0..en})``
        whose events have the interned ``bits``, with the NES's events
        as the ambient set ``E``."""
        chain = [self._config_of_mask(0)]
        collected = 0
        for bit in bits:
            collected |= bit
            chain.append(self._config_of_mask(collected))

        # FO(ntr, U): each event's first occurrence after the previous
        # one's, triggered by a packet that the immediately preceding
        # configuration processed.
        n = len(masks)
        fo: List[int] = []
        previous = -1
        for step, bit in enumerate(bits):
            found = next((j for j in range(previous + 1, n) if masks[j] & bit), None)
            if found is None or not any(
                member(chain[step], t) for t in trace.traces_through(found)
            ):
                return CorrectnessReport(False, _NO_FO)
            fo.append(found)
            previous = found
        # No *unfired* event may occur after the final first-occurrence.
        # Packets re-matching an event already in the sequence do not
        # re-trigger it (the firewall's second outgoing packet matches
        # the same pattern but the transition already happened), so only
        # ambient events absent from the sequence invalidate FO.  Renamed
        # copies are distinct events here: a packet matching the *next*
        # occurrence of a chain event forces the Definition 6 search onto
        # the longer sequence that includes it.
        unfired = self.nes.structure.all_mask & ~collected
        if any(masks[j] & unfired for j in range(previous + 1, n)):
            return CorrectnessReport(False, _NO_FO)

        for t in sorted(trace.trace_indices):
            processed_by = [k for k, config in enumerate(chain) if member(config, t)]
            if not processed_by:
                return CorrectnessReport(
                    False,
                    "packet trace is in Traces(C) for no configuration of the chain",
                    t,
                )
            for i, ki in enumerate(fo):
                # Entirely before event e_i: must use C_0..C_i.
                if processed_by[0] > i and happens_before.all_before(t, ki):
                    return CorrectnessReport(
                        False,
                        f"packet trace precedes event {i} (position {ki}) "
                        f"but is only in configurations {processed_by}; "
                        f"expected one of C_0..C_{i} (update happened too early)",
                        t,
                    )
                # Entirely after event e_i: must use C_{i+1}..C_{n+1}.
                if processed_by[-1] <= i and happens_before.all_after(ki, t):
                    return CorrectnessReport(
                        False,
                        f"packet trace follows event {i} (position {ki}) "
                        f"but is only in configurations {processed_by}; "
                        f"expected one of C_{i + 1}..C_{len(chain) - 1} "
                        "(update happened too late)",
                        t,
                    )
        return CorrectnessReport(True)

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

    def _candidate_sequences(self, masks: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate allowed event sequences worth trying, as
        tuples of interned event bits, given the trace's per-position
        match masks.

        Only events matched by some trace position can have a first
        occurrence, so sequences are built from those (hugely pruning
        the search).  Sequences come in preorder; being a generator, a
        correct trace stops the enumeration at its first match.
        """
        structure = self.nes.structure
        seen = 0
        for mask in masks:
            seen |= mask
        # Ascending bit order == sorted-by-repr order: the universe is
        # interned sorted by repr.
        matched = []
        while seen:
            low = seen & -seen
            seen ^= low
            matched.append(low)

        def extend(bits: Tuple[int, ...], collected: int) -> Iterator[Tuple[int, ...]]:
            if bits:
                yield bits
            for bit in matched:
                if collected & bit:
                    continue
                if not structure.enables_mask(collected, bit.bit_length() - 1):
                    continue
                if not structure.con_mask(collected | bit):
                    continue
                yield from extend(bits + (bit,), collected | bit)

        yield from extend((), 0)


def check_trace_against_nes(
    trace: NetworkTrace, nes: NES, topology: Topology
) -> CorrectnessReport:
    """One-shot convenience wrapper around :class:`NESChecker`."""
    return NESChecker(nes, topology).check(trace)
