"""Bounded model checking of the implementation against Definition 6.

The paper proves Theorem 1 on paper and leaves "formal reasoning and
automated verification for Stateful NetKAT" as future work (section 7).
This module supplies the automated half for finite instances: given an
application and a workload, it explores *every* interleaving of the
Figure 7 operational semantics up to a depth bound and checks each
terminal network trace with the Definition 6 checker.

State spaces are pruned by memoizing canonical global states, so the
diamond explosion of independent transitions collapses.  This is the
strongest evidence the repository offers for implementation correctness:
the randomized Theorem 1 tests sample interleavings, while this explores
all of them (for small workloads).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..apps.base import App
from ..consistency.checker import CorrectnessReport, NESChecker
from ..runtime.semantics import Runtime, Transition

__all__ = ["ExplorationResult", "explore_all_interleavings"]

# The exploration stops after this many terminal executions.
MAX_EXECUTIONS = 100_000


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of an exhaustive exploration."""

    executions_explored: int
    states_visited: int
    truncated: int  # executions cut off by the depth bound
    violations: Tuple[Tuple[Tuple[str, ...], CorrectnessReport], ...]

    @property
    def all_correct(self) -> bool:
        return not self.violations


def _runtime_with_injections(
    app: App,
    injections: Sequence[Tuple[str, Mapping[str, int]]],
    runtime_factory=None,
) -> Runtime:
    rt = runtime_factory() if runtime_factory is not None else app.runtime()
    for host, fields in injections:
        rt.inject(host, fields)
    return rt


def _canonical_state(rt: Runtime) -> Tuple:
    """A hashable snapshot of the global runtime state.

    Two interleavings reaching the same snapshot have identical futures
    (the semantics is deterministic given a transition choice), so the
    snapshot is a sound memoization key.
    """
    switches = []
    for switch_id in sorted(rt.state.switches):
        switch = rt.state.switches[switch_id]
        in_queues = tuple(
            (port, tuple(repr(p) for p in queue))
            for port, queue in sorted(switch.in_queues.items())
            if queue
        )
        out_queues = tuple(
            (port, tuple(repr(p) for p in queue))
            for port, queue in sorted(switch.out_queues.items())
            if queue
        )
        switches.append(
            (
                switch_id,
                frozenset(switch.known_events),
                in_queues,
                out_queues,
            )
        )
    return (
        tuple(switches),
        frozenset(rt.state.controller_queue),
        frozenset(rt.state.controller),
        len(rt.state.delivered),
        len(rt.state.dropped),
        # The recorded trace must be part of the key: interleavings that
        # reach the same queue state via different processing orders have
        # different network traces (different happens-before relations),
        # and pruning them would hide violations from the checker.
        tuple(repr(lp) for lp in rt.recorder.positions),
        tuple(sorted(rt.recorder.finished_paths)),
    )


def explore_all_interleavings(
    app: App,
    injections: Sequence[Tuple[str, Mapping[str, int]]],
    max_depth: int = 64,
    include_controller: bool = False,
    runtime_factory=None,
) -> ExplorationResult:
    """Explore every schedule of the workload and check every trace.

    ``injections`` are issued up front, so the exploration covers all
    packet races.  Controller transitions are excluded by default (they
    only disseminate knowledge and blow up the interleaving space);
    include them to additionally verify CTRLSEND orderings.

    ``runtime_factory`` substitutes a custom runtime constructor -- the
    test suite uses it to check that *buggy* runtimes are caught.
    """
    checker = NESChecker(app.nes, app.topology)
    violations: List[Tuple[Tuple[str, ...], CorrectnessReport]] = []
    seen_terminal: Set[Tuple] = set()
    visited: Set[Tuple] = set()
    executions = 0
    truncated = 0

    def transitions_of(rt: Runtime) -> List[Transition]:
        enabled = rt.enabled_transitions()
        if not include_controller:
            enabled = [
                t for t in enabled if t.rule not in ("CTRLRECV", "CTRLSEND")
            ]
        return enabled

    def replay(schedule: Sequence[int]) -> Runtime:
        """Re-execute a schedule of transition indices from scratch."""
        rt = _runtime_with_injections(app, injections, runtime_factory=runtime_factory)
        for choice in schedule:
            rt.apply(transitions_of(rt)[choice])
        return rt

    def check_terminal(rt: Runtime, schedule: Tuple[int, ...]) -> None:
        nonlocal executions
        executions += 1
        key = _canonical_state(rt)
        if key in seen_terminal:
            return
        seen_terminal.add(key)
        trace = rt.network_trace()
        report = checker.check(trace)
        if not report:
            labels = tuple(str(i) for i in schedule)
            violations.append((labels, report))

    # Iterative deepening DFS over transition choices.  Each node replays
    # its schedule; with memoization on canonical states the tree stays
    # tractable for the workload sizes used in tests/benches.
    stack: List[Tuple[Tuple[int, ...]]] = [((),)]
    while stack:
        (schedule,) = stack.pop()
        if executions >= MAX_EXECUTIONS:
            break
        rt = replay(schedule)
        key = _canonical_state(rt)
        if key in visited:
            continue
        visited.add(key)
        enabled = transitions_of(rt)
        if not enabled:
            check_terminal(rt, schedule)
            continue
        if len(schedule) >= max_depth:
            truncated += 1
            continue
        for index in range(len(enabled)):
            stack.append(((schedule + (index,)),))

    return ExplorationResult(
        executions_explored=executions,
        states_visited=len(visited),
        truncated=truncated,
        violations=tuple(violations),
    )
