"""Applying the trie optimization to compiled NESs.

Per switch, the unguarded per-configuration rule sets feed the trie
heuristic; the optimized deployment guards each shared rule with a
:class:`repro.netkat.flowtable.PrefixMatch` over the configuration-tag
field.  This module produces both the counts (the §5.1 "rule reduction"
numbers, e.g. 18 -> 16 for the firewall) and an actual guarded rule
list, plus an exact check that the optimized table behaves identically
to the naive guarded table for every configuration ID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..netkat.flowtable import FlowTable, PrefixMatch, Rule
from ..runtime.compiler import CompiledNES, TAG_FIELD
from ..verify.equiv import tables_equivalent
from .trie import (
    OptimizationResult,
    TrieNode,
    build_trie,
    heuristic_order,
    naive_rule_count,
    trie_rule_count,
)

__all__ = [
    "SwitchOptimization",
    "NESOptimization",
    "guarded_rules_of_trie",
    "optimize_compiled_nes",
]


@dataclass(frozen=True)
class SwitchOptimization:
    """Result for one switch: counts plus the deployable guarded rules."""

    switch: int
    original: int
    optimized: int
    rules: Tuple[Rule, ...]
    id_assignment: Dict[int, int]  # original config id -> assigned trie leaf id


@dataclass(frozen=True)
class NESOptimization:
    """Aggregated results across all switches of a compiled NES."""

    per_switch: Tuple[SwitchOptimization, ...]

    @property
    def original(self) -> int:
        return sum(s.original for s in self.per_switch)

    @property
    def optimized(self) -> int:
        return sum(s.optimized for s in self.per_switch)

    @property
    def savings_fraction(self) -> float:
        if self.original == 0:
            return 0.0
        return (self.original - self.optimized) / self.original


def guarded_rules_of_trie(root: TrieNode, width: int) -> List[Rule]:
    """Materialize one guarded rule per (node, fresh rule).

    The guard is a PrefixMatch on ``TAG_FIELD``: ``depth`` fixed high
    bits, ``width - depth`` wildcarded low bits.  Priorities are offset
    so that deeper (more specific) guards win; within a node the
    original rule priorities are kept.
    """
    out: List[Rule] = []

    def walk(node: TrieNode, inherited: FrozenSet[Rule]) -> None:
        if node.rules is None:
            return
        fresh = node.rules - inherited
        for rule in sorted(fresh, key=lambda r: (-r.priority, repr(r.match))):
            guard = PrefixMatch(
                value=node.prefix,
                wildcard_bits=width - node.depth,
                width=width,
            )
            out.append(
                Rule(
                    priority=rule.priority,
                    match=rule.match.guarded(TAG_FIELD, guard),
                    actions=rule.actions,
                )
            )
        for child in node.children:
            walk(child, inherited | node.rules)

    walk(root, frozenset())
    return out


def optimize_compiled_nes(compiled: CompiledNES) -> NESOptimization:
    """Run the §5.3 heuristic over every switch of a compiled NES."""
    results: List[SwitchOptimization] = []
    config_ids = sorted(compiled.config_ids.values())
    for switch in sorted(compiled.topology.switches):
        by_config = compiled.rules_by_configuration(switch)
        configs = [by_config[cid] for cid in config_ids]
        original = naive_rule_count(configs)
        ordered = heuristic_order(configs)
        root = build_trie(ordered)
        optimized = trie_rule_count(root)
        width = (len(ordered)).bit_length() - 1
        rules = tuple(guarded_rules_of_trie(root, width))
        assignment = _leaf_assignment(ordered, configs)
        results.append(
            SwitchOptimization(
                switch=switch,
                original=original,
                optimized=optimized,
                rules=rules,
                id_assignment=assignment,
            )
        )
    return NESOptimization(tuple(results))


def _leaf_assignment(
    ordered: Sequence[Optional[FrozenSet[Rule]]],
    configs: Sequence[FrozenSet[Rule]],
) -> Dict[int, int]:
    """Map each original configuration ID to its assigned leaf ID.

    Equal rule sets are interchangeable, so assignment matches greedily
    by set equality.
    """
    assignment: Dict[int, int] = {}
    used_leaves: set = set()
    for config_id, rules in enumerate(configs):
        for leaf_id, leaf in enumerate(ordered):
            if leaf_id in used_leaves or leaf is None:
                continue
            if leaf == rules:
                assignment[config_id] = leaf_id
                used_leaves.add(leaf_id)
                break
    return assignment


def optimized_table_equivalent(
    compiled: CompiledNES, optimization: SwitchOptimization
) -> bool:
    """Exact check: for every configuration, the optimized rules whose
    tag guard admits its *assigned* leaf ID -- the only rules a packet
    carrying that tag can hit -- behave, guard dropped, like the
    original per-configuration table on that switch
    (:func:`repro.verify.equiv.tables_equivalent`: every packet the two
    tables can tell apart is tried); used by the test suite.
    """
    for state, config in compiled.configurations.items():
        leaf_id = optimization.id_assignment.get(compiled.config_ids[state])
        if leaf_id is None:
            return False
        visible = FlowTable(
            Rule(rule.priority, rule.match.without(TAG_FIELD), rule.actions)
            for rule in optimization.rules
            if rule.match.get(TAG_FIELD).matches(leaf_id)
        )
        if not tables_equivalent(config.table(optimization.switch), visible):
            return False
    return True
