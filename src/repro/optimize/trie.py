"""The rule-sharing optimization (section 5.3).

Rules guarded by configuration IDs are duplicated across configurations;
if a rule appears in all configurations whose IDs share their high-order
bits, one copy guarded by a *wildcarded* ID suffices.  The optimization
problem is to assign IDs to configurations so that this sharing is
maximal.

Formally: build a complete binary trie with the configurations (rule
sets) at the leaves; every internal node holds the intersection of its
children and a guard mask with the shared high bits fixed and the low
bits wildcarded.  A rule is materialized at the shallowest node that
contains it, so the total rule count is the sum over nodes of rules not
already present at an ancestor.

The paper's polynomial heuristic builds the trie bottom-up, at each
level pairing nodes to maximize the summed cardinality of pairwise
intersections.  We implement that heuristic (greedy maximum-weight
pairing), an exact brute-force optimum for small instances (used to
validate the heuristic), and the identity ordering as the baseline.

Configurations that do not fill a power of two are padded with *dummy*
configurations behaving as universal rule sets (the paper pads with
"all rules in R"): a dummy shares everything with its sibling, and its
own leaf materializes nothing because it is never deployed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import (
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

R = TypeVar("R", bound=Hashable)

__all__ = [
    "TrieNode",
    "build_trie",
    "trie_rule_count",
    "naive_rule_count",
    "heuristic_order",
    "exact_best_order",
    "OptimizationResult",
    "optimize_configurations",
]

RuleSet = FrozenSet[R]
# None plays the role of the universal set carried by dummy leaves.
MaybeRules = Optional[RuleSet]


@dataclass
class TrieNode:
    """One node of the configuration trie.

    ``rules`` is None for (subtrees of) dummy padding -- the universal
    set.  ``prefix``/``depth`` identify the guard: the top ``depth``
    bits of a ``width``-bit configuration ID equal ``prefix``.
    """

    rules: MaybeRules
    depth: int
    prefix: int
    children: Tuple["TrieNode", ...] = ()
    leaf_index: Optional[int] = None  # position in the *input* config list


def _intersect(a: MaybeRules, b: MaybeRules) -> MaybeRules:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def build_trie(
    configs: Sequence[Optional[FrozenSet[R]]],
) -> TrieNode:
    """Build the trie for configurations in leaf order (None = dummy).

    The number of leaves must be a power of two (pad first).
    """
    n = len(configs)
    if n == 0 or n & (n - 1):
        raise ValueError(f"leaf count {n} is not a power of two")
    width = n.bit_length() - 1
    nodes: List[TrieNode] = [
        TrieNode(
            rules=config if config is not None else None,
            depth=width,
            prefix=i,
            leaf_index=i,
        )
        for i, config in enumerate(configs)
    ]
    depth = width
    while len(nodes) > 1:
        depth -= 1
        paired: List[TrieNode] = []
        for i in range(0, len(nodes), 2):
            left, right = nodes[i], nodes[i + 1]
            paired.append(
                TrieNode(
                    rules=_intersect(left.rules, right.rules),
                    depth=depth,
                    prefix=left.prefix >> 1,
                    children=(left, right),
                )
            )
        nodes = paired
    return nodes[0]


def trie_rule_count(root: TrieNode) -> int:
    """Total materialized rules: each rule counted at its shallowest node.

    Dummy (universal) leaves materialize nothing; a dummy's shared rules
    are accounted for at the ancestor where the sibling hoisted them.
    """

    def walk(node: TrieNode, inherited: FrozenSet) -> int:
        if node.rules is None:
            return 0  # dummy padding: never deployed
        fresh = node.rules - inherited
        total = len(fresh)
        for child in node.children:
            total += walk(child, inherited | node.rules)
        return total

    return walk(root, frozenset())


def naive_rule_count(configs: Sequence[FrozenSet[R]]) -> int:
    """Rules with one guarded copy per configuration (no sharing)."""
    return sum(len(c) for c in configs)


def _padded(configs: Sequence[FrozenSet[R]]) -> List[Optional[FrozenSet[R]]]:
    n = max(1, len(configs))
    size = 1 << max(1, math.ceil(math.log2(n))) if n > 1 else 2
    out: List[Optional[FrozenSet[R]]] = list(configs)
    out.extend([None] * (size - len(configs)))
    return out


def heuristic_order(configs: Sequence[FrozenSet[R]]) -> List[Optional[FrozenSet[R]]]:
    """The paper's bottom-up pairing heuristic.

    At each level, greedily pair the two nodes with the largest
    intersection (summed-cardinality maximization), building the leaf
    order implied by the pairing.  Returns the reordered (padded) leaf
    list.
    """
    padded = _padded(configs)

    @dataclass
    class Partial:
        rules: MaybeRules
        leaves: List[Optional[FrozenSet[R]]]

    nodes = [Partial(rules=c, leaves=[c]) for c in padded]
    while len(nodes) > 1:
        # Pair sizes are static within a level, so compute each pair's
        # intersection size exactly once and pick pairs greedily off the
        # sorted list (largest size first, then smallest indices -- the
        # same order the O(n^3) rescan produced).
        n = len(nodes)
        ranked: List[Tuple[int, int, int]] = []  # (-size, i, j)
        for i in range(n):
            for j in range(i + 1, n):
                shared = _intersect(nodes[i].rules, nodes[j].rules)
                size = len(shared) if shared is not None else _universal_len(
                    nodes[i].rules, nodes[j].rules
                )
                ranked.append((-size, i, j))
        ranked.sort()
        used = [False] * n
        paired: List[Partial] = []
        for _, i, j in ranked:
            if used[i] or used[j]:
                continue
            used[i] = used[j] = True
            paired.append(
                Partial(
                    rules=_intersect(nodes[i].rules, nodes[j].rules),
                    leaves=nodes[i].leaves + nodes[j].leaves,
                )
            )
        nodes = paired
    return nodes[0].leaves


def _universal_len(a: MaybeRules, b: MaybeRules) -> int:
    """Pairing weight when one side is a dummy: the other side's size."""
    if a is None and b is None:
        return 0
    concrete = a if a is not None else b
    assert concrete is not None
    return len(concrete)


def exact_best_order(
    configs: Sequence[FrozenSet[R]], max_leaves: int = 8
) -> Tuple[List[Optional[FrozenSet[R]]], int]:
    """Brute-force optimal leaf order (small instances only).

    Used by tests and the ablation bench to measure how far the
    heuristic is from optimal.
    """
    padded = _padded(configs)
    if len(padded) > max_leaves:
        raise ValueError(
            f"{len(padded)} leaves is too many for exhaustive search "
            f"(limit {max_leaves})"
        )
    best_order: Optional[List[Optional[FrozenSet[R]]]] = None
    best_count = None
    for perm in permutations(range(len(padded))):
        order = [padded[i] for i in perm]
        count = trie_rule_count(build_trie(order))
        if best_count is None or count < best_count:
            best_count = count
            best_order = order
    assert best_order is not None and best_count is not None
    return best_order, best_count


@dataclass(frozen=True)
class OptimizationResult:
    """Before/after rule counts for one optimization run."""

    original: int
    optimized: int

    @property
    def savings(self) -> int:
        return self.original - self.optimized

    @property
    def savings_fraction(self) -> float:
        if self.original == 0:
            return 0.0
        return self.savings / self.original


def optimize_configurations(configs: Sequence[FrozenSet[R]]) -> OptimizationResult:
    """Apply the heuristic and report rule counts (the §5.3 metric)."""
    if not configs:
        return OptimizationResult(0, 0)
    original = naive_rule_count(configs)
    order = heuristic_order(configs)
    optimized = trie_rule_count(build_trie(order))
    return OptimizationResult(original, optimized)
