"""Forwarding decision diagrams (FDDs).

An FDD is a binary decision diagram whose internal nodes test packet
fields against constants (``f = n``) and whose leaves hold *action sets*:
sets of partial field assignments.  FDDs are the intermediate
representation of the NetKAT compiler, following the architecture of
"A Fast Compiler for NetKAT" (Smolka et al., ICFP'15).

Invariants:

- Along every root-to-leaf path, tests appear in strictly increasing
  order (by field rank, then field name, then value).
- A node's ``hi`` child never re-tests the node's field (the value is
  known there); the ``lo`` child may test the same field with a larger
  value.
- No node has identical children, and no test is redundant: a node's
  ``hi`` is never what its ``lo`` already does at the tested value.

Nodes are hash-consed, and the binary operations are memoized, so
structurally equal FDDs are pointer-equal.

FDDs represent *link-free* policies (tests, assignments, union, sequence,
star).  Links are handled one level up, by the path compiler in
:mod:`repro.netkat.compiler`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .ast import (
    Assign,
    Conj,
    Disj,
    Dup,
    Filter,
    Link,
    Neg,
    PFalse,
    PTrue,
    Policy,
    Predicate,
    Seq,
    Star,
    Test,
    Union,
)

__all__ = [
    "Mod",
    "ActionSet",
    "FDD",
    "Leaf",
    "Branch",
    "FieldOrder",
    "FDDBuilder",
    "DEFAULT_FIELD_ORDER",
]

# The most unrollings FDDBuilder.star tries before giving up.
STAR_FUEL = 200

# A Mod is a partial map from fields to values, stored as a sorted tuple so
# it is hashable.  The empty Mod is the identity action.
Mod = Tuple[Tuple[str, int], ...]
ActionSet = FrozenSet[Mod]

IDENTITY_MOD: Mod = ()

# Default precedence for branch ordering; fields not listed rank after
# listed ones, alphabetically.  Putting sw/pt first keeps per-switch table
# extraction cheap.
DEFAULT_FIELD_ORDER: Tuple[str, ...] = ("sw", "pt")


def mod_of(assignments: Dict[str, int]) -> Mod:
    """Build a Mod from a dict of assignments."""
    return tuple(sorted(assignments.items()))


def mod_get(mod: Mod, field: str) -> Optional[int]:
    """Look up a field in a Mod, or None if unassigned."""
    for name, value in mod:
        if name == field:
            return value
    return None


def mod_compose(first: Mod, second: Mod) -> Mod:
    """Sequential composition of assignments: ``second`` overrides ``first``."""
    merged = dict(first)
    merged.update(second)
    return tuple(sorted(merged.items()))


class FDD:
    """Base class for FDD nodes.  Instances are created by FDDBuilder only."""

    __slots__ = ("_id",)


class Leaf(FDD):
    """A leaf holding an action set (empty set = drop)."""

    __slots__ = ("actions",)

    def __init__(self, actions: ActionSet, node_id: int):
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "_id", node_id)

    def __repr__(self) -> str:
        if not self.actions:
            return "drop"
        parts = []
        for mod in sorted(self.actions):
            if not mod:
                parts.append("id")
            else:
                parts.append(",".join(f"{f}<-{v}" for f, v in mod))
        return "{" + " | ".join(parts) + "}"


class Branch(FDD):
    """An internal node testing ``field = value``."""

    __slots__ = ("field", "value", "hi", "lo")

    def __init__(self, field: str, value: int, hi: FDD, lo: FDD, node_id: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "_id", node_id)

    def __repr__(self) -> str:
        return f"({self.field}={self.value} ? {self.hi!r} : {self.lo!r})"


class FieldOrder:
    """A total order on (field, value) tests."""

    def __init__(self, precedence: Sequence[str] = DEFAULT_FIELD_ORDER):
        self._rank = {name: i for i, name in enumerate(precedence)}
        self._fallback = len(self._rank)

    def field_rank(self, field: str) -> Tuple[int, str]:
        return (self._rank.get(field, self._fallback), field)

    def test_key(self, field: str, value: int) -> Tuple[int, str, int]:
        rank, name = self.field_rank(field)
        return (rank, name, value)

    def compare(self, t1: Tuple[str, int], t2: Tuple[str, int]) -> int:
        k1 = self.test_key(*t1)
        k2 = self.test_key(*t2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0


class FDDBuilder:
    """Factory and algebra for FDDs.

    One builder instance owns a hash-cons table and memo caches; all FDDs
    combined together must come from the same builder.  Builders are
    **not** thread-safe.  A pipeline that ``update()`` did not make (a
    lineage root) compiles on a builder of its own and keeps it; once
    that compile finishes the builder is read-only, and every successor
    that compiles anything does so on a :meth:`fork` it drops
    afterwards, so concurrent updates from one base share nothing
    writable.
    """

    def __init__(self, order: Optional[FieldOrder] = None):
        self.order = order or FieldOrder()
        self._leaf_cache: Dict[ActionSet, Leaf] = {}
        self._branch_cache: Dict[Tuple[str, int, int, int], FDD] = {}
        self._next_id = 0
        self._memo_union: Dict[Tuple[int, int], FDD] = {}
        self._memo_seq: Dict[Tuple[int, int], FDD] = {}
        self._memo_seq_mod: Dict[Tuple[Mod, int], FDD] = {}
        self._memo_ite: Dict[Tuple[str, int, int, int], FDD] = {}
        # AST-compilation memos, keyed on the (hash-consed) node, so an
        # equal term hits wherever it was built.  Like the caches above
        # they grow for the builder's lifetime (a root's, or a fork's).
        self._memo_of_policy: Dict[Policy, FDD] = {}
        self._memo_of_predicate: Dict[Predicate, FDD] = {}
        # Knowledge (pos, neg) -> predicate FDD, filled by
        # netkat.compiler.knowledge_fdd; nodes of this builder, so it
        # lives and dies with it.
        self.knowledge_fdds: Dict[Tuple, FDD] = {}
        # Node id -> pruned flow table (netkat.compiler.compile_policy).
        # A fork numbers on from its root's ids, so a root's entry holds
        # in every fork: an unchanged switch FDD keeps its table object.
        self._node_tables: Dict[int, object] = {}
        # (union operand, switch set) -> (switch, FDD, switch, FDD, ...),
        # the operand's per-switch contribution (compile_policy).  Keyed
        # on the hash-consed term, so it holds in every fork as the node
        # tables do; a fork's own entries go with the fork.
        self._contributions: Dict[Tuple[Policy, FrozenSet[int]], Tuple] = {}
        self.drop = self.leaf(frozenset())
        self.id = self.leaf(frozenset((IDENTITY_MOD,)))

    def fork(self) -> "FDDBuilder":
        """A private builder that starts from copies of every table of
        this one, which it never writes to.

        The fork's nodes get ids from this builder's ``_next_id`` on, so
        they never collide with one it inherited, and the AST keys it
        inherits stay alive in this builder's memos.  No FDD node
        outlives a compile (the flow tables it produces hold rules), so
        dropping the fork afterwards loses nothing.
        """
        child = object.__new__(type(self))
        child.__dict__ = {
            name: dict(value) if type(value) is dict else value
            for name, value in vars(self).items()
        }
        return child

    @property
    def node_count(self) -> int:
        """Nodes made by this builder, inherited ones included."""
        return self._next_id

    # -- node constructors ---------------------------------------------------

    def leaf(self, actions: ActionSet) -> Leaf:
        cached = self._leaf_cache.get(actions)
        if cached is not None:
            return cached
        node = Leaf(actions, self._next_id)
        self._next_id += 1
        self._leaf_cache[actions] = node
        return node

    def branch(self, field: str, value: int, hi: FDD, lo: FDD) -> FDD:
        if hi is lo:
            return hi
        key = (field, value, hi._id, lo._id)
        cached = self._branch_cache.get(key)
        if cached is not None:
            return cached
        if hi is self.assume_true(lo, field, value):
            # ``lo`` already does ``hi`` where field == value, so the test
            # is redundant; keeping it would give one function two nodes,
            # e.g. (f=0 ? x : (f=2 ? y : x)) beside (f=2 ? y : x).
            self._branch_cache[key] = lo
            return lo
        node = Branch(field, value, hi, lo, self._next_id)
        self._next_id += 1
        self._branch_cache[key] = node
        return node

    # -- restriction helpers ---------------------------------------------------

    def assume_true(self, d: FDD, field: str, value: int) -> FDD:
        """Restrict ``d`` under the assumption ``field == value``.

        Only sound when (field, value) orders before every test in ``d``
        or equals tests on the same field at the top of ``d``.
        """
        while isinstance(d, Branch) and d.field == field:
            if d.value == value:
                d = d.hi
            else:
                d = d.lo
        return d

    def assume_false(self, d: FDD, field: str, value: int) -> FDD:
        """Restrict ``d`` under the assumption ``field != value``."""
        if not isinstance(d, Branch) or d.field != field:
            return d
        if d.value == value:
            return self.assume_false(d.lo, field, value)
        hi = d.hi  # field == d.value (!= value), so the assumption holds
        lo = self.assume_false(d.lo, field, value)
        return self.branch(d.field, d.value, hi, lo)

    def _root_test(self, d: FDD) -> Optional[Tuple[str, int]]:
        if isinstance(d, Branch):
            return (d.field, d.value)
        return None

    def _apply(
        self,
        op: Callable[[ActionSet, ActionSet], ActionSet],
        memo: Dict[Tuple[int, int], FDD],
        d1: FDD,
        d2: FDD,
    ) -> FDD:
        key = (d1._id, d2._id)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(d1, Leaf) and isinstance(d2, Leaf):
            result: FDD = self.leaf(op(d1.actions, d2.actions))
        else:
            t1 = self._root_test(d1)
            t2 = self._root_test(d2)
            if t1 is None:
                t = t2
            elif t2 is None:
                t = t1
            else:
                t = t1 if self.order.compare(t1, t2) <= 0 else t2
            assert t is not None
            field, value = t
            hi = self._apply(
                op,
                memo,
                self.assume_true(d1, field, value),
                self.assume_true(d2, field, value),
            )
            lo = self._apply(
                op,
                memo,
                self.assume_false(d1, field, value),
                self.assume_false(d2, field, value),
            )
            result = self.branch(field, value, hi, lo)
        memo[key] = result
        return result

    # -- algebra -----------------------------------------------------------

    def union(self, d1: FDD, d2: FDD) -> FDD:
        """Parallel composition: pointwise union of action sets."""
        if d1 is self.drop:
            return d2
        if d2 is self.drop:
            return d1
        if d1 is d2:
            return d1
        if d1._id > d2._id:  # canonical argument order for the memo table
            d1, d2 = d2, d1
        return self._apply(lambda a, b: a | b, self._memo_union, d1, d2)

    def seq_mod(self, mod: Mod, d: FDD) -> FDD:
        """Compose a single modification with an FDD: ``mod ; d``.

        Tests in ``d`` on fields assigned by ``mod`` are decided; leaf
        actions are composed after ``mod``.
        """
        key = (mod, d._id)
        cached = self._memo_seq_mod.get(key)
        if cached is not None:
            return cached
        if isinstance(d, Leaf):
            result: FDD = self.leaf(
                frozenset(mod_compose(mod, a) for a in d.actions)
            )
        else:
            assigned = mod_get(mod, d.field)
            if assigned is not None:
                if assigned == d.value:
                    result = self.seq_mod(mod, d.hi)
                else:
                    result = self.seq_mod(mod, d.lo)
            else:
                hi = self.seq_mod(mod, d.hi)
                lo = self.seq_mod(mod, d.lo)
                result = self.ite_test(d.field, d.value, hi, lo)
        self._memo_seq_mod[key] = result
        return result

    def ite_test(self, field: str, value: int, hi: FDD, lo: FDD) -> FDD:
        """Build "if field==value then hi else lo", re-establishing ordering.

        ``hi``/``lo`` may contain tests ordering before (field, value), so
        a plain branch() would violate the path-ordering invariant.  One
        simultaneous walk of ``hi``/``lo`` sinks the test to its ordered
        position (the mask/union route it replaced is the reference
        builder in ``tests/naive_oracles.py``).

        Tests on ``field`` itself never interleave with tests on other
        fields (the order key is lexicographic on (rank, name, value)), so
        whenever (field, value) orders at or before both roots, every test
        on ``field`` inside ``hi``/``lo`` sits in the root chain and
        ``assume_true``/``assume_false`` decide them all.
        """
        if hi is lo:
            return hi
        key = (field, value, hi._id, lo._id)
        cached = self._memo_ite.get(key)
        if cached is not None:
            return cached
        test_key = self.order.test_key
        k_test = test_key(field, value)
        k_min = None
        for root in (self._root_test(hi), self._root_test(lo)):
            if root is not None:
                k = test_key(*root)
                if k_min is None or k < k_min:
                    k_min = k
        if k_min is None or k_test <= k_min:
            # (field, value) belongs at the root; the children are fully
            # decided on field by the assumptions.
            result = self.branch(
                field,
                value,
                self.assume_true(hi, field, value),
                self.assume_false(lo, field, value),
            )
        else:
            _, e, w = k_min
            if e == field:
                # w < value: under field == w the outer test is false, so
                # only the lo side survives there.
                result = self.branch(
                    e,
                    w,
                    self.assume_true(lo, e, w),
                    self.ite_test(
                        field,
                        value,
                        self.assume_false(hi, e, w),
                        self.assume_false(lo, e, w),
                    ),
                )
            else:
                result = self.branch(
                    e,
                    w,
                    self.ite_test(
                        field,
                        value,
                        self.assume_true(hi, e, w),
                        self.assume_true(lo, e, w),
                    ),
                    self.ite_test(
                        field,
                        value,
                        self.assume_false(hi, e, w),
                        self.assume_false(lo, e, w),
                    ),
                )
        self._memo_ite[key] = result
        return result

    def seq(self, d1: FDD, d2: FDD) -> FDD:
        """Sequential composition ``d1 ; d2``."""
        key = (d1._id, d2._id)
        cached = self._memo_seq.get(key)
        if cached is not None:
            return cached
        if isinstance(d1, Leaf):
            result = self.drop
            for mod in d1.actions:
                result = self.union(result, self.seq_mod(mod, d2))
        else:
            hi = self.seq(d1.hi, d2)
            lo = self.seq(d1.lo, d2)
            result = self.ite_test(d1.field, d1.value, hi, lo)
        self._memo_seq[key] = result
        return result

    def star(self, d: FDD) -> FDD:
        """Kleene star by fixpoint iteration: ``id + d;id + d;d;id + ...``."""
        acc = self.id
        for _ in range(STAR_FUEL):
            nxt = self.union(self.id, self.seq(d, acc))
            if nxt is acc:
                return acc
            acc = nxt
        raise RuntimeError(f"FDD star did not converge within {STAR_FUEL} iterations")

    def cofactor(self, d: FDD, field: str, value: int) -> FDD:
        """Specialize ``d`` under ``field == value``, removing its tests.

        Sound for any position of ``field`` in the order because the
        result is rebuilt with the ordering-preserving branch constructor
        (tests on ``field`` simply disappear).
        """
        if isinstance(d, Leaf):
            return d
        if d.field == field:
            if d.value == value:
                return self.cofactor(d.hi, field, value)
            return self.cofactor(d.lo, field, value)
        hi = self.cofactor(d.hi, field, value)
        lo = self.cofactor(d.lo, field, value)
        return self.branch(d.field, d.value, hi, lo)

    def negate(self, d: FDD) -> FDD:
        """Complement of a predicate FDD (id leaves <-> drop leaves)."""
        memo: Dict[int, FDD] = {}

        def walk(node: FDD) -> FDD:
            cached = memo.get(node._id)
            if cached is not None:
                return cached
            if isinstance(node, Leaf):
                if node.actions == self.id.actions:
                    result: FDD = self.drop
                elif not node.actions:
                    result = self.id
                else:
                    raise ValueError("negate() applied to a non-predicate FDD")
            else:
                result = self.branch(
                    node.field, node.value, walk(node.hi), walk(node.lo)
                )
            memo[node._id] = result
            return result

        return walk(d)

    # -- compilation from AST --------------------------------------------------

    def of_predicate(self, a: Predicate) -> FDD:
        """Compile a predicate to a 0/1-valued FDD."""
        cached = self._memo_of_predicate.get(a)
        if cached is not None:
            return cached
        if isinstance(a, PTrue):
            result = self.id
        elif isinstance(a, PFalse):
            result = self.drop
        elif isinstance(a, Test):
            result = self.branch(a.field, a.value, self.id, self.drop)
        elif isinstance(a, Neg):
            result = self.negate(self.of_predicate(a.operand))
        elif isinstance(a, Conj):
            result = self.seq(
                self.of_predicate(a.left), self.of_predicate(a.right)
            )
        elif isinstance(a, Disj):
            left = self.of_predicate(a.left)
            right = self.of_predicate(a.right)
            # Predicate union must stay 0/1-valued: a|b = ~(~a & ~b).
            result = self.negate(self.seq(self.negate(left), self.negate(right)))
        else:
            raise TypeError(f"not a predicate: {a!r}")
        self._memo_of_predicate[a] = result
        return result

    def of_policy(self, p: Policy) -> FDD:
        """Compile a link-free policy to an FDD.

        ``dup`` and links are rejected here: dup is a history operation
        with no flow-table meaning, and links are split out by the path
        compiler before FDDs are built.
        """
        cached = self._memo_of_policy.get(p)
        if cached is not None:
            return cached
        if isinstance(p, Filter):
            result = self.of_predicate(p.predicate)
        elif isinstance(p, Assign):
            result = self.leaf(frozenset((mod_of({p.field: p.value}),)))
        elif isinstance(p, Union):
            result = self.union(self.of_policy(p.left), self.of_policy(p.right))
        elif isinstance(p, Seq):
            result = self.seq(self.of_policy(p.left), self.of_policy(p.right))
        elif isinstance(p, Star):
            result = self.star(self.of_policy(p.operand))
        elif isinstance(p, Dup):
            raise ValueError("dup has no FDD form; strip it before compiling")
        elif isinstance(p, Link):
            raise ValueError(
                f"link {p!r} reached the FDD compiler; links must be "
                "split out by repro.netkat.compiler first"
            )
        else:
            raise TypeError(f"not a policy: {p!r}")
        self._memo_of_policy[p] = result
        return result

    # -- evaluation and extraction ---------------------------------------------

    def paths(self, d: FDD) -> Iterator[Tuple[Tuple[Tuple[str, int, bool], ...], ActionSet]]:
        """Enumerate (constraints, actions) pairs; constraint bools mean eq/neq.

        The hi-first order means earlier paths shadow later ones when the
        negative constraints are dropped -- exactly the priority semantics
        of flow tables.
        """

        def walk(node: FDD, acc: List[Tuple[str, int, bool]]):
            if isinstance(node, Leaf):
                yield (tuple(acc), node.actions)
                return
            acc.append((node.field, node.value, True))
            yield from walk(node.hi, acc)
            acc.pop()
            acc.append((node.field, node.value, False))
            yield from walk(node.lo, acc)
            acc.pop()

        yield from walk(d, [])

    def size(self, d: FDD) -> int:
        """Number of distinct nodes in ``d``."""
        seen = set()

        def walk(node: FDD) -> None:
            if node._id in seen:
                return
            seen.add(node._id)
            if isinstance(node, Branch):
                walk(node.hi)
                walk(node.lo)

        walk(d)
        return len(seen)
