"""Hash-consed terms (``repro.netkat.hashcons``): every NetKAT and Stateful
NetKAT node and every ``Location`` is the one live object for its term,
so equality is identity -- through parsing, pickling and copying, and
across threads -- and the term table holds its terms weakly."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

from hypothesis import given, settings, strategies as st

from repro.apps import bandwidth_cap_app
from repro.netkat import hashcons
from repro.netkat.ast import Test as FieldTest
from repro.netkat.hashcons import HashConsed
from repro.netkat.packet import Location
from repro.netkat.parser import parse_policy
from repro.netkat.pretty import pretty_policy

from seed_apps import APPS
from test_differential import random_stateful_policy

APP_PROGRAMS = [make().program for _, make in APPS] + [
    bandwidth_cap_app(n).program for n in (8, 24, 48)
]

programs = st.one_of(
    st.builds(
        lambda seed, depth: random_stateful_policy(random.Random(seed), depth),
        st.integers(0, 10**9),
        st.integers(0, 5),
    ),
    st.sampled_from(APP_PROGRAMS),
)


def subterms(term, seen=None):
    """Every distinct node object under ``term``, Locations included."""
    seen = {} if seen is None else seen
    if isinstance(term, tuple):
        for item in term:
            subterms(item, seen)
    elif isinstance(term, HashConsed) and id(term) not in seen:
        seen[id(term)] = term
        for name in term._fields:
            subterms(getattr(term, name), seen)
    return seen


def structure(term, memo):
    """A node as a plain tuple tree: what structural equality compared."""
    if isinstance(term, tuple):
        return tuple(structure(item, memo) for item in term)
    if not isinstance(term, HashConsed):
        return term
    if id(term) not in memo:
        memo[id(term)] = (type(term).__name__,) + tuple(
            structure(getattr(term, name), memo) for name in term._fields
        )
    return memo[id(term)]


def assert_one_object_per_term(*terms):
    seen = {}
    for term in terms:
        subterms(term, seen)
    memo, by_structure = {}, {}
    for node in seen.values():
        assert type(node).__eq__ is object.__eq__  # == is identity
        assert hash(node) == hash(copy.copy(node))
        by_structure.setdefault(structure(node, memo), []).append(node)
    assert all(len(nodes) == 1 for nodes in by_structure.values())


@given(programs, programs)
@settings(max_examples=200, deadline=None)
def test_equal_terms_are_one_object(a, b):
    for term in (a, b):
        assert parse_policy(pretty_policy(term)) is term
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.deepcopy(term) is term
        assert copy.copy(term) is term
    assert (a == b) is (a is b)
    assert_one_object_per_term(a, b)


@given(*(st.integers(0, 2**70),) * 2, *(st.integers(0, 300),) * 2)
@settings(max_examples=200, deadline=None)
def test_equal_locations_are_one_object(s1, s2, p1, p2):
    # int(str(n)) is a distinct int object: the table compares values.
    a, b = Location(s1, p1), Location(int(str(s2)), int(str(p2)))
    assert Location(int(str(s1)), int(str(p1))) is a
    assert (a == b) is (a is b) is ((s1, p1) == (s2, p2))
    assert hash(a) == hash((s1, p1))
    assert (a < b) is ((s1, p1) < (s2, p2)) and (a >= b) is ((s1, p1) >= (s2, p2))
    for rebuilt in (
        Location.parse(str(a)),
        pickle.loads(pickle.dumps(a)),
        copy.deepcopy(a),
        copy.copy(a),
    ):
        assert rebuilt is a


def test_threads_building_one_program_get_one_object():
    """Eight threads build the same new terms at once (a program text and
    a run of fresh tests); every miss is resolved under the table's lock,
    so all get the same nodes."""
    text = pretty_policy(bandwidth_cap_app(29).program)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def build(i):
        barrier.wait()
        results[i] = (
            parse_policy(text),
            *(FieldTest("hashcons_thread_probe", n) for n in range(3000)),
        )

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(
        all(mine is first for mine, first in zip(result, results[0]))
        for result in results
    )
    assert_one_object_per_term(*results)


def test_threads_replacing_dead_terms_get_one_object():
    """Round after round, eight threads rebuild terms whose objects all
    died in the round before: a dead entry is replaced under the table's
    lock, so every thread still gets one object per term."""
    workers, rounds = 8, 10
    key = (FieldTest, "hashcons_dead_probe", 0)
    barrier = threading.Barrier(workers)
    built = [None] * workers
    agreed = []

    def build(i):
        for _ in range(rounds):
            barrier.wait(timeout=60)
            built[i] = [FieldTest("hashcons_dead_probe", n) for n in range(300)]
            barrier.wait(timeout=60)
            if i == 0:
                agreed.append(all(
                    all(mine is first for mine, first in zip(terms, built[0]))
                    for terms in built
                ))
            barrier.wait(timeout=60)
            built[i] = None

    threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert agreed == [True] * rounds
    assert hashcons._TERMS.get(key, lambda: None)() is None  # they died


def test_the_table_holds_terms_weakly():
    key = (FieldTest, "hashcons_weakness_probe", 7)
    term = FieldTest("hashcons_weakness_probe", 7)
    assert hashcons._TERMS[key]() is term
    probe = weakref.ref(term)
    del term
    gc.collect()
    assert probe() is None
    # What is left under the key holds nothing, and the next sweep (once
    # the table has grown past its mark) drops it.
    assert hashcons._TERMS.get(key, probe)() is None
    kept = FieldTest("hashcons_sweep_kept", 0)
    for n in range(hashcons._sweep_at - len(hashcons._TERMS) + 1):
        FieldTest("hashcons_sweep_filler", n)
    assert key not in hashcons._TERMS
    assert FieldTest("hashcons_sweep_kept", 0) is kept
