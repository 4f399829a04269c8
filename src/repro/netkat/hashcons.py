"""Hash-consing (Filliâtre & Conchon, ML Workshop 2006): a
:class:`HashConsed` subclass declares its fields as annotations, and
calling it returns the one live instance with those fields, from a
per-process weak table keyed on the class and each field (a child, i.e.
a field annotated with a hash-consed class, by identity).  So equality
is identity; the hash is fixed at construction from the class name and
the fields' hashes, never an address; pickling and copying rebuild
through the constructor; and threads that build equal terms at once
get one object, the first one published."""

from __future__ import annotations

import threading
import weakref

_TERMS: dict = {}  # key -> weak ref; dead ones are swept as the table doubles
_MISS = threading.Lock()
_sweep_at = 1024
_KINDS = set()  # the hash-consed class names

# Each class's own constructor: a hit is one lookup, hashing no child.
_NEW = """def __new__(_cls, {args}):
    _key = (_cls, {key})
    _ref = _TERMS.get(_key)
    _term = None if _ref is None else _ref()
    if _term is None:
        _term = _new(_cls)
{assign}        _set(_term, "_hash", hash(({salt}{hashes})))
        _term = _enter(_key, _term)
    return _term
"""


def _enter(key, term):
    """Table ``term``, unless another thread tabled an equal one first.

    ``setdefault`` publishes a new key in one step, so only replacing a
    dead entry, and the sweep, take the lock."""
    global _sweep_at
    ref = weakref.ref(term)
    live = _TERMS.setdefault(key, ref)()
    if live is None:  # a dead term was left under the key
        with _MISS:
            found = _TERMS.get(key)
            live = None if found is None else found()
            if live is None:
                _TERMS[key] = ref
                live = term
    if len(_TERMS) > _sweep_at:
        with _MISS:
            if len(_TERMS) > _sweep_at:
                # The keys, listed in one step: unlocked publishers may
                # add keys while the sweep runs, but only the lock's
                # holder replaces or deletes an entry.
                for k in list(_TERMS):
                    if _TERMS[k]() is None:
                        del _TERMS[k]
                _sweep_at = 2 * len(_TERMS) + 1024
    return live


class HashConsed:
    """Base of the hash-consed terms (see the module docstring)."""

    def __init_subclass__(cls, salted: bool = True) -> None:
        _KINDS.add(cls.__name__)
        hints = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(hints)
        children = [getattr(kind, "__name__", kind) in _KINDS for kind in hints.values()]
        parts = list(zip(cls._fields, children))
        namespace = {"_TERMS": _TERMS, "_new": object.__new__, "_set": object.__setattr__,
                     "_enter": _enter}
        exec(_NEW.format(
            args=", ".join(cls._fields),
            key="".join(f"id({f}), " if child else f"{f}, " for f, child in parts),
            assign="".join(f"        _set(_term, {f!r}, {f})\n" for f in cls._fields),
            salt=f"{cls.__name__!r}, " if salted else "",
            hashes="".join(f"{f}._hash, " if child else f"{f}, " for f, child in parts),
        ), namespace)
        cls.__new__ = staticmethod(namespace["__new__"])

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
