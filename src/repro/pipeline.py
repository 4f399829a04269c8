"""The staged compilation pipeline: program -> ETS -> NES -> flow tables.

The paper's toolchain (Figure 7) is a fixed sequence of stages; this
module is its single front door, with one compile path through it.
:class:`CompileOptions` holds the options real callers set, validated
and frozen, and :class:`Pipeline` exposes the staged artifacts
(:attr:`Pipeline.ets`, :attr:`Pipeline.nes`, :attr:`Pipeline.compiled`)
lazily, with per-stage wall-clock timings and stats available via
:meth:`Pipeline.report`.

The stage sequence is written once, in those three properties.
:meth:`Pipeline.update` has no copy of it: it constructs an ordinary
pipeline for the post-delta inputs, points it at its predecessor while
it compiles, and each property borrows by what its stage actually
reads — the partial evaluation when the program is the same object; the
event structure when the ETS kept its initial state and edges (the
whole NES when it kept its vertex labels too); the tables of every
configuration whose policy is equal while the switch set is unchanged
(hosts and links are not compile inputs: the program spells its own
links); and, when every table was adopted under the same state tuple,
the guarded merge.  Within a stage, a successor also starts from its
lineage root's work: its partial evaluation from the root engine's
walk memos, its compile on a fork of the root's builder.

There is one executor, the loop of :class:`Pipeline`'s compile stage:
it adopts, shares or compiles each configuration, the
``compile_policy`` calls running one after another on one
:class:`FDDBuilder` in configuration-state order, and hands the
finished configurations to :class:`~repro.runtime.compiler.CompiledNES`,
the artifact.  ``cache_dir`` enables a content-addressed
on-disk artifact cache: the key is a SHA-256 digest of the program AST,
the topology, the initial state and the package version (see
:meth:`Pipeline.artifact_key`), so a repeated
:class:`Pipeline`/``App`` construction skips the ETS/NES/compile stages
entirely and unpickles the
:class:`~repro.runtime.compiler.CompiledNES` directly.

The artifact is a function of program, topology and initial state
alone: every option is execution-only (cache placement and trust,
deadline) and cannot change the artifact bytes (the golden tests
in ``tests/test_pipeline.py`` pin this), so none enters the key.

The rule for future options: a :class:`CompileOptions` field -- like a
parameter of any function or constructor in the package -- exists only
when two real callers (not tests, not examples) need different values;
with one value in use it is a constant.  A reference
implementation that tests compare against lives beside them
(``tests/naive_oracles.py``: the per-state ETS walk, the cache-free
FDD builder) and is called by tests directly, never selected through
the options, the CLI or the wire — so one program has one artifact key.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import hmac
import math
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (
    ClassVar, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union,
)

from . import faults
from .events.ets_to_nes import nes_of_ets
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .events.nes import NES
from .netkat import ast as _ast
from .netkat.ast import Policy
from .netkat.compiler import Configuration, compile_policy
from .netkat.fdd import FDDBuilder
from .runtime.compiler import TAG_FIELD, CompiledNES, check_locally_determined
from .stateful.ast import StateVector, vector_update
from .stateful.ets import ETS, build_ets
from .stateful.symbolic import SymbolicProgram
from .topology import Topology

__all__ = [
    "CompileOptions",
    "Delta",
    "Pipeline",
    "PipelineReport",
    "ArtifactCache",
    "ArtifactCacheWarning",
    "ArtifactIntegrityError",
    "PipelineError",
    "StageError",
]

# Bump when the pickled artifact layout changes incompatibly; old cache
# entries then miss instead of unpickling garbage.  Format 2 added the
# optional HMAC-SHA256 signing envelope (see ArtifactCache); format 3
# shrank the options fingerprint to four fields and stopped persisting
# execution-only option values (the signing key among them); format 4
# dropped the options from the key and from the artifact altogether;
# format 5 stopped pickling the event structure's decoded enablers;
# format 6 pickles only the artifact's own fields (the unread event-set
# encodings and the per-run compile count are gone).
ARTIFACT_FORMAT = 6

# (field, accepted types, None allowed) for every CompileOptions field.
_SCALAR_FIELD_TYPES = (
    ("cache_dir", (str, os.PathLike), True),
    ("cache_hmac_key", (str, bytes), True),
    ("strict_cache", (bool,), False),
    ("deadline_seconds", (int, float), True),
)

# Environment fallback for CompileOptions.cache_hmac_key, so a fleet can
# be keyed without threading the secret through every construction site.
CACHE_HMAC_KEY_ENV = "REPRO_CACHE_HMAC_KEY"


class PipelineError(Exception):
    """Base for typed pipeline failures; ``stage`` names the provenance
    (``"ets"`` / ``"nes"`` / ``"compile"`` / ``"cache"``).

    ``health`` is filled by :meth:`Pipeline.update` — on this and on
    any other exception it lets out — with the absorbed-failure counters
    of the result it had to discard (a pipeline built directly still
    answers ``report().health`` after a failed stage).
    """

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.health: Mapping[str, int] = {}


class StageError(PipelineError):
    """A pipeline stage failed on its first raise; nothing inside the
    pipeline retries it."""


class ArtifactIntegrityError(PipelineError):
    """A cached artifact failed HMAC verification under
    ``strict_cache=True``.  Never raised in the default lenient mode,
    where a bad artifact is a recorded miss + quarantine instead."""

    def __init__(self, message: str):
        super().__init__("cache", message)


class ArtifactCacheWarning(UserWarning):
    """A cache failure was absorbed (the cache is an accelerator, never
    a gate); the warning carries the cause that used to be swallowed
    silently."""


@dataclass(frozen=True)
class CompileOptions:
    """Every option of the compile pipeline, in one validated place.

    A field exists only because real callers need different values for
    it (module docstring); which *implementation* computes a stage is
    not an option.  Field types are checked here, once, for the CLI and
    direct callers alike (``TypeError``; out-of-range values are
    ``ValueError``) — ``1`` is not ``True``.  Every field is
    execution-only: none can change the artifact, so none is part of
    its key.  ``tag_field`` is the constant
    :data:`~repro.runtime.compiler.TAG_FIELD`, readable here but not a
    field.

    - ``cache_dir``: directory for the persistent artifact cache;
      ``None`` (the default) disables it.
    - ``cache_hmac_key``: key (str/bytes) for HMAC-SHA256 signing of
      cache artifacts; falls back to the ``REPRO_CACHE_HMAC_KEY``
      environment variable, and ``None`` with no env var keeps the
      legacy unsigned format.  With a key, stored artifacts carry a
      signature envelope and loads verify it — a mismatching or
      unsigned entry is rejected (recorded miss + quarantine).
    - ``strict_cache``: escalate an integrity rejection from a recorded
      miss to a hard :class:`ArtifactIntegrityError` (for deployments
      where silently recompiling over a tampered cache is itself a
      signal worth stopping on).
    - ``deadline_seconds``: wall-clock budget for the compile stage, a
      finite number of seconds > 0, checked between per-configuration
      compiles (cooperative — one configuration is never preempted);
      exceeded → :class:`StageError`.
    """

    tag_field: ClassVar[str] = TAG_FIELD

    cache_dir: Optional[Union[str, Path]] = None
    cache_hmac_key: Optional[Union[str, bytes]] = None
    strict_cache: bool = False
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name, types, optional in _SCALAR_FIELD_TYPES:
            value = getattr(self, name)
            if value is None and optional:
                continue
            # bool is an int subclass; only the bool fields accept one.
            if not isinstance(value, types) or (
                isinstance(value, bool) and bool not in types
            ):
                expected = " or ".join(t.__name__ for t in types)
                raise TypeError(f"{name} must be {expected}, got {value!r}")
        deadline = self.deadline_seconds
        # NaN compares false with everything: "<= 0" alone would let it
        # through and switch the budget off.
        if deadline is not None and not (math.isfinite(deadline) and deadline > 0):
            raise ValueError(
                f"deadline_seconds must be finite and > 0, got {deadline}"
            )
        if self.cache_dir is not None:
            object.__setattr__(
                self, "cache_dir", Path(self.cache_dir).expanduser()
            )

    def replace(self, **changes) -> "CompileOptions":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def resolved_cache_hmac_key(self) -> Optional[bytes]:
        """The effective cache-signing key as bytes: the explicit field,
        else the ``REPRO_CACHE_HMAC_KEY`` environment variable, else
        ``None`` (unsigned legacy format)."""
        key = self.cache_hmac_key
        if key is None:
            env = os.environ.get(CACHE_HMAC_KEY_ENV)
            key = env if env else None
        if key is None:
            return None
        return key.encode() if isinstance(key, str) else bytes(key)


# ---------------------------------------------------------------------------
# Content-addressed artifact cache
# ---------------------------------------------------------------------------


def _topology_fingerprint(topology: Topology) -> str:
    """Canonical serialization of a topology (links, hosts, switches)."""
    links = tuple((str(src), str(dst)) for src, dst in topology.links())
    hosts = tuple((h.name, str(h.attachment)) for h in topology.hosts)
    switches = tuple(sorted(topology.switches))
    return repr((links, hosts, switches))


def artifact_digest(
    program: Policy,
    topology: Topology,
    initial_state: StateVector,
) -> str:
    """The content address of one compiled artifact.

    Every AST node has a canonical, structure-complete ``repr``, so the
    program is digested through it; the topology through its sorted
    link/host/switch serialization.  No option can change the artifact,
    so none is digested (module docstring).  The package version is
    folded in too, so a persistent ``cache_dir`` carried across an
    upgrade misses rather than serving tables compiled by an older
    (possibly since-fixed) compiler.
    """
    from . import __version__

    h = hashlib.sha256()
    for part in (
        f"repro-artifact-v{ARTIFACT_FORMAT}",
        f"repro-{__version__}",
        repr(program),
        _topology_fingerprint(topology),
        repr(tuple(initial_state)),
    ):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


# Signed-artifact envelope: MAGIC + 32-byte HMAC-SHA256(payload) +
# pickled payload.  Files without the magic are the legacy (format-1)
# unsigned layout.
_SIGNED_MAGIC = b"repro-signed-artifact\x00"
_HMAC_SIZE = hashlib.sha256().digest_size

# Quarantine slots kept per key (<key>.pkl.bad, .bad.1, ...) before the
# last slot is recycled; earlier forensic copies are never overwritten
# by a later rejection of the same key.
_QUARANTINE_SLOTS = 5


class ArtifactCache:
    """Pickled :class:`CompiledNES` artifacts under ``root/<digest>.pkl``.

    Writes go through a temp file + :func:`os.replace`, so concurrent
    pipelines racing on one key leave a complete artifact.  Unreadable
    or corrupt entries load as misses, never as errors — but no longer
    *silent* misses: the cause is surfaced once per cache as an
    :class:`ArtifactCacheWarning`, counted in ``health``, and the bad
    entry is quarantined to ``<key>.pkl.bad`` so a cold fleet does not
    re-read and re-reject it on every pipeline.

    With ``hmac_key`` set, stored artifacts carry an HMAC-SHA256
    signature envelope and loads verify it: a tampered, truncated, or
    unsigned entry is rejected (quarantine + recorded miss by default,
    :class:`ArtifactIntegrityError` under ``strict=True``) — the
    integrity prerequisite for sharing a cache beyond mutually-trusting
    writers.  A keyless cache still *reads* signed entries (unverified;
    same trust model as the legacy format it also reads).

    .. warning:: Artifacts are pickles, and unpickling executes code
       from the file.  The HMAC check authenticates entries against
       writers holding the key; without a key, point ``cache_dir`` only
       at directories whose writers you trust (your own machine, your
       own CI job) — never at a world-writable or untrusted shared path.
    """

    def __init__(
        self,
        root: Union[str, Path],
        hmac_key: Optional[bytes] = None,
        strict: bool = False,
        health: Optional[Dict[str, int]] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hmac_key = hmac_key
        self.strict = strict
        self.health = health if health is not None else {}
        self._warned: set = set()

    def path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def bad_path(self, key: str, slot: int = 0) -> Path:
        """Where a corrupt/unverifiable entry for ``key`` is quarantined.

        Repeated rejections of one key fill numbered slots (``.bad``,
        ``.bad.1``, ... up to ``_QUARANTINE_SLOTS``), so an earlier
        forensic copy survives later rejections.
        """
        suffix = ".bad" if slot == 0 else f".bad.{slot}"
        return self.root / f"{key}.pkl{suffix}"

    # -- failure bookkeeping ------------------------------------------------

    def _count(self, counter: str) -> None:
        obs_metrics.count_health(self.health, counter)

    def _warn_once(self, category: str, message: str) -> None:
        # Counted on EVERY call, not just the first: the warning is
        # one-shot per cache, but the registry keeps seeing swallowed
        # failures after the warning is suppressed.
        obs_metrics.inc(
            "repro_cache_warnings_total",
            category=category,
            help="ArtifactCacheWarning-worthy cache failures by category "
                 "(counted even after the one-shot warning is suppressed)",
        )
        if category not in self._warned:
            self._warned.add(category)
            warnings.warn(message, ArtifactCacheWarning, stacklevel=4)

    def _quarantine(self, key: str) -> None:
        """Move the entry aside so it is never re-read and re-rejected;
        best-effort (a read-only cache just leaves it in place).

        The first free quarantine slot is used, so repeated rejections
        of the same key preserve the earlier forensic copies instead of
        silently overwriting the single ``.bad`` file; past the slot
        bound, the last slot is recycled.  Each successful quarantine is
        counted.
        """
        target = self.bad_path(key, _QUARANTINE_SLOTS - 1)
        for slot in range(_QUARANTINE_SLOTS):
            candidate = self.bad_path(key, slot)
            if not candidate.exists():
                target = candidate
                break
        try:
            os.replace(self.path(key), target)
            self._count("cache.quarantined")
        except OSError:
            pass

    def _reject(self, key: str, reason: str) -> None:
        """An entry failed verification: quarantine + count, and under
        strict mode escalate to a hard typed error."""
        self._count("cache.integrity_rejected")
        self._quarantine(key)
        if self.strict:
            raise ArtifactIntegrityError(
                f"cache artifact {self.path(key).name} rejected: {reason}"
            )
        self._warn_once(
            "integrity",
            f"artifact cache entry rejected ({reason}); recompiling "
            f"(quarantined to {self.bad_path(key).name})",
        )

    # -- load / store -------------------------------------------------------

    def load(self, key: str) -> Optional[CompiledNES]:
        try:
            faults.check("cache.load")
            blob = self.path(key).read_bytes()
        except FileNotFoundError:
            return None
        except Exception as exc:  # unreadable entry: recompile over it
            self._count("cache.load_error")
            self._warn_once(
                "load", f"artifact cache load failed ({exc!r}); recompiling"
            )
            return None
        payload = blob
        if blob.startswith(_SIGNED_MAGIC):
            header_end = len(_SIGNED_MAGIC) + _HMAC_SIZE
            if len(blob) < header_end:
                # A torn write that truncated inside the magic+HMAC
                # header: recognizably a signed entry, but without a
                # complete signature.  Reject it for keyed AND keyless
                # readers — slicing through it would hand pickle.loads
                # garbage bytes and miscount this as a generic corrupt
                # load instead of an integrity rejection.
                self._reject(key, "torn signed header (truncated entry)")
                return None
            digest, payload = blob[len(_SIGNED_MAGIC):header_end], blob[header_end:]
            if self.hmac_key is not None:
                want = hmac.new(self.hmac_key, payload, hashlib.sha256).digest()
                if len(digest) != _HMAC_SIZE or not hmac.compare_digest(digest, want):
                    self._reject(key, "HMAC-SHA256 mismatch (tampered or torn)")
                    return None
        elif self.hmac_key is not None:
            self._reject(key, "unsigned entry in a keyed cache")
            return None
        try:
            artifact = pickle.loads(payload)
        except Exception as exc:  # corrupt/truncated entry
            self._count("cache.load_corrupt")
            self._quarantine(key)
            self._warn_once(
                "corrupt",
                f"corrupt artifact cache entry ({exc!r}); recompiling "
                f"(quarantined to {self.bad_path(key).name})",
            )
            return None
        if not isinstance(artifact, CompiledNES):
            self._count("cache.load_corrupt")
            self._quarantine(key)
            self._warn_once(
                "corrupt",
                f"artifact cache entry holds {type(artifact).__name__}, "
                "not a CompiledNES; recompiling",
            )
            return None
        return artifact

    def store(self, key: str, compiled: CompiledNES) -> Path:
        faults.check("cache.store")
        target = self.path(key)
        tmp = target.with_name(
            f"{target.name}.tmp{os.getpid()}.{threading.get_ident()}"
        )
        payload = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        if self.hmac_key is not None:
            payload = (
                _SIGNED_MAGIC
                + hmac.new(self.hmac_key, payload, hashlib.sha256).digest()
                + payload
            )
        try:
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return target


# ---------------------------------------------------------------------------
# Deltas: the inputs of incremental recompilation
# ---------------------------------------------------------------------------


def _state_int(value) -> int:
    """``value`` when it is an int.  ``int()`` would turn ``True``,
    ``1.9`` or ``"1"`` into ``1`` — the same tables under another
    artifact key, or a state nobody asked for."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"state components must be ints, got {value!r}")
    return value


def _substitute_policy(
    p: Policy, old: Policy, new: Policy, hits: List[int]
) -> Policy:
    """Rebuild ``p`` with every subterm equal to ``old`` replaced by
    ``new``, counting replacements in ``hits[0]``.

    The walk is deterministic and shape-preserving (plain constructors,
    no smart-constructor normalization), and returns untouched subtrees
    by identity — the post-delta program shares every unchanged node
    with the original, so an unchanged program stays the *same object*
    (what :attr:`Pipeline.ets` checks before borrowing the engine).
    """
    if p == old:
        hits[0] += 1
        return p if new == old else new  # X -> X keeps the same object
    if isinstance(p, _ast.Seq):
        left = _substitute_policy(p.left, old, new, hits)
        right = _substitute_policy(p.right, old, new, hits)
        return p if left is p.left and right is p.right else _ast.Seq(left, right)
    if isinstance(p, _ast.Union):
        left = _substitute_policy(p.left, old, new, hits)
        right = _substitute_policy(p.right, old, new, hits)
        return p if left is p.left and right is p.right else _ast.Union(left, right)
    if isinstance(p, _ast.Star):
        operand = _substitute_policy(p.operand, old, new, hits)
        return p if operand is p.operand else _ast.Star(operand)
    return p  # leaves w.r.t. policy children: filters, assigns, links, dup


@dataclass(frozen=True)
class Delta:
    """One small change to a pipeline's inputs (the unit of
    :meth:`Pipeline.update`).

    - ``set_state``: ``(component, value)`` writes applied to the
      initial state vector (the same shape as a link update's state
      writes).
    - ``replace_policy`` / ``with_policy``: substitute every occurrence
      of one sub-policy (matched by structural equality) with another;
      both must be given together, and the old sub-policy must occur.
    - ``topology``: a replacement topology (``None`` = unchanged).

    An all-defaults delta is a valid no-op (everything reuses).
    """

    set_state: Tuple[Tuple[int, int], ...] = ()
    replace_policy: Optional[Policy] = None
    with_policy: Optional[Policy] = None
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "set_state",
            tuple((_state_int(m), _state_int(n)) for m, n in self.set_state),
        )
        if (self.replace_policy is None) != (self.with_policy is None):
            raise ValueError(
                "replace_policy and with_policy must be given together"
            )

    def apply_program(self, program: Policy) -> Policy:
        """The post-delta program (``program`` itself when unchanged)."""
        if self.replace_policy is None:
            return program
        hits = [0]
        substituted = _substitute_policy(
            program, self.replace_policy, self.with_policy, hits
        )
        if not hits[0]:
            raise ValueError(
                f"replace_policy {self.replace_policy!r} does not occur "
                "in the program"
            )
        return substituted

    def apply_initial_state(self, initial: StateVector) -> StateVector:
        """The post-delta initial state vector."""
        initial = tuple(initial)
        if not self.set_state:
            return initial
        for component, _ in self.set_state:
            if not 0 <= component < len(initial):
                raise ValueError(
                    f"set_state component {component} out of range for a "
                    f"{len(initial)}-component state vector"
                )
        return vector_update(initial, self.set_state)

    def apply_topology(self, topology: Topology) -> Topology:
        """The post-delta topology."""
        return self.topology if self.topology is not None else topology


# ---------------------------------------------------------------------------
# The pipeline façade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineReport:
    """Per-stage wall-clock timings and artifact stats for one pipeline.

    Only stages that actually ran appear in ``stage_seconds``; a warm
    artifact-cache hit runs just the ``compile`` stage (the load), and
    ``artifact_cache`` records ``"hit"``/``"miss"`` (``None`` when the
    cache is disabled).
    """

    stage_seconds: Tuple[Tuple[str, float], ...]
    stats: Tuple[Tuple[str, int], ...]
    artifact_cache: Optional[str]
    # Sub-stage split of the ets stage: "ets.symbolic" (the one
    # partial-evaluation pass) and "ets.instantiate" (per-state BFS
    # instantiation).  These refine the "ets" entry of stage_seconds;
    # total_seconds() ignores them.  A pipeline produced by update()
    # additionally carries an "update.delta" substage (delta application
    # + warm-artifact check) and "update.*" entries in stats
    # (reinstantiation/recompile/reuse counters).
    substages: Tuple[Tuple[str, float], ...] = ()
    # Failure/recovery counters: cache integrity rejections and
    # quarantines, swallowed load/store errors.  Empty = nothing went
    # wrong *and* nothing was absorbed; every absorbed failure shows up
    # here, so nothing fails silently.
    health: Mapping[str, int] = dataclasses.field(default_factory=dict)

    def stage(self, name: str) -> Optional[float]:
        return dict(self.stage_seconds).get(name)

    def substage(self, name: str) -> Optional[float]:
        return dict(self.substages).get(name)

    def total_seconds(self) -> float:
        return sum(seconds for _, seconds in self.stage_seconds)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of this report.

        This is the wire shape shared by the compilation service
        (``GET /stats`` / ``GET /health`` and every ``/compile``
        response) and ``python -m repro compile --report --json``; the
        key set is pinned by ``tests/test_pipeline.py`` so the format
        cannot drift silently.
        """
        return {
            "artifact_cache": self.artifact_cache,
            "stages": dict(self.stage_seconds),
            "substages": dict(self.substages),
            "stats": dict(self.stats),
            "health": dict(self.health),
            "total_seconds": self.total_seconds(),
        }

    def __str__(self) -> str:
        lines = ["pipeline" + (f" artifact_cache={self.artifact_cache}"
                               if self.artifact_cache else "")]
        for name, seconds in self.stage_seconds:
            lines.append(f"  stage {name:<8s} {seconds:.6f}s")
            for sub, sub_seconds in self.substages:
                if sub.startswith(f"{name}."):
                    lines.append(f"    {sub:<18s} {sub_seconds:.6f}s")
        # Substages refining no stage that ran (e.g. "update.delta"):
        # printed in a trailing block so they stay visible.
        stages_shown = {name for name, _ in self.stage_seconds}
        for sub, sub_seconds in self.substages:
            if sub.split(".", 1)[0] not in stages_shown:
                lines.append(f"    {sub:<18s} {sub_seconds:.6f}s")
        for name, value in self.stats:
            lines.append(f"  {name:<22s} {value}")
        if self.health:
            for name in sorted(self.health):
                lines.append(f"  health {name:<22s} {self.health[name]}")
        else:
            lines.append("  health ok")
        return "\n".join(lines)


class Pipeline:
    """The staged toolchain of Figure 7 behind one façade.

    Stages are computed lazily and at most once::

        pipeline = Pipeline(program, topology, (0,), CompileOptions())
        pipeline.ets        # Stateful NetKAT -> event-driven transition system
        pipeline.nes        # ETS -> network event structure
        pipeline.compiled   # NES -> CompiledNES (tags + guarded tables)
        print(pipeline.report())

    With ``options.cache_dir`` set, :attr:`compiled` first consults the
    content-addressed artifact cache and, on a hit, skips the ETS and
    NES stages entirely (the NES is recovered from the artifact itself).

    The lazy memoization is thread-safe: a pipeline shared between
    threads (as the compilation service does across request handlers)
    runs each stage exactly once — concurrent readers of an unbuilt
    stage serialize on an internal lock and then observe the same
    artifact with fully-recorded stage timings.
    """

    def __init__(
        self,
        program: Policy,
        topology: Topology,
        initial_state: Iterable[int],
        options: Optional[CompileOptions] = None,
    ):
        self.program = program
        self.topology = topology
        self.initial_state: StateVector = tuple(map(_state_int, initial_state))
        self.options = options if options is not None else CompileOptions()
        self._ets: Optional[ETS] = None
        self._nes: Optional[NES] = None
        self._compiled: Optional[CompiledNES] = None
        self._symbolic: Optional[SymbolicProgram] = None
        # Set only by update(), and only while the result is being
        # built: the pipeline whose stages this one may borrow from.
        self._predecessor: Optional[Pipeline] = None
        # A pipeline update() did not make is a lineage root and keeps
        # the builder it compiled on; update() hands a successor the
        # root's engine and builder (never the root pipeline), which
        # are read-only once the root's own build has finished.
        self._builder: Optional[FDDBuilder] = None
        self._lineage: Optional[tuple] = None  # (engine, builder)
        self._fdd_nodes_new = 0
        # compile_policy runs of this pipeline's compile stage (none on
        # a warm-artifact hit).
        self._configurations_compiled = 0
        self._stage_seconds: Dict[str, float] = {}
        self._substage_seconds: Dict[str, float] = {}
        self._update_stats: Dict[str, int] = {}
        self._artifact_cache_state: Optional[str] = None
        self._artifact_key: Optional[str] = None
        self._cache: Optional[ArtifactCache] = None
        self._cache_resolved = False
        self._health: Dict[str, int] = {}
        # Guards the lazy stage memoization: a Pipeline shared between
        # threads (the compilation service memoizes pipelines across
        # request handlers) must run each stage exactly once, and a
        # lock-free reader that sees a published artifact must also see
        # its recorded stage timings — so stages run under this lock and
        # the memo field is always assigned *last*.
        self._memo_lock = threading.RLock()

    def _count(self, counter: str) -> None:
        obs_metrics.count_health(self._health, counter)

    def _record_stage(self, name: str, seconds: float) -> None:
        """The one writer of a stage timing: the report's view and the
        installed registry's histogram."""
        self._stage_seconds[name] = seconds
        obs_metrics.observe(
            "repro_pipeline_stage_seconds",
            seconds,
            stage=name,
            help="Wall-clock seconds per pipeline stage run, by stage",
        )

    @contextlib.contextmanager
    def _stage(self, name: str) -> Iterator[obs_trace.Span]:
        """One stage run, cold or incremental: the fault boundary (an
        injected fault surfaces as a typed :class:`StageError` with
        provenance), then the body under a span and a wall-clock timer,
        then :meth:`_record_stage`.  A body that raises records nothing.
        """
        try:
            faults.check(f"stage.{name}")
        except faults.FaultInjected as exc:
            raise StageError(name, f"stage {name!r} failed: {exc}") from exc
        with obs_trace.span(name) as stage_span:
            start = time.perf_counter()
            yield stage_span
            seconds = time.perf_counter() - start
        self._record_stage(name, seconds)

    # -- staged artifacts ---------------------------------------------------

    @property
    def ets(self) -> ETS:
        if self._ets is None:
            with self._memo_lock:
                if self._ets is None:
                    # One symbolic partial evaluation, then the per-state
                    # BFS instantiation (the report's "ets.*" substages).
                    # The engine is retained for a successor to borrow
                    # when update() leaves the program untouched.
                    previous = self._predecessor
                    with self._stage("ets") as stage_span:
                        start = time.perf_counter()
                        with obs_trace.span("ets.symbolic"):
                            symbolic = None
                            if (
                                previous is not None
                                and previous.program is self.program
                            ):
                                symbolic = previous._symbolic
                            if symbolic is None:
                                symbolic = SymbolicProgram(
                                    self.program,
                                    self._lineage and self._lineage[0],
                                )
                        mid = time.perf_counter()
                        with obs_trace.span("ets.instantiate"):
                            ets = build_ets(
                                self.program,
                                self.initial_state,
                                symbolic=symbolic,
                            )
                        symbolic.freeze()
                        if previous is not None and ets == previous._ets:
                            # Equal in every field: keep the one object,
                            # with the indexes (and the conversion's
                            # condition-1 pairs) already derived on it.
                            ets = previous._ets
                        end = time.perf_counter()
                        stage_span.set(states=len(ets.states()))
                    self._substage_seconds["ets.symbolic"] = mid - start
                    self._substage_seconds["ets.instantiate"] = end - mid
                    self._symbolic = symbolic
                    self._ets = ets
        return self._ets

    @property
    def nes(self) -> NES:
        if self._nes is None:
            with self._memo_lock:
                if self._nes is None:
                    if self._compiled is None:
                        # A warm artifact carries its NES, so consult
                        # the cache before paying for the ETS and NES
                        # stages.  (The ETS is not part of the artifact;
                        # pipeline.ets always builds.)
                        self._load_artifact()
                    if self._compiled is not None:
                        self._nes = self._compiled.nes
                    else:
                        ets = self.ets
                        previous = self._predecessor
                        if previous is not None and ets is previous._ets:
                            # Same initial state, vertex labeling and
                            # edge set (the ets stage kept the equal
                            # object): the conversion and its checks
                            # would reproduce the predecessor's NES.
                            self._nes = previous.nes
                        else:
                            with self._stage("nes") as stage_span:
                                # Same initial state and edges under
                                # other labels: the conversion adopts
                                # the predecessor's event structure (a
                                # warm-cache source has no ETS to lend).
                                lender = previous and (previous._ets, previous.nes)
                                nes = nes_of_ets(ets, previous=lender)
                                stage_span.set(events=len(nes.events))
                            self._nes = nes
        return self._nes

    @property
    def compiled(self) -> CompiledNES:
        if self._compiled is None:
            with self._memo_lock:
                if self._compiled is None:
                    self._load_artifact()
                if self._compiled is None:
                    nes = self.nes
                    with self._stage("compile") as stage_span:
                        check_locally_determined(nes)
                        reuse = self._reusable_configurations(nes)
                        states = nes.configuration_states()
                        builder = None
                        if self._lineage is None:
                            builder = self._builder = FDDBuilder()
                        elif len(reuse) < len(states):
                            # A successor compiles on a fork of the
                            # root's builder and drops it afterwards.
                            root = self._lineage[1]
                            builder = root.fork() if root else FDDBuilder()
                        inherited = builder.node_count if builder else 0
                        compiled = CompiledNES(
                            nes,
                            self.topology,
                            self._configurations_of(nes, states, builder, reuse),
                        )
                        if builder is not None:
                            self._fdd_nodes_new = builder.node_count - inherited
                        if reuse and len(reuse) == len(states):
                            lender = self._predecessor.compiled
                            if compiled.states == lender.states:
                                # Every table adopted under the same
                                # state tuple, hence the same config ids
                                # and guards: the predecessor's merge,
                                # shared whether or not it is built yet.
                                compiled.adopt_guarded_tables(lender)
                        stage_span.set(
                            configurations=len(states),
                            reused_configurations=len(reuse),
                            compiled_configurations=self._configurations_compiled,
                        )
                    self._hold(compiled)
                    self._store_artifact()
        return self._compiled

    def _configurations_of(
        self,
        nes: NES,
        states: Tuple[StateVector, ...],
        builder: Optional[FDDBuilder],
        reuse: Mapping[StateVector, Configuration],
    ) -> Dict[StateVector, Configuration]:
        """The configuration of each of ``states``, in order: adopted from
        ``reuse``, else holding the tables of an equal policy compiled
        earlier in this loop, else compiled on ``builder``.

        Tables are a pure function of (policy, switch set), so sharing
        is byte-identical to compiling, and ``compile_policy`` runs once
        per *distinct* policy (a cap-N chain has N+2 states and two
        policies); the runs are counted in ``_configurations_compiled``.

        Each configuration compiles once: the same inputs give the same
        tables or the same exception, so nothing is retried.  Every
        compile passes the ``executor.worker`` fault site;
        ``options.deadline_seconds`` bounds the stage wall clock,
        checked before each compile (one configuration is never
        preempted); any failure surfaces as a typed :class:`StageError`
        with stage provenance, never as a bare exception.
        """
        pending = len(states) - len(reuse)
        budget = self.options.deadline_seconds
        deadline = None if budget is None else time.monotonic() + budget

        def compile_one(policy: Policy, name: str) -> Configuration:
            if deadline is not None and time.monotonic() > deadline:
                raise StageError(
                    "compile",
                    f"deadline_seconds={budget} exceeded "
                    f"with {pending} configuration(s) in flight",
                )
            try:
                with obs_trace.span("compile.configuration", configuration=name):
                    faults.check("executor.worker")
                    return compile_policy(
                        policy, self.topology, builder=builder, name=name
                    )
            except Exception as exc:
                raise StageError(
                    "compile", f"configuration {name} failed: {exc!r}"
                ) from exc

        first: Dict[Policy, Configuration] = {}
        configurations: Dict[StateVector, Configuration] = {}
        for state in states:
            if state in reuse:
                configurations[state] = reuse[state]
                continue
            name = f"C{list(state)}"
            policy = nes.configuration_policy(state)
            shared = first.get(policy)
            if shared is None:
                configurations[state] = first[policy] = compile_one(policy, name)
            else:
                configurations[state] = shared.named(name)
        if obs_metrics.active() is not None:
            for result, count in (
                ("compiled", len(first)),
                ("shared", pending - len(first)),
                ("adopted", len(reuse)),
            ):
                obs_metrics.inc(
                    "repro_compile_configurations_total", count, result=result,
                    help="Configurations by how the compile obtained their tables",
                )
        self._configurations_compiled = len(first)
        return configurations

    def _reusable_configurations(
        self, nes: NES
    ) -> Dict[StateVector, Configuration]:
        """The predecessor's compiled configurations this pipeline may
        adopt.  Tables are a pure function of the configuration policy
        and the topology's *switch set* — links live in the program, and
        hosts are not a compile input — so a state qualifies when its
        policy is equal and the switch set is unchanged.  Under a new
        topology object the adopted configuration is re-homed on it,
        sharing its tables."""
        previous = self._predecessor
        if previous is None:
            return {}
        rehome = previous.topology is not self.topology
        if rehome and previous.topology.switches != self.topology.switches:
            return {}
        old_policy = previous.nes.configuration_policy
        configurations = previous.compiled.configurations
        return {
            state: (
                configurations[state].on_topology(self.topology)
                if rehome
                else configurations[state]
            )
            for state in nes.configuration_states()
            if state in configurations
            and nes.configuration_policy(state) == old_policy(state)
        }

    def _store_artifact(self) -> None:
        """Best-effort store of ``_compiled`` under this pipeline's key."""
        cache = self._artifact_cache()
        if cache is None or self._compiled is None:
            return
        try:
            with obs_trace.span("cache.store"):
                cache.store(self.artifact_key(), self._compiled)
            obs_metrics.inc(
                "repro_cache_stores_total",
                result="ok",
                help="Artifact cache stores by result",
            )
        except Exception as exc:
            # The cache is an accelerator, never a gate: a full
            # or unwritable cache_dir, or an artifact pickle
            # failure, must not discard a compile that already
            # succeeded.  But it must not vanish either — the
            # cause is warned once and counted in health.
            self._count("cache.store_error")
            obs_metrics.inc(
                "repro_cache_stores_total",
                result="error",
                help="Artifact cache stores by result",
            )
            warnings.warn(
                f"artifact cache store failed ({exc!r}); the "
                "compiled tables are unaffected but the cache "
                "stays cold for this key",
                ArtifactCacheWarning,
                stacklevel=3,
            )

    def _load_artifact(self) -> None:
        """Populate ``_compiled`` from the artifact cache on a hit.

        Consulted at most once per pipeline (the hit/miss verdict is
        recorded either way); a no-op when the cache is disabled.
        """
        if self._artifact_cache_state is not None:
            return
        cache = self._artifact_cache()
        if cache is None:
            return
        start = time.perf_counter()
        with obs_trace.span("cache.load") as load_span:
            loaded = cache.load(self.artifact_key())
            load_span.set(result="hit" if loaded is not None else "miss")
        obs_metrics.inc(
            "repro_cache_loads_total",
            result="hit" if loaded is not None else "miss",
            help="Artifact cache loads by result",
        )
        if loaded is not None:
            self._artifact_cache_state = "hit"
            # On a hit the load *is* this pipeline's compile stage.
            self._record_stage("compile", time.perf_counter() - start)
            self._hold(loaded)
        else:
            self._artifact_cache_state = "miss"

    def _hold(self, compiled: CompiledNES) -> None:
        """Publish ``compiled``, cold or loaded, as this pipeline's
        artifact.  Artifacts persist no options: how this run executes
        is this run's, so the held artifact carries this pipeline's
        (readers take ``options.tag_field`` from it)."""
        compiled.options = self.options
        self._compiled = compiled

    # -- incremental recompilation ------------------------------------------

    def update(self, delta: Delta) -> "Pipeline":
        """Recompile after ``delta``, borrowing what the change cannot reach.

        Returns a **new**, compiled :class:`Pipeline` for the post-delta
        inputs; this one is untouched and stays valid for the pre-delta
        program.  The result is an ordinary pipeline running the one
        stage sequence above, and while it is built each stage may
        borrow from this one:

        - :attr:`ets` takes the retained :class:`SymbolicProgram` (and
          its frozen per-state memo) when the program is the same
          object, and otherwise starts the partial evaluation from the
          lineage root engine's walk memos, so only the spine the delta
          changed is walked again;
        - :attr:`nes` reads the ETS's initial state and edges, and its
          vertex labels only through condition 1 of section 3.1: it
          takes the whole NES when the new ETS equals the old one, and
          the event structure (re-labelled with the new configurations,
          condition 1 re-checked) when only vertex labels changed; the
          conversion reruns whenever the delta touched an edge;
        - :attr:`compiled` reads each configuration policy and the
          topology's switch set (links live in the program; hosts are
          no compile input): it adopts
          the tables of every state whose policy is equal while the
          switch set is unchanged, re-homed on the post-delta topology — so a host or link delta
          compiles nothing, and a switch delta every distinct policy —
          and compiles the rest on a fork of the lineage root's
          :class:`FDDBuilder`, dropped afterwards, so FDDs of unchanged
          sub-policies are found, not rebuilt;
        - the guarded merge reads the state tuple, the tables and the
          switch set: when every table was adopted and the states are
          the same, the result shares the predecessor's merge, built
          once by whichever side first needs it.

        The contract is byte identity with a cold pipeline on the
        post-delta inputs.  A warm artifact under the post-delta
        :meth:`artifact_key` beats all of it, and a compiled result is
        stored under that key.  The reference back to this pipeline is
        dropped before returning.  The lineage root is this pipeline, or
        the first pipeline of the chain that made it, and a chain of any
        length keeps alive only that root's engine and builder — never
        an intermediate ancestor, never the root pipeline itself.
        Neither is written to after the root's own build, so updates
        from one base may run on several threads at once.

        The result's :meth:`report` carries an ``update.delta`` substage
        (delta application + warm-artifact check) and seven ``update.*``
        stats: ``symbolic_entries_new`` counts the walk memo entries its
        engine added to the root's, ``fdd_nodes_new`` the nodes its fork
        added to the root builder (both 0 when nothing was rebuilt);
        ``states_reused`` counts the ETS states whose out-edges
        and configuration equal this pipeline's, ``states_reinstantiated``
        the rest; ``configurations_recompiled`` the ``compile_policy``
        runs the compile stage took (none on a warm-artifact hit, which
        builds no ETS), ``configurations_reused`` the rest: adopted, or
        sharing the tables of an equal policy compiled alongside.  Any
        exception leaving ``update()`` — typed or not (a
        ``LocalityError`` is a plain ``Exception``) — carries the
        discarded result's absorbed-failure counters as ``exc.health``:
        the caller has no pipeline to ask.
        """
        with obs_trace.span("pipeline.update"):
            start = time.perf_counter()
            updated = Pipeline(
                delta.apply_program(self.program),
                delta.apply_topology(self.topology),
                delta.apply_initial_state(self.initial_state),
                self.options,
            )
            # Force the source once (the production shape: updates
            # arrive at an already-compiled pipeline).  Its ETS and
            # engine are lent only if it ran those stages itself — a
            # warm-cache source never did.
            self.compiled
            updated._predecessor = self
            updated._lineage = self._lineage or (self._symbolic, self._builder)
            try:
                updated._load_artifact()
                updated._substage_seconds["update.delta"] = (
                    time.perf_counter() - start
                )
                compiled = updated.compiled
            except Exception as exc:
                exc.health = dict(updated._health)
                raise
            finally:
                updated._predecessor = None
            old_ets, new_ets = self._ets, updated._ets
            states = new_ets.vertices if new_ets is not None else ()
            states_reused = 0
            if old_ets is not None and states:
                old_policy = dict(old_ets.vertices)
                moved = {edge.src for edge in old_ets.edges ^ new_ets.edges}
                states_reused = sum(
                    state not in moved and policy == old_policy.get(state)
                    for state, policy in states
                )
            total = len(compiled.states)
            reused = total - updated._configurations_compiled
            symbolic = updated._symbolic
            traffic = {
                "update.symbolic_entries_new": (
                    symbolic.entries_new
                    if symbolic is not None and symbolic is not self._symbolic
                    else 0
                ),
                "update.fdd_nodes_new": updated._fdd_nodes_new,
            }
            if obs_metrics.active() is not None:
                for name, value in traffic.items():
                    obs_metrics.inc(
                        f"repro_{name.replace('.', '_')}_total", value,
                        help="Walk memo entries / FDD nodes an update "
                        "added to its lineage root's",
                    )
            updated._update_stats = {
                **traffic,
                "update.states_reinstantiated": len(states) - states_reused,
                "update.states_reused": states_reused,
                "update.configurations_recompiled": total - reused,
                "update.configurations_reused": reused,
                "update.reuse_percent": (
                    int(round(100 * reused / total)) if total else 100
                ),
            }
            return updated

    # -- artifact cache -----------------------------------------------------

    def artifact_key(self) -> str:
        """The content address of this pipeline's compiled artifact.

        Memoized: the inputs are immutable, and digesting the full
        program repr is not free.
        """
        if self._artifact_key is None:
            self._artifact_key = artifact_digest(
                self.program, self.topology, self.initial_state
            )
        return self._artifact_key

    def _artifact_cache(self) -> Optional[ArtifactCache]:
        if not self._cache_resolved:
            self._cache_resolved = True
            if self.options.cache_dir is not None:
                try:
                    self._cache = ArtifactCache(
                        self.options.cache_dir,
                        hmac_key=self.options.resolved_cache_hmac_key(),
                        strict=self.options.strict_cache,
                        health=self._health,
                    )
                except OSError as exc:
                    # An uncreatable cache_dir (read-only filesystem,
                    # bad parent: mkdir's OSError) disables the cache;
                    # it never aborts the compile — but it is counted
                    # and warned, not silently dropped.  Anything else
                    # is a bug and propagates.
                    self._cache = None
                    self._count("cache.disabled")
                    warnings.warn(
                        f"artifact cache disabled: cannot use cache_dir "
                        f"{self.options.cache_dir} ({exc!r})",
                        ArtifactCacheWarning,
                        stacklevel=3,
                    )
        return self._cache

    # -- reporting ----------------------------------------------------------

    def report(self) -> PipelineReport:
        """Timings and stats for the stages that have run so far."""
        stats: Dict[str, int] = {}
        if self._ets is not None:
            stats["ets_states"] = len(self._ets.states())
            stats["ets_edges"] = len(self._ets.edges)
        if self._nes is not None:
            stats["nes_events"] = len(self._nes.events)
            stats["nes_event_sets"] = len(self._nes.event_sets())
        if self._compiled is not None:
            compiled = self._compiled
            stats["configurations"] = len(compiled.states)
            forwarding = compiled.forwarding_rule_count()
            stats["forwarding_rules"] = forwarding
            stats["total_rules"] = forwarding + compiled.stamp_rule_count()
        if self._update_stats:
            stats.update(self._update_stats)
        order = {"ets": 0, "nes": 1, "compile": 2}
        timings = tuple(
            sorted(self._stage_seconds.items(), key=lambda kv: order[kv[0]])
        )
        sub_order = {"ets.symbolic": 0, "ets.instantiate": 1, "update.delta": 2}
        substages = tuple(
            sorted(
                self._substage_seconds.items(),
                key=lambda kv: sub_order.get(kv[0], len(sub_order)),
            )
        )
        return PipelineReport(
            stage_seconds=timings,
            stats=tuple(stats.items()),
            artifact_cache=self._artifact_cache_state,
            substages=substages,
            health=dict(self._health),
        )

    def __repr__(self) -> str:
        ran = [name for name, _ in self.report().stage_seconds]
        return f"Pipeline(stages_run={ran or '[]'})"
