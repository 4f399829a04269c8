"""Deterministic, seeded fault injection for the compilation pipeline.

The pipeline, the artifact cache, and the per-configuration compile
executor each call :func:`check` at a named **site** on their failure
seams.  With no plan installed (the default, and the production state)
the call is a single global read and an immediate return — zero
overhead.  With a :class:`FaultPlan` installed, each hit of a site is
deterministically evaluated against the plan's per-site rule and may
raise :class:`FaultInjected`, which the instrumented layer then has to
survive: retry, or fail with a typed error.  The chaos suite
(``tests/test_faults.py``) is built on exactly that contract.

Sites (see :data:`SITES`):

- ``cache.load`` / ``cache.store`` — inside
  :meth:`~repro.pipeline.ArtifactCache.load` / ``store``; an injected
  fault models an unreadable or unwritable cache entry.
- ``executor.worker`` — at the top of every per-configuration compile
  attempt; models a crashing compile.
- ``stage.ets`` / ``stage.nes`` / ``stage.compile`` — at each
  :class:`~repro.pipeline.Pipeline` stage boundary; models a stage that
  cannot start.

Determinism: every random decision is drawn from a per-site
:class:`random.Random` seeded by SHA-256 of ``(plan seed, site)``, so a
plan replays the identical fault schedule per site regardless of the
order sites interleave, hash randomization, or thread scheduling of
*other* sites.  (Within one site hit from several daemon handler
threads, hit numbering follows arrival order; use ``max_fires``/``skip``
rules, which are order-insensitive, when a test needs exact
cross-thread replay.)

Usage::

    from repro import faults

    plan = faults.FaultPlan({"executor.worker": faults.FaultRule(max_fires=1)})
    with faults.injected(plan):
        tables = Pipeline(program, topo, (0,), options).compiled
    assert plan.fires("executor.worker") == 1
"""

from __future__ import annotations

import hashlib
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "SITES",
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "active",
    "check",
    "injected",
    "install",
    "uninstall",
]

# Every instrumented seam.  Plans naming any other site are rejected at
# construction, so a typo'd site fails loudly instead of never firing.
SITES: Tuple[str, ...] = (
    "cache.load",
    "cache.store",
    "executor.worker",
    "stage.ets",
    "stage.nes",
    "stage.compile",
)


class FaultInjected(Exception):
    """Raised at an instrumented site when the installed plan fires.

    Carries the site name and the 1-based hit number that fired, so a
    failure observed downstream can be traced to the exact injection.
    """

    def __init__(self, site: str, hit: int):
        super().__init__(f"injected fault at {site!r} (hit #{hit})")
        self.site = site
        self.hit = hit


@dataclass(frozen=True)
class FaultRule:
    """When one site fires.

    - ``probability``: chance that an eligible hit fires (1.0 = every
      eligible hit; draws come from the plan's per-site seeded stream).
    - ``max_fires``: stop firing after this many injections (``None`` =
      unbounded).  Bounded rules are how chaos tests model *transient*
      faults that a retry must absorb.
    - ``skip``: let the first N hits through before becoming eligible
      (models a fault that appears mid-run, e.g. only on the warm load).
    """

    probability: float = 1.0
    max_fires: Optional[int] = None
    skip: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be >= 0, got {self.max_fires}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")


def _site_rng(seed: int, site: str) -> random.Random:
    """A per-site stream derived stably from (seed, site) — never from
    the process hash seed, so plans replay across interpreters."""
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FaultPlan:
    """A seeded schedule of faults over the named :data:`SITES`.

    ``rules`` maps site names to :class:`FaultRule` (a bare float is
    shorthand for ``FaultRule(probability=...)``).  Hit and fire counts
    are observable per site (:meth:`hits` / :meth:`fires`) so tests can
    assert the schedule actually exercised what they meant to exercise.
    Thread-safe: the daemon's handler threads hit sites concurrently.
    """

    def __init__(
        self,
        rules: Mapping[str, Union[FaultRule, float]],
        seed: int = 0,
    ):
        unknown = sorted(set(rules) - set(SITES))
        if unknown:
            raise ValueError(
                f"unknown fault site(s) {unknown}; choose from {SITES}"
            )
        self.seed = seed
        self.rules: Dict[str, FaultRule] = {
            site: rule if isinstance(rule, FaultRule) else FaultRule(float(rule))
            for site, rule in rules.items()
        }
        self._rngs = {site: _site_rng(seed, site) for site in self.rules}
        self._hits: Dict[str, int] = {site: 0 for site in SITES}
        self._fires: Dict[str, int] = {site: 0 for site in SITES}
        self._lock = threading.Lock()

    def check(self, site: str) -> None:
        """Record a hit of ``site``; raise :class:`FaultInjected` if the
        plan's rule says this hit fires."""
        rule = self.rules.get(site)
        with self._lock:
            self._hits[site] = hit = self._hits[site] + 1
            if rule is None or hit <= rule.skip:
                return
            if rule.max_fires is not None and self._fires[site] >= rule.max_fires:
                return
            if rule.probability < 1.0 and not (
                self._rngs[site].random() < rule.probability
            ):
                return
            self._fires[site] += 1
        raise FaultInjected(site, hit)

    def hits(self, site: str) -> int:
        """How many times ``site`` was reached (fired or not)."""
        with self._lock:
            return self._hits[site]

    def fires(self, site: str) -> int:
        """How many times ``site`` actually injected a fault."""
        with self._lock:
            return self._fires[site]

    def __repr__(self) -> str:
        fired = {s: n for s, n in self._fires.items() if n}
        return f"FaultPlan(seed={self.seed}, sites={sorted(self.rules)}, fired={fired})"


# ---------------------------------------------------------------------------
# The installed-plan registry
# ---------------------------------------------------------------------------

_active: Optional[FaultPlan] = None
_install_lock = threading.Lock()


def active() -> Optional[FaultPlan]:
    """The currently installed plan (``None`` in production)."""
    return _active


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide.  Exactly one plan may be active;
    installing over another is a test bug and raises."""
    global _active
    if not isinstance(plan, FaultPlan):
        raise TypeError(f"install() wants a FaultPlan, got {type(plan).__name__}")
    with _install_lock:
        if _active is not None:
            raise RuntimeError(
                "a FaultPlan is already installed; uninstall() it first "
                "(plans do not nest)"
            )
        _active = plan


def uninstall() -> None:
    """Remove the installed plan (idempotent)."""
    global _active
    with _install_lock:
        _active = None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def check(site: str) -> None:
    """The hook the instrumented layers call.

    With no plan installed this is one global read and a return — the
    zero-overhead production path.  With a plan installed it delegates
    to :meth:`FaultPlan.check`, which may raise :class:`FaultInjected`.
    """
    plan = _active
    if plan is not None:
        plan.check(site)
