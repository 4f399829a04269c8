"""Seeded input generation for every workload, in one place.

The program under test receives only what this module generates:
concrete-syntax program text, wire-format topologies and deltas, frame
batch columns, injection scripts and request schedules.  A seed changes
constants and orders, never the amount of work: perturbation is a
bijection on host addresses, delta values and request kinds are seeded
permutations of fixed multisets, so medians stay comparable across seeds.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import apps
from repro.netkat.pretty import pretty_policy
from repro.service import protocol

# -- programs -------------------------------------------------------------------

APP_FACTORIES: Dict[str, Callable[[], apps.App]] = {
    "firewall": apps.firewall_app,
    "ids": apps.ids_app,
    "authentication": apps.authentication_app,
    "ring4": lambda: apps.ring_app(4),
    "bandwidth_cap": apps.bandwidth_cap_app,
    "learning_switch": apps.learning_switch_app,
    "learning_multi": apps.learning_multi_app,
    "ring8": lambda: apps.ring_app(8),
    "ring2": lambda: apps.ring_app(2),
    "cap4": lambda: apps.bandwidth_cap_app(4),
    "cap10": lambda: apps.bandwidth_cap_app(10),
}
for _depth in (8, 16, 24, 32, 48):
    APP_FACTORIES[f"cap{_depth}"] = (
        lambda depth=_depth: apps.bandwidth_cap_app(depth)
    )


@dataclass(frozen=True)
class ProgramInput:
    """One compile input as it would arrive from outside: text + wire."""

    name: str
    text: str
    topology: Dict[str, Any]
    initial_state: Tuple[int, ...]

    def variant(self, k: int) -> "ProgramInput":
        """The same program with every host address shifted by ``10*k``
        (a bijection on constants: a distinct program, the same shape)."""
        if k == 0:
            return self
        return ProgramInput(
            f"{self.name}~{k}", perturb(self.text, k), self.topology,
            self.initial_state,
        )


_ADDRESS = re.compile(r"\b(ip_dst|ip_src)=(\d+)")


def perturb(text: str, k: int) -> str:
    return _ADDRESS.sub(
        lambda m: f"{m.group(1)}={int(m.group(2)) + 10 * k}", text
    )


def program(name: str) -> ProgramInput:
    app = APP_FACTORIES[name]()
    return ProgramInput(
        name,
        pretty_policy(app.program),
        protocol.topology_to_wire(app.topology),
        tuple(app.initial_state),
    )


def variant_ids(rng: random.Random, count: int, limit: int = 40) -> List[int]:
    """``count`` distinct perturbation ids in ``1..limit``."""
    return rng.sample(range(1, limit + 1), count)


# -- deltas (update_stream, service_mix) -----------------------------------------

# Per base program: the set_state values, and the filter a
# replace_policy delta rewrites (the reply path, so events keep their
# shape and the blast radius is the configurations, not the ETS).
UPDATE_BASES: Dict[str, Dict[str, Any]] = {
    "cap24": {"values": list(range(1, 9)), "filter": "pt=2 & ip_dst=1"},
    "ids": {"values": [1, 2], "filter": "pt=2 & ip_dst=3"},
    "ring8": {"values": [1], "filter": "pt=3 & ip_dst=1"},
}

DELTA_POOL = 4


def delta_wires(
    rng: random.Random, base: ProgramInput, kind: str
) -> List[Dict[str, Any]]:
    """The seeded pool of wire-format deltas of one kind for one base."""
    spec = UPDATE_BASES[base.name]
    if kind == "set_state":
        values = list(spec["values"])
        rng.shuffle(values)
        return [{"set_state": [[0, v]]} for v in values]
    if kind == "replace_policy":
        old = spec["filter"]
        return [
            {"replace_policy": old, "with_policy": perturb(old, k)}
            for k in variant_ids(rng, DELTA_POOL)
        ]
    if kind == "topology":
        switch = min(base.topology["switches"])
        ports = rng.sample(range(5, 13), DELTA_POOL)
        return [
            {
                "topology": {
                    **base.topology,
                    "hosts": base.topology["hosts"] + [["HX", f"{switch}:{p}"]],
                }
            }
            for p in ports
        ]
    raise ValueError(f"unknown delta kind {kind!r}")


# -- frames (sim_stream, sim_churn) -----------------------------------------------


@dataclass(frozen=True)
class Stream:
    """One ``FrameBatch`` to inject: host, header columns, count, timing."""

    host: str
    columns: Dict[str, Any]
    count: int
    spacing: float
    start: float = 0.0


# scenario -> (app, source host, constant header)
STREAM_SCENARIOS: Dict[str, Tuple[str, str, Dict[str, int]]] = {
    "ring2": ("ring2", "H1", {"ip_src": 1, "ip_dst": 2}),
    "ring8": ("ring8", "H1", {"ip_src": 1, "ip_dst": 2}),
    "cap10": ("cap10", "H1", {"ip_src": 1, "ip_dst": 4}),
    "firewall_fwd": ("firewall", "H1", {"ip_src": 1, "ip_dst": 4}),
    "firewall_rev": ("firewall", "H4", {"ip_src": 4, "ip_dst": 1}),
}

STREAM_SPACING = 1e-6


def constant_stream(scenario: str, frames: int, ident: int) -> List[Stream]:
    _, host, header = STREAM_SCENARIOS[scenario]
    columns = dict(header, kind=0, ident=ident)
    return [Stream(host, columns, frames, STREAM_SPACING)]


# scenario -> (app, bulk (host, header), triggers [(host, header)]): the
# bulk stream varies ident and ip_src per frame; each trigger stream is
# the traffic whose arrival fires the app's events.
CHURN_SCENARIOS: Dict[str, Tuple[str, Tuple[str, Dict[str, int]], List[Tuple[str, Dict[str, int]]]]] = {
    "firewall": (
        "firewall",
        ("H4", {"ip_src": 4, "ip_dst": 1}),
        [("H1", {"ip_src": 1, "ip_dst": 4})],
    ),
    "cap10": (
        "cap10",
        ("H4", {"ip_src": 4, "ip_dst": 1}),
        [("H1", {"ip_src": 1, "ip_dst": 4})],
    ),
    "ids": (
        "ids",
        ("H4", {"ip_src": 4, "ip_dst": 3}),
        [("H4", {"ip_src": 4, "ip_dst": 1}), ("H4", {"ip_src": 4, "ip_dst": 2})],
    ),
    "authentication": (
        "authentication",
        ("H4", {"ip_src": 4, "ip_dst": 3}),
        [("H4", {"ip_src": 4, "ip_dst": 1}), ("H4", {"ip_src": 4, "ip_dst": 2})],
    ),
}

CHURN_SPACING = 1e-5
CHURN_TRIGGERS = 20


def churn_streams(rng: random.Random, scenario: str, frames: int) -> List[Stream]:
    """A bulk stream whose ident and ip_src differ on every frame (so no
    two frames share a header and none can replay a cached plan), plus
    ``CHURN_TRIGGERS`` event-triggering frames spread evenly through it."""
    _, (bulk_host, bulk_header), triggers = CHURN_SCENARIOS[scenario]
    idents = rng.sample(range(1, 1 << 20), frames)
    sources = [bulk_header["ip_src"] + 10 * rng.randrange(1, 200) for _ in range(frames)]
    streams = [
        Stream(
            bulk_host,
            dict(bulk_header, kind=0, ident=idents, ip_src=sources),
            frames,
            CHURN_SPACING,
        )
    ]
    every = max(1, frames // CHURN_TRIGGERS)
    for index, (host, header) in enumerate(triggers):
        count = max(1, frames // every // len(triggers))
        streams.append(
            Stream(
                host,
                dict(header, kind=0, ident=rng.sample(range(1 << 20, 1 << 21), count)),
                count,
                CHURN_SPACING * every * len(triggers),
                # offset between bulk frames, second trigger half a period later
                start=CHURN_SPACING * (0.5 + every * index),
            )
        )
    return streams


# -- runtime scripts (verify_traces) -----------------------------------------------

Injection = Tuple[str, Dict[str, int]]


def _exchange(rng, a: str, b: str, ha: int, hb: int, rounds: int) -> List[Injection]:
    script: List[Injection] = []
    for _ in range(rounds):
        script.append((a, {"ip_dst": hb, "ip_src": ha, "ident": rng.randrange(1, 1 << 16)}))
        script.append((b, {"ip_dst": ha, "ip_src": hb, "ident": rng.randrange(1 << 16, 1 << 17)}))
    return script


def _probes(rng, destinations: Sequence[int]) -> List[Injection]:
    return [
        ("H4", {"ip_dst": d, "ip_src": 4, "ident": rng.randrange(1, 1 << 16)})
        for d in destinations
    ]


def trace_script(rng: random.Random, family: str) -> List[Injection]:
    """The injection script of one trace family (same shape every seed;
    idents and the runtime's interleaving seed vary)."""
    if family == "firewall":
        return _exchange(rng, "H1", "H4", 1, 4, 8)
    if family == "cap4":
        return _exchange(rng, "H1", "H4", 1, 4, 6)
    if family == "learning":
        return _exchange(rng, "H4", "H1", 4, 1, 6)
    if family in ("ids", "authentication"):
        return _probes(rng, [3, 1, 3, 2, 3, 1, 2, 3] * 2)
    raise ValueError(f"unknown trace family {family!r}")


# -- request schedule (service_mix) --------------------------------------------------

# 20 requests = 13 warm, 3 update, 2 cold, 1 disk, 1 batch.
SERVICE_PATTERN: Tuple[str, ...] = (
    ("warm",) * 13 + ("update",) * 3 + ("cold",) * 2 + ("disk", "batch")
)


def service_pattern(rng: random.Random) -> List[str]:
    pattern = list(SERVICE_PATTERN)
    rng.shuffle(pattern)
    return pattern
