"""Output oracles: none of them is the code under test.

- pinned SHA-256 digests (``expected/digests.json``) of the canonical
  guarded-table bytes per program and of the delivery/drop record
  sequence per simulator scenario;
- seeded packet probes that run every configuration's guarded tables
  hop by hop and compare what reaches a host with the denotational
  semantics (``repro.netkat.semantics``) of the *projected* source
  program -- the reference the FDD compiler itself is validated against;
- record signatures for simulator runs.

Heavy checks run in set-up on the warm-up pass's outputs; the timed
region then compares each op's output with those verified bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import struct
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.netkat.compiler import Configuration
from repro.netkat.packet import LocatedPacket, Packet
from repro.netkat.semantics import eval_packet
from repro.stateful.projection import project

EXPECTED_PATH = Path(__file__).resolve().parent / "expected" / "digests.json"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- semantic probes --------------------------------------------------------------

_TEST = re.compile(r"\b([A-Za-z_]\w*)=(\d+)")
PROBES_PER_CONFIGURATION = 12
_MAX_HOPS = 64


def probe_packets(rng: random.Random, text: str, topology) -> List[Packet]:
    """Seeded packets at host-facing ports, over the constants the
    program tests plus one value it never mentions."""
    domains: Dict[str, Set[int]] = {}
    for field, value in _TEST.findall(text):
        if field not in ("pt", "sw", "state"):
            domains.setdefault(field, set()).add(int(value))
    fields = sorted(domains)
    choices = [sorted(domains[f]) + [max(domains[f]) + 1000] for f in fields]
    packets = []
    for location in topology.edge_locations():
        for values in itertools.product(*choices):
            header = dict(zip(fields, values))
            packets.append(Packet(header).at(location))
    rng.shuffle(packets)
    return packets


def _deliveries(config: Configuration, packet: Packet) -> Set[Packet]:
    """Run one packet through a configuration's step relation until
    every copy has left at a host port or been dropped."""
    delivered: Set[Packet] = set()
    frontier = {LocatedPacket.of(packet)}
    for _ in range(_MAX_HOPS):
        if not frontier:
            return delivered
        following = set()
        for lp in frontier:
            for out in config.switch_step(lp):
                moved = config.link_step(out)
                if moved:
                    following |= moved
                else:
                    delivered.add(out.packet)
        frontier = following
    raise RuntimeError("probe packet did not terminate")


def probe_compiled(
    rng: random.Random, text: str, program, compiled
) -> Tuple[int, List[str]]:
    """Compare every configuration's guarded tables with the semantics
    of the projected program; returns (probes made, mismatch notes)."""
    tag_field = compiled.options.tag_field
    merged = Configuration(compiled.guarded_tables(), compiled.topology)
    packets = probe_packets(rng, text, compiled.topology)
    made = 0
    mismatches: List[str] = []
    for state in compiled.states:
        reference = project(program, state)
        tag = compiled.config_ids[state]
        for packet in rng.sample(packets, min(len(packets), PROBES_PER_CONFIGURATION)):
            made += 1
            expected = eval_packet(reference, packet)
            actual = {
                out.without(tag_field)
                for out in _deliveries(merged, packet.set(tag_field, tag))
            }
            if actual != set(expected):
                mismatches.append(f"state {state} packet {packet!r}")
    return made, mismatches


# -- simulator records ----------------------------------------------------------------


def _events(events) -> str:
    # Event sets print in hash order, which changes from one
    # interpreter to the next; sort them.
    return "-" if events is None else "{" + ",".join(sorted(map(repr, events))) + "}"


def _record_line(record) -> str:
    frame = record.frame
    where = getattr(record, "host", None) or (
        f"{record.location}:{record.reason}"
    )
    return (
        f"{record.time!r} {where} {frame.packet!r} {frame.payload_bytes} "
        f"tag={_events(frame.tag)} digest={_events(frame.digest)} "
        f"{frame.flow!r} {frame.ident} {frame.injected_at!r}\n"
    )


def record_digest(net) -> str:
    """SHA-256 over the full ``DeliveryRecord``/``DropRecord`` sequences
    (every field of every frame, tag and digest included)."""
    digest = hashlib.sha256()
    for records in (net.deliveries, net.drops):
        for record in records:
            digest.update(_record_line(record).encode())
        digest.update(b"|")
    return digest.hexdigest()


def record_signature(net) -> Tuple[int, int, int, bytes]:
    """A cheap per-op stand-in for :func:`record_digest`: the event,
    delivery and drop counts plus a hash over every record's time and
    frame ident.  The simulator is deterministic, so an episode whose
    signature equals the warm-up episode's (whose full digest was
    checked) produced the same records."""
    digest = hashlib.sha256()
    pack = struct.Struct("<dq").pack
    for records in (net.deliveries, net.drops):
        digest.update(b"".join(pack(r.time, r.frame.ident) for r in records))
        digest.update(b"|")
    return (
        net.sim.events_processed,
        len(net.deliveries),
        len(net.drops),
        digest.digest(),
    )
