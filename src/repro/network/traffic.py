"""Traffic generators and measurements: ping trains and iperf-like flows.

Pings model the case-study workloads of Figures 11-15: a request packet
(``kind=1``) is injected at the source; when it reaches the destination
host, an automatic reply (``kind=2``) with swapped addresses is sent
back; the ping *succeeds* when the reply reaches the original source.

Bulk flows model the iperf measurements of Figure 16(a): a burst of
MTU-sized packets is pushed through the network and goodput is computed
from the delivery timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..apps.base import HOSTS
from ..netkat.packet import Packet
from .simulator import Frame, FrameBatch, SimNetwork

__all__ = [
    "KIND_REQUEST",
    "KIND_REPLY",
    "install_ping_responders",
    "send_ping",
    "PingOutcome",
    "ping_outcomes",
    "send_bulk",
    "goodput",
]

KIND_REQUEST = 1
KIND_REPLY = 2
PING_PAYLOAD_BYTES = 64


def install_ping_responders(net: SimNetwork) -> None:
    """Make every host answer ping requests addressed to it."""
    for host in net.topology.hosts:
        net.auto_reply[host.name] = _reply_handler


def _reply_handler(net: SimNetwork, host_name: str, frame: Frame) -> None:
    packet = frame.packet
    if packet.get("kind") != KIND_REQUEST:
        return
    if packet.get("ip_dst") != HOSTS.get(host_name):
        return  # flooded copy delivered to a bystander; do not answer
    reply_packet = Packet(
        {
            "ip_src": packet["ip_dst"],
            "ip_dst": packet["ip_src"],
            "kind": KIND_REPLY,
            "ident": packet.get("ident", 0),
        }
    )
    reply = Frame(
        packet=reply_packet,
        payload_bytes=frame.payload_bytes,
        flow=("ping-reply",) + frame.flow[1:],
        ident=frame.ident,
    )
    net.inject(host_name, reply, at=net.now)


def send_ping(
    net: SimNetwork,
    src: str,
    dst: str,
    ident: int,
    at: float,
    extra_fields: Optional[Mapping[str, int]] = None,
) -> None:
    """Inject one 64-byte ping request from ``src`` to ``dst`` at time ``at``."""
    fields: Dict[str, int] = {
        "ip_src": HOSTS[src],
        "ip_dst": HOSTS[dst],
        "kind": KIND_REQUEST,
        "ident": ident,
    }
    if extra_fields:
        fields.update(extra_fields)
    frame = Frame(
        packet=Packet(fields),
        payload_bytes=PING_PAYLOAD_BYTES,
        flow=("ping", src, dst),
        ident=ident,
    )
    net.inject(src, frame, at=at)


@dataclass(frozen=True)
class PingOutcome:
    """One ping's fate: when it was sent, and whether/when it completed."""

    src: str
    dst: str
    ident: int
    sent_at: float
    succeeded: bool
    completed_at: Optional[float] = None


def ping_outcomes(
    net: SimNetwork, pings: Sequence[Tuple[str, str, int, float]]
) -> List[PingOutcome]:
    """Match sent pings against delivered replies.

    ``pings`` lists (src, dst, ident, sent_at) tuples as scheduled by the
    caller; a ping succeeded when a ``ping-reply`` for (src, dst, ident)
    was delivered back to ``src``.
    """
    replies: Dict[Tuple[str, str, int], float] = {}
    for record in net.deliveries:
        frame = record.frame
        if frame.flow[:1] != ("ping-reply",):
            continue
        _, src, dst = frame.flow
        if record.host == src:
            replies.setdefault((src, dst, frame.ident), record.time)
    out: List[PingOutcome] = []
    for src, dst, ident, sent_at in pings:
        completed = replies.get((src, dst, ident))
        out.append(
            PingOutcome(
                src=src,
                dst=dst,
                ident=ident,
                sent_at=sent_at,
                succeeded=completed is not None,
                completed_at=completed,
            )
        )
    return out


def send_bulk(
    net: SimNetwork,
    src: str,
    dst: str,
    packets: int,
    payload_bytes: int = 1470,
    spacing: float = 0.0,
) -> None:
    """Inject an iperf-like burst of ``packets`` MTU-sized packets from
    time 0, as one :class:`FrameBatch` stream."""
    net.inject_stream(
        src,
        FrameBatch(
            {
                "ip_src": HOSTS[src],
                "ip_dst": HOSTS[dst],
                "kind": 0,
                "ident": range(packets),
            },
            packets,
            payload_bytes=payload_bytes,
            flow=("bulk", src, dst),
            spacing=spacing,
        ),
    )


def goodput(net: SimNetwork, src: str, dst: str) -> float:
    """Delivered payload bytes per second for a bulk flow (0 if < 2 packets)."""
    records = [
        r
        for r in net.delivered_flows(("bulk", src, dst))
        if r.host == dst
    ]
    if len(records) < 2:
        return 0.0
    start = min(r.frame.injected_at for r in records)
    finish = max(r.time for r in records)
    if finish <= start:
        return 0.0
    total_payload = sum(r.frame.payload_bytes for r in records)
    return total_payload / (finish - start)
