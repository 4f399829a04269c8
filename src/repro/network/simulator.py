"""A deterministic discrete-event network simulator.

This is the reproduction's stand-in for Mininet + real traffic: hosts,
switches, and links with latency and capacity, driven by a seeded event
queue.  The evaluation's claims are all about *orderings* -- which
packets are processed before which rule updates -- and counts of
delivered/dropped packets, which a discrete-event simulation reproduces
faithfully and repeatably.

The simulator is agnostic to forwarding semantics: each switch delegates
to a :class:`SwitchLogic` strategy.  The correct (tag-based) logic lives
in :mod:`repro.network.switch_logic`; the uncoordinated baseline in
:mod:`repro.baselines.uncoordinated`.

There is one scheduling discipline and one ingress.  Each switch keeps
its processing backlog in a FIFO with only the head event on the heap.
Every frame enters the network through the logic's ``ingress_frame``
(the IN rule), called by :class:`_StreamArrival` at emission time:
:meth:`SimNetwork.inject` schedules one such arrival, and
:meth:`SimNetwork.inject_stream` bulk-injects a :class:`FrameBatch` (an
array-of-fields stream description), interning identical headers to
shared :class:`Packet` objects and chaining arrivals one ahead, so a
long stream costs one heap entry.  One shortcut is taken from what the
plugged-in logic publishes, never from a setting: emission plans (see
:class:`_Plan`) when it has ``classify``, ``plan_generations`` and
``header_overhead``.  A logic that publishes none (the baselines, and
the frozenset reference the record goldens of the tests compare
against) runs the same loop without them.

The per-hop path keeps one plan store, keyed by the leaf that one
descent of the switch's guarded table ends at (``classify``), so headers
that differ only in fields no rule or event reads share a plan and the
store is bounded by the leaves of the decision trees, one per (switch,
table): a leaf may be reached under several tags, and a plan is valid
only for the tag it recorded.  A hop whose (leaf, tag, digest) was seen
under the switch's current generation replays the plan on its own
packet -- one construction per output, the link's far end folded in --
and any other hop runs :meth:`_Process._full`, the single loop that
resolves egress ports.
Before descending, the hop asks the packet object itself: a packet
remembers the plan it last replayed and what that emitted, so a stream
of one interned header neither descends nor allocates (``sim_stream``:
all but a few dozen of several ten thousand hops; ``sim_churn``: one
descent per hop, 97 % of them replays; counted in CHANGES.md, PR 22).
The delivery statistics accessors scan ``deliveries``: they are called
once per scenario.

A lone stream drains in one step.  While :meth:`Simulator.run` goes to
quiescence (no ``until``), a replayed hop that ends its frame's path --
a host delivery, a ``no-link-at-port`` or a ``no-matching-rule`` drop --
now and then calls :meth:`SimNetwork._drain`, which finishes every
pending frame at once when all of these hold:

- every pending heap or FIFO entry is one of this network's frame
  events (no controller callback, no other scheduled action);
- at most one :meth:`SimNetwork.inject_stream` chain is unfinished, and
  all its rows carry one interned packet (a constant-header batch);
- no ``auto_reply`` handler waits at the path's end host;
- the drained events fit under ``max_events``;
- every pending frame stands on one loop-free path, and every hop of it
  replays a valid single-output plan from its packet's ``_replay`` slot
  (the frame's masks, the switch's current generation, this store).

Then the frames are finished most-advanced first, each across its
remaining hops with the float expressions of ``_StreamArrival``,
``_Arrival`` and ``_Process``; the same records are appended, the seq
counter skips the pushes the event loop would have made, the skipped
events count in ``events_processed``, ``repro_sim_events_processed_total``
and the plan-cache ``hit`` counter, and the clock ends at the last
event's time.  This is exact: a replay writes no register, generation
or ingress stamp, so nothing the frames read can change; each switch
and link on the path serves only this path's frames, in path order,
and equal-time arrivals at a switch are ordered by transmit order,
which is frame order (a frame's serialisation time exceeds the clock's
rounding error, so arrival times do not invert); and the only records
are the path's terminal ones, whose time order is frame order.  Any
other state declines, and the per-event loop runs unchanged; a decline
doubles the number of path ends until the next attempt, so a network
where the conditions never hold makes O(log frames) attempts of
O(pending events) each.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from operator import length_hint

# Bound once: the scheduler hot path calls this per event.
from heapq import heappush as _heappush
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from ..events.event import Event, EventSet
from ..netkat.packet import Location, Packet, PT, SW, check_field
from ..obs import metrics as obs_metrics
from ..topology import Host, Topology

__all__ = [
    "Frame",
    "FrameBatch",
    "Simulator",
    "LinkParams",
    "SwitchLogic",
    "SimNetwork",
    "DeliveryRecord",
    "DropRecord",
]


class Frame:
    """A packet on the wire, plus runtime metadata.

    ``payload_bytes`` is the application payload; the wire size adds
    per-strategy header overhead.  ``flow`` identifies the logical flow
    for statistics; ``ident`` disambiguates packets within a flow.

    The tag and digest travel as interned bitmasks (``tag_mask``,
    ``digest_mask``) of ``structure``, the
    :class:`~repro.events.structure.EventStructure` that stamped them.
    An untagged frame (the baselines') has ``tag_mask`` None and no
    structure.  ``tag`` and ``digest`` are the decoded frozenset views,
    and equality, hashing and repr are those of a frozen dataclass over
    them.
    """

    __slots__ = (
        "packet",
        "payload_bytes",
        "flow",
        "ident",
        "injected_at",
        "tag_mask",
        "digest_mask",
        "structure",
    )

    def __init__(
        self,
        packet: Packet,
        payload_bytes: int = 1000,
        *,
        flow: Tuple = (),
        ident: int = 0,
        injected_at: float = 0.0,
        tag_mask: Optional[int] = None,
        digest_mask: int = 0,
        structure=None,
    ):
        self.packet = packet
        self.payload_bytes = payload_bytes
        self.flow = flow
        self.ident = ident
        self.injected_at = injected_at
        self.tag_mask = tag_mask
        self.digest_mask = digest_mask
        self.structure = structure

    @property
    def tag(self) -> Optional[EventSet]:
        mask = self.tag_mask
        return None if mask is None else self.structure.decode(mask)

    @property
    def digest(self) -> EventSet:
        structure = self.structure
        return frozenset() if structure is None else structure.decode(self.digest_mask)

    def replace(self, **changes) -> "Frame":
        """``dataclasses.replace`` equivalent over the slots."""
        new = Frame.__new__(Frame)
        new.packet = changes.pop("packet", self.packet)
        new.payload_bytes = changes.pop("payload_bytes", self.payload_bytes)
        new.flow = changes.pop("flow", self.flow)
        new.ident = changes.pop("ident", self.ident)
        new.injected_at = changes.pop("injected_at", self.injected_at)
        new.tag_mask = changes.pop("tag_mask", self.tag_mask)
        new.digest_mask = changes.pop("digest_mask", self.digest_mask)
        new.structure = changes.pop("structure", self.structure)
        if changes:
            raise TypeError(f"unknown frame fields: {sorted(changes)}")
        return new

    def with_location(self, location: Location) -> "Frame":
        relocated = self.packet.at(location)
        return self if relocated is self.packet else self.replace(packet=relocated)

    def _identity(self) -> Tuple:
        return (
            self.packet,
            self.payload_bytes,
            self.tag,
            self.digest,
            self.flow,
            self.ident,
            self.injected_at,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Frame:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return (
            f"Frame(packet={self.packet!r}, payload_bytes={self.payload_bytes!r}, "
            f"tag={self.tag!r}, digest={self.digest!r}, flow={self.flow!r}, "
            f"ident={self.ident!r}, injected_at={self.injected_at!r})"
        )


class FrameBatch:
    """An array-of-fields description of a packet stream.

    Instead of one :class:`Frame` object per packet up front, a batch
    holds parallel columns: header fields (each either a scalar applied
    to every frame or a per-frame sequence), payload sizes, flow ids,
    idents, and injection times (``start`` + ``i * spacing`` unless an
    explicit ``times`` column is given).  Iterating :meth:`rows` interns
    identical header tuples to *shared* :class:`Packet` objects, which
    is what lets every switch downstream replay from the packet's own
    slot instead of descending its table per packet.
    """

    __slots__ = (
        "count",
        "columns",
        "payloads",
        "flow",
        "flows",
        "idents",
        "times",
        "start",
        "spacing",
    )

    def __init__(
        self,
        columns: Mapping[str, Union[int, Sequence[int]]],
        count: int,
        *,
        payload_bytes: Union[int, Sequence[int]] = 1000,
        flow: Tuple = (),
        flows: Optional[Sequence[Tuple]] = None,
        idents: Optional[Sequence[int]] = None,
        start: float = 0.0,
        spacing: float = 0.0,
        times: Optional[Sequence[float]] = None,
    ):
        if not isinstance(count, int) or isinstance(count, bool):
            raise TypeError(f"a batch's frame count must be an int, got {count!r}")
        self.count = count
        if count < 0:
            raise ValueError("a batch cannot have a negative frame count")

        def column(name, value):
            col = tuple(value)
            if len(col) != self.count:
                raise ValueError(
                    f"column {name!r} has {len(col)} entries for "
                    f"{self.count} frames"
                )
            return col

        self.columns: Dict[str, Union[int, Tuple[int, ...]]] = {
            name: value if isinstance(value, int) else column(name, value)
            for name, value in dict(columns).items()
        }
        # Checked here, once, so that a bad entry fails the caller and
        # not the run; rows() then builds packets without re-checking.
        for name, value in self.columns.items():
            for entry in (value,) if isinstance(value, int) else value:
                check_field(name, entry)
        self.payloads = (
            payload_bytes
            if isinstance(payload_bytes, int)
            else column("payload_bytes", payload_bytes)
        )
        self.flow = tuple(flow)
        self.flows = None if flows is None else column("flows", flows)
        self.idents = None if idents is None else column("idents", idents)
        self.times = None if times is None else column("times", times)
        self.start = float(start)
        self.spacing = float(spacing)

    def __len__(self) -> int:
        return self.count

    def rows(
        self, location: Optional[Location] = None
    ) -> Iterator[Tuple[float, Packet, int, Tuple, int]]:
        """Yield ``(at, packet, payload_bytes, flow, ident)`` per frame.

        With ``location`` the interned packets already carry the
        ``sw``/``pt`` fields of the injection point, so ingress stamping
        does not re-allocate them.
        """
        interned: Dict[Tuple[int, ...], Packet] = {}
        names = tuple(self.columns)
        cols = tuple(self.columns.values())
        base = (
            {SW: location.switch, PT: location.port} if location is not None else {}
        )
        payloads = self.payloads
        flow = self.flow
        flows = self.flows
        idents = self.idents
        times = self.times
        start = self.start
        spacing = self.spacing
        if (
            all(isinstance(c, int) for c in cols)
            and isinstance(payloads, int)
            and flows is None
            and idents is None
            and times is None
        ):
            # Constant-header stream: one interned packet, arithmetic
            # times, sequential idents -- no per-row key building.
            fields = dict(base)
            fields.update(zip(names, cols))
            packet = Packet._of(fields)
            for i in range(self.count):
                yield (start + i * spacing, packet, payloads, flow, i)
            return
        for i in range(self.count):
            key = tuple(c if isinstance(c, int) else c[i] for c in cols)
            packet = interned.get(key)
            if packet is None:
                fields = dict(base)
                fields.update(zip(names, key))
                packet = Packet._of(fields)
                interned[key] = packet
            yield (
                times[i] if times is not None else start + i * spacing,
                packet,
                payloads if isinstance(payloads, int) else payloads[i],
                flow if flows is None else flows[i],
                i if idents is None else idents[i],
            )


class DeliveryRecord(NamedTuple):
    time: float
    host: str
    frame: Frame


class DropRecord(NamedTuple):
    time: float
    location: Location
    frame: Frame
    reason: str = "no-matching-rule"


class Simulator:
    """A seeded discrete-event scheduler."""

    # Every event body reads now/_heap/_counter; slots keep those loads
    # off the instance-dict path.
    __slots__ = (
        "now", "random", "_heap", "_counter", "events_processed", "_ticks", "_skipped",
    )

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.random = random.Random(seed)
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.events_processed = 0
        # While run() goes to quiescence: its event-count iterator, whose
        # length hint is how many more events it may process.  An event
        # that finishes others itself (SimNetwork._drain) adds them to
        # ``_skipped``, which run() counts as processed.
        self._ticks: Optional[Iterator[int]] = None
        self._skipped = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s in the past")
        _heappush(self._heap, (self.now + delay, next(self._counter), action))

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Process events in time order; returns the final clock value."""
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until {until}s: the clock is at {self.now}s")
        heap = self._heap
        pop = heapq.heappop
        processed = started_at = self.events_processed
        try:
            if until is None:
                # Drain until the pop itself raises: one branch per
                # event instead of two (the try is free until it
                # raises).  A range loop keeps the event-count
                # bookkeeping in the iterator instead of a per-event
                # compare+add.
                ticks = self._ticks = iter(range(processed + 1, max_events + 1))
                for processed in ticks:
                    try:
                        time, _seq, action = pop(heap)
                    except IndexError:
                        # The pop that raised processed nothing.
                        processed -= 1
                        break
                    self.now = time
                    action()
            else:
                while heap and processed < max_events:
                    time = heap[0][0]
                    if time > until:
                        self.now = until
                        return until
                    time, _seq, action = pop(heap)
                    self.now = time
                    processed += 1
                    action()
        finally:
            self._ticks = None
            processed += self._skipped
            self._skipped = 0
            self.events_processed = processed
            # Once per call, never per event: the loops above are the
            # same with or without a registry installed.
            obs_metrics.inc(
                "repro_sim_events_processed_total",
                processed - started_at,
                "Discrete events processed by Simulator.run",
            )
        if heap and processed >= max_events:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        return self.now


@dataclass(frozen=True)
class LinkParams:
    """Physical link characteristics."""

    latency: float = 0.001  # seconds of propagation delay
    capacity: float = 12_500_000.0  # bytes/second (100 Mbit/s)


class SwitchLogic(Protocol):
    """Forwarding strategy plugged into every switch of a SimNetwork."""

    def header_bytes(self, frame: Frame) -> int:
        """Wire overhead added on top of the payload."""
        ...

    def ingress_frame(
        self, location: Location, packet: Packet, payload_bytes: int, flow: Tuple,
        ident: int, now: float,
    ) -> Frame:
        """The IN rule: the frame a host emits at edge port ``location``
        at time ``now``, stamped."""
        ...

    def process(
        self, net: "SimNetwork", location: Location, frame: Frame
    ) -> List[Tuple[int, Frame]]:
        """Process an arrival; return (egress port, frame) outputs."""
        ...


class _Chain:
    """The shared state of a lazily scheduled stream (see
    :meth:`SimNetwork.inject_stream`): the rows still to emit, the clock
    when it was injected, the tie-break seq reserved for the next row
    and the end of that reserved range, and whether every row carries
    one interned packet (a constant-header batch)."""

    __slots__ = ("rows", "start", "seq", "end", "one_header")

    def __init__(self, rows, start, seq, end, one_header):
        self.rows = rows
        self.start = start
        self.seq = seq
        self.end = end
        self.one_header = one_header


class _StreamArrival:
    """One scheduled host emission: a frame of an
    :meth:`SimNetwork.inject_stream` batch, or one :meth:`SimNetwork.inject`.

    When it fires it asks the logic's ``ingress_frame`` for the stamped
    frame (the IN rule, ``injected_at`` = now) and queues it at the
    switch: the one place a frame enters the network.
    """

    __slots__ = ("net", "location", "frame")

    def __init__(self, net, location, packed):
        self.net = net
        self.location = location
        # Packed (packet, payload_bytes, flow, ident, chain): sharing
        # the three-slot layout of _Process lets __call__ rebirth this
        # object as the processing event instead of allocating one.
        # ``chain`` is the shared _Chain of a lazily scheduled stream,
        # or None for a row pushed on its own (an inject, or a batch
        # that cannot chain).
        self.frame = packed

    def __call__(self) -> None:
        net = self.net
        location = self.location
        packet, payload_bytes, flow, ident, chain = self.frame
        sim = net.sim
        now = sim.now
        heap = sim._heap
        if chain is not None:
            # Push the successor arrival now, with its pre-reserved
            # tie-break seq: the heap holds one pending entry per
            # stream instead of the whole remaining batch.
            row = next(chain.rows, None)
            if row is not None:
                at, npacket, npayload, nflow, nident = row
                now0 = chain.start
                delay = at - now0
                if delay < 0.0:
                    delay = 0.0
                seq = chain.seq
                chain.seq = seq + 1
                nxt = _StreamArrival.__new__(_StreamArrival)
                nxt.net = net
                nxt.location = location
                nxt.frame = (npacket, npayload, nflow, nident, chain)
                _heappush(heap, (now0 + delay, seq, nxt))
            elif not chain.one_header:
                net._varying_chains -= 1
        self.frame = net.logic.ingress_frame(
            location, packet, payload_bytes, flow, ident, now
        )
        # Queue at the switch exactly as a link arrival does.
        _Arrival.__call__(self)


class _LinkState:
    """Mutable per-link record: the resolved target plus serialization
    state, so transmitting costs zero Location-keyed dict lookups."""

    __slots__ = ("dst", "latency", "capacity", "free_at")

    def __init__(self, dst: Location, params: LinkParams):
        self.dst = dst
        self.latency = params.latency
        self.capacity = params.capacity
        self.free_at = 0.0


_DRAIN_HELP = "Simulator drains of a lone stream, by result"

# Emission-plan target kinds.
_PLAN_LINK = 0
_PLAN_HOST = 1
_PLAN_DROP = 2


class _Plan:
    """A cached, fully resolved processing outcome for one (leaf,
    tag_mask, digest_mask) input class, the leaf being where one descent
    of the switch's guarded table ends for the packet.  A leaf belongs
    to a (switch, table) tree and may be reached under several tags, so
    a plan is valid only for the tag it recorded.

    The contract, which a logic opts into by publishing ``classify``,
    ``plan_generations`` and ``header_overhead`` (only ``CorrectLogic``
    does; any other logic runs the full path on every hop):

    - ``classify(switch, tag_mask, packet)`` is the located packet's
      :class:`~repro.runtime.compiler.Leaf`, and ``process`` reads the
      packet through that leaf alone;
    - ``plan_generations[switch]`` is bumped on every register/noted
      mutation at that switch, and a plan is valid only while it is
      unchanged -- exactly when the cached run had no side effects;
    - ``header_overhead`` is ``header_bytes(frame)`` for every frame;
    - ``process`` sets ``last_plan = (leaf, tag_mask, digest_mask)``
      when, and only when, the run it just made had no side effects and
      the leaf is ``ordered`` (the simulator clears it before each
      call), and all its outputs carry one tag/digest mask pair.

    Under it, replaying the plan is record-identical to re-running the
    logic: same targets in the same order, same output masks, same
    link/float arithmetic.  ``emits`` holds ``(kind, target, pairs)``
    per output: the replay writes ``pairs`` -- the modification, then
    the far end of the link -- onto the frame's own packet in one
    construction and leaves ``(plan, outputs)`` in that packet's
    ``_replay`` slot, so hop n+1 sees the very object hop n emitted.  A
    slot is trusted only when its plan's ``store`` is this network's
    plan store (one packet may cross two networks); the plan points at
    the store and never at the network, which would then sit in a
    reference cycle and wait for the cyclic collector.

    The same slots chain a path: a frame whose packet's slot holds a
    valid single-output plan goes on to the packet that plan emitted,
    whose slot holds the next hop's, up to a delivery or drop.  When
    every pending frame stands on one such chain, ``SimNetwork._drain``
    replays them all without the event loop (module docstring).  It
    asks ``ingress_frame`` for a stream's next frame before it decides,
    so a logic that publishes plans stamps frames without side effects
    (``CorrectLogic`` reads one register).
    """

    __slots__ = (
        "store",
        "tag_mask",
        "digest_mask",
        "generation",
        "out_tag_mask",
        "out_digest_mask",
        "structure",
        "emits",
        "single",
    )

    def __init__(
        self, store, tag_mask, digest_mask, generation, out_tag_mask,
        out_digest_mask, structure, emits,
    ):
        self.store = store
        self.tag_mask = tag_mask
        self.digest_mask = digest_mask
        self.generation = generation
        self.out_tag_mask = out_tag_mask
        self.out_digest_mask = out_digest_mask
        self.structure = structure
        self.emits = emits  # ((kind, target, pairs), ...)
        # The dominant steady-state shape is exactly one emit; caching
        # it spares the replay a len()+index per hop.
        self.single = emits[0] if len(emits) == 1 else None


class _Process:
    """The scheduled per-hop processing event (one per switch arrival).

    A slotted callable instead of a closure so the plan fast path can
    run with zero intermediate allocations; the full path is identical
    in behaviour to the original closure body.
    """

    __slots__ = ("net", "location", "frame")

    def __init__(self, net: "SimNetwork", location: Location, frame: Frame):
        self.net = net
        self.location = location
        self.frame = frame

    def __call__(self) -> None:
        net = self.net
        location = self.location
        frame = self.frame
        switch_id = location.switch
        sim = net.sim
        # Lazy-heap discipline: this event was the head of its switch's
        # FIFO backlog; retire it and promote the next queued processing
        # event into the heap.  Per-switch finish times are monotone, so
        # the promoted entry is always pushed at or before its fire time
        # -- heap-pop order is identical to having pushed everything
        # eagerly.
        fifo = net._switch_fifo.get(switch_id)
        if fifo:
            fifo.popleft()
            if fifo:
                _heappush(sim._heap, fifo[0])
        plans = net._plans
        if plans is not None:
            packet = frame.packet
            swpt = packet._swpt
            if swpt[0] != switch_id or swpt[1] != location.port:
                packet = packet.at(location)
            tag_mask = frame.tag_mask
            replay = packet._replay
            if (
                replay is not None
                and (plan := replay[0]).tag_mask == tag_mask
                and plan.digest_mask == frame.digest_mask
                and plan.generation == net._plan_gens[switch_id]
                and plan.store is plans
            ):
                # This very object replayed this plan last time.
                outs = replay[1]
                metric = net._m_plan_hit
            else:
                plan = plans.get(net._classify(switch_id, tag_mask, packet))
                if (
                    plan is None
                    or plan.tag_mask != tag_mask
                    or plan.digest_mask != frame.digest_mask
                    or plan.generation != net._plan_gens[switch_id]
                ):
                    metric = net._m_plan_miss
                    if metric is not None:
                        metric.inc()
                    self._full(net, location, frame, plans)
                    return
                single = plan.single
                if single is not None:
                    outs = packet._with(single[2])
                else:
                    outs = [packet._with(pairs) for _, _, pairs in plan.emits]
                packet._replay = (plan, outs)
                metric = net._m_plan_leaf
            if metric is not None:
                metric.inc()
            # Replay the cached outcome (record-identical to the full
            # path: same targets in order, same arithmetic).
            now = sim.now
            single = plan.single
            if single is not None:
                # Steady-state unicast: nothing else references a
                # mid-path frame (records capture only terminal
                # frames), so the in-flight Frame is updated in place
                # and this event object is reborn as the next link
                # arrival -- zero per-hop allocation.
                kind, target, _ = single
                frame.packet = outs
                frame.tag_mask = plan.out_tag_mask
                frame.digest_mask = plan.out_digest_mask
                if kind == _PLAN_LINK:
                    wire_bytes = frame.payload_bytes + net._header_overhead
                    start = target.free_at
                    if now > start:
                        start = now
                    finish = start + wire_bytes / target.capacity
                    target.free_at = finish
                    self.__class__ = _Arrival
                    self.location = target.dst
                    _heappush(
                        sim._heap,
                        (
                            now + ((finish - now) + target.latency),
                            next(sim._counter),
                            self,
                        ),
                    )
                    return
                if kind == _PLAN_HOST:
                    net._deliver(target, frame)
                else:
                    net.drops.append(
                        DropRecord(now, target, frame, reason="no-link-at-port")
                    )
            elif plan.emits:
                for (kind, target, _), out_packet in zip(plan.emits, outs):
                    out = frame.replace(
                        packet=out_packet,
                        tag_mask=plan.out_tag_mask,
                        digest_mask=plan.out_digest_mask,
                        structure=plan.structure,
                    )
                    if kind == _PLAN_LINK:
                        net._transmit(target, out)
                    elif kind == _PLAN_HOST:
                        net._deliver(target, out)
                    else:
                        net.drops.append(
                            DropRecord(now, target, out, reason="no-link-at-port")
                        )
                return
            else:
                net.drops.append(
                    tuple.__new__(
                        DropRecord,
                        (now, location, frame, "no-matching-rule"),
                    )
                )
            # The replay ended its frame's path.  While the clock runs to
            # quiescence, now and then try to finish every pending frame
            # at once (SimNetwork._drain; a decline doubles the wait).
            net._drain_due -= 1
            if net._drain_due <= 0 and sim._ticks is not None:
                net._drain()
            return
        self._full(net, location, frame, plans)

    def _full(self, net, location, frame, plans) -> None:
        """Run the logic and dispatch its outputs: the one place an
        egress port is resolved.  ``emits`` collects what was dispatched
        in the shape a plan replays, so a side-effect-free run is cached
        as exactly what it did."""
        logic = net.logic
        if plans is not None:
            logic.last_plan = None
        outputs = logic.process(net, location, frame.with_location(location))
        now = net.sim.now
        switch_id = location.switch
        if not outputs:
            net.drops.append(DropRecord(now, location, frame))
        ports = net._ports.get(switch_id)
        emits = []
        for port, out_frame in outputs:
            target = None if ports is None else ports.get(port)
            if target is None:
                egress = Location(switch_id, port)
                net.drops.append(
                    DropRecord(now, egress, out_frame, reason="no-link-at-port")
                )
                emits.append((_PLAN_DROP, egress, ()))
            elif target.__class__ is Host:
                net._deliver(target.name, out_frame)
                emits.append((_PLAN_HOST, target.name, ()))
            else:
                net._transmit(target, out_frame)
                dst = target.dst
                emits.append(
                    (_PLAN_LINK, target, ((SW, dst.switch), (PT, dst.port)))
                )
        if plans is not None and logic.last_plan is not None:
            # The logic marked the run pure: cache what it did, under
            # the leaf, for replay on the next frame's own packet.
            leaf, tag_key, digest_key = logic.last_plan
            if outputs:
                first = outputs[0][1]
                out_masks = (first.tag_mask, first.digest_mask, first.structure)
            else:
                out_masks = (0, 0, None)
            plans[leaf] = _Plan(
                plans,
                tag_key,
                digest_key,
                net._plan_gens[switch_id],
                *out_masks,
                tuple(
                    (kind, target, mod + far_end)
                    for (kind, target, far_end), mod in zip(emits, leaf.mods)
                ),
            )


class _Arrival:
    """The scheduled link-arrival event: switch queueing, then _Process."""

    __slots__ = ("net", "location", "frame")

    def __init__(self, net: "SimNetwork", location: Location, frame: Frame):
        self.net = net
        self.location = location
        self.frame = frame

    def __call__(self) -> None:
        net = self.net
        location = self.location
        # Strategies may declare extra per-packet processing cost (e.g.
        # tag matching and register updates in the correct logic).  A
        # switch is a serial resource: software switches process one
        # packet at a time, so processing cost is real back-pressure.
        switch_id = location.switch
        sim = net.sim
        now = sim.now
        free = net._switch_free_at
        start = free[switch_id]
        if now > start:
            start = now
        finish = start + net.switch_delay + net._hop_extra
        free[switch_id] = finish
        # This arrival entry is already off the heap, so the object can
        # be reborn as the processing event (identical slot layout)
        # instead of allocating a fresh _Process.
        self.__class__ = _Process
        entry = (now + (finish - now), next(sim._counter), self)
        fifo = net._switch_fifo[switch_id]
        fifo.append(entry)
        if len(fifo) == 1:
            _heappush(sim._heap, entry)


class SimNetwork:
    """Hosts + switches + links, executing one SwitchLogic."""

    def __init__(
        self,
        topology: Topology,
        logic: SwitchLogic,
        seed: int = 0,
        default_link: LinkParams = LinkParams(),
        switch_delay: float = 0.0001,
    ):
        self.topology = topology
        self.logic = logic
        self.sim = Simulator(seed=seed)
        self.switch_delay = switch_delay
        # Preloaded with every switch so the arrival hot path indexes
        # instead of .get-with-default; extra_processing_delay is a
        # constant of the logic, so it is cached once here.
        self._switch_free_at: Dict[int, float] = {n: 0.0 for n in topology.switches}
        self._hop_extra: float = getattr(logic, "extra_processing_delay", 0.0)
        # Each switch's processing backlog is a FIFO deque with only the
        # head event on the heap (switch service is serial, so per-switch
        # finish times are monotone and queued entries are already in
        # fire order).  A heavy-traffic backlog then costs O(1) per event
        # instead of sifting a deep heap.
        self._switch_fifo: Dict[int, deque] = {n: deque() for n in topology.switches}
        self.deliveries: List[DeliveryRecord] = []
        self.drops: List[DropRecord] = []
        self.auto_reply: Dict[str, Callable[["SimNetwork", str, Frame], None]] = {}
        # First time each switch learned each event (for Figure 16b).
        self.event_learned_at: Dict[Tuple[int, Event], float] = {}
        # The topology is immutable for a sim run, so link resolution is
        # a static dispatch table: switch -> port -> Host (deliver) or
        # _LinkState (transmit, every link with ``default_link``; first
        # link target in (switch, port) order, as the per-packet sort
        # used to pick).  Hosts shadow links, as host_at did.  Int-keyed
        # nested dicts keep the hot path free of Location hashing.
        self._ports: Dict[int, Dict[int, Union[Host, _LinkState]]] = {}
        for src, dst in topology.links():
            by_port = self._ports.setdefault(src.switch, {})
            if src.port not in by_port:
                by_port[src.port] = _LinkState(dst, default_link)
        for host in topology.hosts:
            attachment = host.attachment
            self._ports.setdefault(attachment.switch, {})[attachment.port] = host
        # Steady-state emission plans, keyed by leaf (a leaf belongs to
        # one switch, so the store is bounded by the leaves of the
        # decision trees): enabled when the logic publishes the three
        # parts of the contract in _Plan's docstring (CorrectLogic does).
        self._classify = getattr(logic, "classify", None)
        self._plan_gens = getattr(logic, "plan_generations", None)
        self._header_overhead: Optional[int] = getattr(logic, "header_overhead", None)
        self._plans: Optional[Dict[object, _Plan]] = (
            {}
            if self._classify is not None
            and self._plan_gens is not None
            and self._header_overhead is not None
            else None
        )
        # Plan-cache counters by result -- "hit": the packet object's own
        # slot, no descent; "leaf": descended, replayed; "miss": ran the
        # logic -- pre-resolved once here so the per-event cost is one
        # attribute load + None check (the zero-overhead-uninstalled
        # discipline for this hot path; the registry metric objects are
        # internally locked).
        registry = obs_metrics.active()
        self._m_plan_hit = self._m_plan_leaf = self._m_plan_miss = None
        if registry is not None and self._plans is not None:
            self._m_plan_hit, self._m_plan_leaf, self._m_plan_miss = (
                registry.counter(
                    "repro_sim_plan_cache_total",
                    "Simulator emission-plan cache, by result",
                    result=result,
                )
                for result in ("hit", "leaf", "miss")
            )
        # Replays that end a path before the next drain attempt, the wait
        # after a decline, and the unfinished varying-header chains (_drain).
        self._drain_due = self._drain_backoff = 1
        self._varying_chains = 0

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    # -- injection -------------------------------------------------------------

    def inject(self, host_name: str, frame: Frame, at: float = 0.0) -> None:
        """Schedule a host to emit a frame at absolute time ``at``.

        Only the frame's packet, payload size, flow and ident are read:
        the logic's ``ingress_frame`` stamps the rest at emission time.
        """
        self._schedule_row(
            self.topology.host(host_name).attachment,
            (at, frame.packet, frame.payload_bytes, frame.flow, frame.ident),
        )

    def _schedule_row(self, location: Location, row: Tuple) -> None:
        """Push one unchained ``(at, packet, payload_bytes, flow, ident)``
        row: a :meth:`inject`, or a frame of a batch that cannot chain."""
        at, packet, payload_bytes, flow, ident = row
        sim = self.sim
        sim.schedule(
            max(0.0, at - sim.now),
            _StreamArrival(self, location, (packet, payload_bytes, flow, ident, None)),
        )

    def inject_stream(self, host_name: str, batch: FrameBatch) -> int:
        """Bulk-inject a :class:`FrameBatch` at a host; returns the count.

        Scheduling order, times and records are identical to calling
        :meth:`inject` once per frame; the up-front Frame allocation is
        skipped and headers are interned.
        """
        location = self.topology.host(host_name).attachment
        sim = self.sim
        rows = batch.rows(location)
        times = batch.times
        # Lazy one-ahead chaining: each arrival pushes its successor
        # when it fires, so a 10^5-frame stream keeps one pending entry
        # in the heap instead of 10^5.  Heap-pop order only depends on
        # the (time, seq) keys of entries present before their fire
        # time, so this is order-identical to the eager loop provided
        # (a) the tie-break seq range is reserved up front and (b)
        # injection times never decrease -- true for start + i*spacing
        # with a non-negative spacing; any other batch falls back to
        # pushing everything eagerly, exactly as inject does.
        if times is None:
            chainable = batch.spacing >= 0.0
        else:
            chainable = all(a <= b for a, b in zip(times, times[1:]))
        if chainable and batch.count:
            now0 = sim.now
            first_seq = next(sim._counter)
            sim._counter = itertools.count(first_seq + batch.count)
            at, packet, payload, flow, ident = next(rows)
            delay = at - now0
            if delay < 0.0:
                delay = 0.0
            chain = _Chain(
                rows,
                now0,
                first_seq + 1,
                first_seq + batch.count,
                all(isinstance(c, int) for c in batch.columns.values()),
            )
            self._varying_chains += not chain.one_header
            _heappush(
                sim._heap,
                (
                    now0 + delay,
                    first_seq,
                    _StreamArrival(
                        self, location, (packet, payload, flow, ident, chain)
                    ),
                ),
            )
        else:
            for row in rows:
                self._schedule_row(location, row)
        return batch.count

    # -- switch arrival & processing --------------------------------------------

    def _transmit(self, link: _LinkState, frame: Frame) -> None:
        """Send across a link: serialization (capacity) + propagation."""
        sim = self.sim
        now = sim.now
        wire_bytes = frame.payload_bytes + self.logic.header_bytes(frame)
        start = link.free_at
        if now > start:
            start = now
        finish = start + wire_bytes / link.capacity
        link.free_at = finish
        dst = link.dst
        arrival = _Arrival(self, dst, frame.with_location(dst))
        sim.schedule((finish - now) + link.latency, arrival)

    # -- draining a lone stream ---------------------------------------------------

    def _drain(self) -> None:
        """Finish every pending frame now if they are one lone stream's
        frames on one replayed path (the conditions and why the result
        is exact are in the module docstring); otherwise decline and
        leave the event loop to it.

        Called by a replayed hop that ended its frame's path while
        :meth:`Simulator.run` goes to quiescence.  The frames are
        finished most-advanced first -- at each switch its backlog, then
        the link arrivals due there in (time, seq) order, and the
        stream's unemitted rows last -- each across its remaining hops
        with the expressions of ``_StreamArrival``, ``_Arrival`` and
        ``_Process``.
        """
        sim = self.sim
        heap = sim._heap
        if not heap:
            return
        if self._varying_chains:  # such a chain's next arrival is pending
            return self._decline()
        chain_entry = None
        arrivals = []
        for entry in heap:
            action = entry[2]
            cls = action.__class__
            if cls is _Arrival:
                arrivals.append(entry)
            elif cls is _StreamArrival:
                chain = action.frame[4]
                if chain_entry is not None or chain is None or not chain.one_header:
                    return self._decline()
                chain_entry = entry
            elif cls is not _Process:
                return self._decline()
            if action.net is not self:
                return self._decline()
        # One frame per switch: the link arrivals, each backlog's head,
        # and the stream's next emission as it will be stamped when it
        # fires (the register it reads cannot change before then).
        fifos = [fifo for fifo in self._switch_fifo.values() if fifo]
        heads = [
            (entry[2].location, entry[2].frame)
            for entry in itertools.chain(arrivals, (fifo[0] for fifo in fifos))
        ]
        if chain_entry is not None:
            stream = chain_entry[2]
            packet, payload_bytes, flow, ident, chain = stream.frame
            first = self.logic.ingress_frame(
                stream.location, packet, payload_bytes, flow, ident, chain_entry[0]
            )
            heads.append((stream.location, first))
        # The path is the longest walk from one of them, and every
        # pending frame must stand on it as the walk passes there.
        path: List[Tuple] = []
        walked = set()
        for location, frame in heads:
            if location.switch not in walked:
                walked.add(location.switch)
                hops = self._replayed_path(
                    location, frame.packet, frame.tag_mask, frame.digest_mask
                )
                if hops is None:
                    return self._decline()
                if len(hops) > len(path):
                    path = hops
        index = {hop[0].switch: h for h, hop in enumerate(path)}
        backlog = (
            (entry[2].location, entry[2].frame) for fifo in fifos for entry in fifo
        )
        for location, frame in itertools.chain(heads, backlog):
            h = index.get(location.switch)
            if h is None:
                return self._decline()
            hop_location, packet, plan, _ = path[h]
            if (
                frame.packet is not packet
                or frame.tag_mask != plan.tag_mask
                or frame.digest_mask != plan.digest_mask
                or (location is not hop_location and location != hop_location)
            ):
                return self._decline()
        # Count what the event loop would do, and stay inside max_events.
        last = len(path) - 1
        queued: List[deque] = [deque() for _ in path]
        incoming: List[List] = [[] for _ in path]
        for fifo in fifos:
            queued[index[fifo[0][2].location.switch]] = fifo
        for entry in sorted(arrivals):
            incoming[index[entry[2].location.switch]].append(entry)
        events = draws = replays = 0
        for h in range(len(path)):
            left = len(path) - h
            waiting, arriving = len(queued[h]), len(incoming[h])
            replays += (waiting + arriving) * left
            events += waiting * (2 * left - 1) + arriving * 2 * left
            draws += waiting * 2 * (left - 1) + arriving * (2 * left - 1)
        if chain_entry is not None:
            rows = 1 + chain.end - chain.seq
            replays += rows * len(path)
            events += rows * 2 * len(path)
            draws += rows * (2 * len(path) - 1)
        if events > length_hint(sim._ticks):
            return self._decline()

        # -- taken: run each frame to the end of the path --------------------
        switch_free = self._switch_free_at
        busy = [switch_free[hop[0].switch] for hop in path]
        links = [hop[2].single[1] for hop in path[:last]]
        link_free = [link.free_at for link in links]
        capacity = [link.capacity for link in links]
        latency = [link.latency for link in links]
        switch_delay = self.switch_delay
        hop_extra = self._hop_extra
        overhead = self._header_overhead
        end_location, end_packet, end_plan, end_outs = path[last]
        if end_plan.single is None:
            records, target, reason = self.drops, end_location, "no-matching-rule"
            out_tag, out_digest = end_plan.tag_mask, end_plan.digest_mask
        else:
            kind, target, _ = end_plan.single
            records = self.deliveries if kind == _PLAN_HOST else self.drops
            reason = None if kind == _PLAN_HOST else "no-link-at-port"
            end_packet = end_outs
            out_tag, out_digest = end_plan.out_tag_mask, end_plan.out_digest_mask
        append = records.append

        def travel(frame, h, now, waiting):
            # ``waiting``: queued at hop h already, ``now`` its processing
            # time; otherwise ``now`` is its arrival there.
            wire_bytes = frame.payload_bytes + overhead
            while True:
                if waiting:
                    waiting = False
                else:
                    start = busy[h]
                    if now > start:
                        start = now
                    finish = start + switch_delay + hop_extra
                    busy[h] = finish
                    now = now + (finish - now)
                if h == last:
                    break
                start = link_free[h]
                if now > start:
                    start = now
                finish = start + wire_bytes / capacity[h]
                link_free[h] = finish
                now = now + ((finish - now) + latency[h])
                h += 1
            frame.packet = end_packet
            frame.tag_mask = out_tag
            frame.digest_mask = out_digest
            if reason is None:
                append(tuple.__new__(DeliveryRecord, (now, target, frame)))
            else:
                append(tuple.__new__(DropRecord, (now, target, frame, reason)))
            return now

        now = sim.now
        for h in range(last, -1, -1):
            backlog = queued[h]
            while backlog:
                entry = backlog.popleft()
                now = travel(entry[2].frame, h, entry[0], True)
            for entry in incoming[h]:
                now = travel(entry[2].frame, h, entry[0], False)
        if chain_entry is not None:
            now = travel(first, 0, chain_entry[0], False)
            location = stream.location
            ingress = self.logic.ingress_frame
            start0 = chain.start
            for at, packet, payload_bytes, flow, ident in chain.rows:
                delay = at - start0
                if delay < 0.0:
                    delay = 0.0
                at = start0 + delay
                now = travel(
                    ingress(location, packet, payload_bytes, flow, ident, at),
                    0, at, False,
                )
            chain.seq = chain.end
        for hop, free_at in zip(path, busy):
            switch_free[hop[0].switch] = free_at
        for link, free_at in zip(links, link_free):
            link.free_at = free_at
        heap.clear()
        sim._counter = itertools.count(next(sim._counter) + draws)
        sim._skipped += events
        sim.now = now
        if self._m_plan_hit is not None:
            self._m_plan_hit.inc(replays)
        obs_metrics.inc("repro_sim_drain_total", 1, _DRAIN_HELP, result="taken")
        obs_metrics.inc(
            "repro_sim_drained_events_total", events,
            "Discrete events a drain finished without the event loop",
        )
        self._drain_due = self._drain_backoff = 1

    def _decline(self) -> None:
        obs_metrics.inc("repro_sim_drain_total", 1, _DRAIN_HELP, result="declined")
        self._drain_backoff *= 2
        self._drain_due = self._drain_backoff

    def _replayed_path(
        self, location: Location, packet: Packet, tag_mask: int, digest_mask: int
    ) -> Optional[List[Tuple]]:
        """The hops a frame at ``location`` carrying ``packet`` and these
        masks goes on to replay, ``(location, packet, plan, outs)`` each,
        to the end of its path; None unless every hop replays a valid
        single-output plan from its packet's slot, no switch repeats and
        no ``auto_reply`` handler waits at the end."""
        plans = self._plans
        generations = self._plan_gens
        hops: List[Tuple] = []
        seen = set()
        while True:
            switch = location.switch
            replay = packet._replay
            if replay is None or switch in seen or packet._swpt != (
                switch, location.port
            ):
                return None
            plan, outs = replay
            if (
                plan.tag_mask != tag_mask
                or plan.digest_mask != digest_mask
                or plan.generation != generations[switch]
                or plan.store is not plans
            ):
                return None
            seen.add(switch)
            hops.append((location, packet, plan, outs))
            single = plan.single
            if single is None:
                return None if plan.emits else hops
            kind, target, _ = single
            if kind != _PLAN_LINK:
                if kind == _PLAN_HOST and self.auto_reply.get(target) is not None:
                    return None
                return hops
            location = target.dst
            packet = outs
            tag_mask = plan.out_tag_mask
            digest_mask = plan.out_digest_mask

    # -- delivery ----------------------------------------------------------------

    def _deliver(self, host_name: str, frame: Frame) -> None:
        # tuple.__new__ skips the generated NamedTuple __new__ (a
        # Python-level function) on the per-delivery hot path.
        record = tuple.__new__(DeliveryRecord, (self.sim.now, host_name, frame))
        self.deliveries.append(record)
        if self.auto_reply:
            handler = self.auto_reply.get(host_name)
            if handler is not None:
                handler(self, host_name, frame)

    # -- bookkeeping hooks used by logics ------------------------------------------

    def note_event_learned(self, switch: int, event: Event) -> None:
        key = (switch, event)
        if key not in self.event_learned_at:
            self.event_learned_at[key] = self.sim.now

    # -- statistics ------------------------------------------------------------------

    def deliveries_to(self, host_name: str) -> List[DeliveryRecord]:
        return [r for r in self.deliveries if r.host == host_name]

    def delivered_flows(self, flow_prefix: Tuple) -> List[DeliveryRecord]:
        prefix = tuple(flow_prefix)
        n = len(prefix)
        return [r for r in self.deliveries if r.frame.flow[:n] == prefix]
