"""The service workload: one HTTP request -> one verified response.

An in-process compilation daemon on loopback (``create_server`` with a
``cache_dir`` and the default 64-pipeline memo) serves two closed-loop
clients: each sends its next request only when the previous response has
been decoded, as a controller waiting for its tables would.  Each client
repeats a seeded shuffle of a fixed 20-request pattern, so the mix is
exact: 65 % ``warm`` (a hot program: pipeline-memo hit), 15 % ``update``
(``POST /update`` against a hot program's key), 10 % ``cold`` (a program
never seen before: full compile, stored to disk), 5 % ``disk`` (a program
that is on disk but long evicted from the memo) and 5 % ``batch`` (four
hot programs in one ``POST /compile/batch``).  The 32 hot programs are
touched round-robin, which keeps them resident while cold, disk and
update results churn through the other half of the LRU; all three cache
rungs and eviction are exercised on every pattern.

Every response's tables are compared with a direct ``Pipeline`` build of
the same inputs (update responses with a cold build of the post-delta
inputs).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro.netkat.parser import parse_policy
from repro.pipeline import CompileOptions, Pipeline
from repro.service import ServiceClient, create_server, protocol, serve_in_thread

from . import inputs
from .harness import RunData, Workload, calibration_chunk, percentile, span_medians
from .spans import Recorder

_now = time.perf_counter

CLIENTS = 2
HOT_APPS = (
    "firewall", "ids", "authentication", "ring4",
    "bandwidth_cap", "learning_switch", "learning_multi", "ring8",
)
HOT_VARIANTS = 4   # 8 apps x 4 = 32 hot programs
OLD_VARIANTS = 2   # 8 apps x 2 = 16 programs kept on disk only
UPDATE_VALUES = (1, 2)
BATCH_SIZE = 4

Tables = Dict[str, str]


class _Program:
    """One compile request's inputs and the tables it must come back with."""

    def __init__(self, program_input: inputs.ProgramInput, options: CompileOptions):
        self.input = program_input
        pipeline = Pipeline(
            parse_policy(program_input.text),
            protocol.topology_from_wire(program_input.topology),
            program_input.initial_state,
            options,
        )
        self.pipeline = pipeline
        self.expected: Tables = protocol.tables_to_wire(pipeline.compiled)
        self.key = pipeline.artifact_key()

    def request(self) -> Dict[str, Any]:
        return protocol.compile_request_to_wire(
            self.input.text, self.input.topology, self.input.initial_state
        )


def _post(url: str, body: bytes) -> bytes:
    """What ``ServiceClient`` does on the wire, for the staged op."""
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.read()


class _Client:
    """One closed-loop client: its own schedule, cursors and samples."""

    def __init__(self, workload: "ServiceMix", index: int):
        self.workload = workload
        self.index = index
        self.client = ServiceClient(workload.base_url)
        self.pattern = inputs.service_pattern(workload.rng)
        self.position = 0
        n_hot = len(workload.hot)
        # Clients start half a cycle apart, so a hot program is touched
        # twice per cycle and never idles long enough to be evicted.
        self.hot_cursor = index * n_hot // CLIENTS
        self.update_cursor = index * len(workload.updates) // CLIENTS
        self.old_cursor = index * len(workload.old) // CLIENTS
        self.cold_made = 0
        # (class index, seconds, ok, traced) per finished request
        self.samples: List[Tuple[int, float, bool, bool]] = []
        self.chunks: List[float] = []
        self.sources: Dict[str, int] = {}

    # -- requests --------------------------------------------------------------

    def _next_hot(self) -> _Program:
        hot = self.workload.hot
        program = hot[self.hot_cursor % len(hot)]
        self.hot_cursor += 1
        return program

    def _staged(self, rec: Recorder, op: str, path: str, make_body) -> Any:
        """One traced round trip: what ``ServiceClient`` does, one span
        per step (request wire + JSON, HTTP, JSON decode)."""
        with rec.span("op", op):
            with rec.span("service.client.encode"):
                raw = json.dumps(make_body()).encode()
            with rec.span("service.http"):
                answer = _post(self.workload.base_url + path, raw)
            with rec.span("service.client.decode"):
                return json.loads(answer)

    def _compile(self, rec, op: str, program_input: inputs.ProgramInput):
        arguments = (
            program_input.text, program_input.topology, program_input.initial_state
        )
        if rec is None:
            return self.client.compile(*arguments)
        return self._staged(
            rec, op, "/compile",
            lambda: protocol.compile_request_to_wire(*arguments),
        )

    def _count(self, response: Dict[str, Any]) -> None:
        source = response.get("source", "error")
        self.sources[source] = self.sources.get(source, 0) + 1

    def request(self, kind: str, rec: Optional[Recorder], op: str) -> Tuple[float, bool]:
        """Send one request of ``kind``; returns (seconds, output ok).
        The comparison with the expected tables happens after the clock
        has stopped."""
        workload = self.workload
        if kind == "warm" or kind == "disk":
            if kind == "warm":
                program = self._next_hot()
            else:
                program = workload.old[self.old_cursor % len(workload.old)]
                self.old_cursor += 1
            start = _now()
            response = self._compile(rec, op, program.input)
            seconds = _now() - start
            self._count(response)
            return seconds, response["tables"] == program.expected
        if kind == "update":
            program, delta, expected = workload.updates[
                self.update_cursor % len(workload.updates)
            ]
            self.update_cursor += 1
            start = _now()
            if rec is None:
                response = self.client.update(program.key, delta)
            else:
                response = self._staged(rec, op, "/update", lambda: {
                    "artifact_key": program.key, "delta": delta,
                    "include_tables": True,
                })
            seconds = _now() - start
            return seconds, response["tables"] == expected
        if kind == "cold":
            program_input = workload.fresh_program(self.index, self.cold_made)
            self.cold_made += 1
            start = _now()
            response = self._compile(rec, op, program_input)
            seconds = _now() - start
            self._count(response)
            # Too heavy to rebuild here, beside a running client: kept
            # and compared with a direct build after the timed region.
            workload.cold_responses.append((program_input, response["tables"]))
            return seconds, True
        if kind == "batch":
            programs = [self._next_hot() for _ in range(BATCH_SIZE)]
            entries = [p.request() for p in programs]
            start = _now()
            if rec is None:
                results = self.client.compile_batch(entries)
            else:
                results = self._staged(
                    rec, op, "/compile/batch", lambda: {"requests": entries}
                )["results"]
            seconds = _now() - start
            for result in results:
                self._count(result)
            return seconds, all(
                r.get("tables") == p.expected for r, p in zip(results, programs)
            )
        raise ValueError(kind)

    def run(self, deadline: float, rec: Optional[Recorder]) -> None:
        classes = self.workload.classes
        while True:
            # The host's speed, sampled where the work is: in the client,
            # between two requests (a fifth of a millisecond; sampling
            # beside the segment instead did not track request latency).
            self.chunks.append(calibration_chunk())
            if _now() >= deadline:
                break
            kind = self.pattern[self.position % len(self.pattern)]
            # Odd passes through the pattern are traced (see harness).
            traced = rec is not None and (self.position // len(self.pattern)) % 2 == 1
            op = f"{kind}#{self.index}.{self.position}"
            self.position += 1
            try:
                seconds, ok = self.request(kind, rec if traced else None, op)
            except Exception as exc:  # non-2xx, socket error: a failed op
                self.workload.report_failure(kind, exc)
                seconds, ok = 0.0, False
            self.samples.append((classes.index(kind), seconds, ok, traced))


class ServiceMix(Workload):
    name = "service_mix"

    def setup(self) -> None:
        self._stack = contextlib.ExitStack()
        options = CompileOptions(cache_dir=self.workdir / "artifacts")
        self._options = options
        bases = {name: inputs.program(name) for name in HOT_APPS}
        hot_n = 1 if self.smoke else HOT_VARIANTS
        ids = inputs.variant_ids(self.rng, hot_n + OLD_VARIANTS, limit=90)

        # Programs on disk but in no memo: built here, straight into the
        # artifact cache the daemon is about to be pointed at.
        self.old = [
            _Program(bases[name].variant(k), options)
            for k in ids[hot_n:] for name in HOT_APPS
        ]
        self.server = create_server(options=options)
        self.base_url = self._stack.enter_context(serve_in_thread(self.server))
        client = ServiceClient(self.base_url)

        # Hot programs: expected tables from a direct build (no cache),
        # then one request each, which also warms the daemon's memo.
        plain = CompileOptions()
        self.hot = [
            _Program(bases[name].variant(k), plain)
            for k in ids[:hot_n] for name in HOT_APPS
        ]
        for program in self.hot:
            response = client.compile(
                program.input.text, program.input.topology, program.input.initial_state
            )
            self.expect(
                response["tables"] == program.expected
                and response["artifact_key"] == program.key,
                f"served tables of {program.input.name} equal a direct build",
            )

        # Update targets: hot program x seeded state value, expected
        # tables from a cold build of the post-delta inputs.
        self.updates: List[Tuple[_Program, Dict[str, Any], Tables]] = []
        for value in self.rng.sample(UPDATE_VALUES, len(UPDATE_VALUES)):
            for program in self.hot:
                wire = {"set_state": [[0, value]]}
                delta = protocol.delta_from_wire(wire)
                base = program.pipeline
                cold = Pipeline(
                    base.program, base.topology,
                    delta.apply_initial_state(base.initial_state),
                )
                self.updates.append(
                    (program, wire, protocol.tables_to_wire(cold.compiled))
                )
        self._fresh_bases = [bases[name] for name in HOT_APPS]
        self.cold_responses: List[Tuple[inputs.ProgramInput, Tables]] = []
        self._clients = [_Client(self, i) for i in range(CLIENTS)]

        # Warm-up: one request of every kind, checked like a timed one.
        for kind in self.classes:
            _, ok = self._clients[0].request(kind, None, f"{kind}#warmup")
            self.expect(ok, f"warm-up {kind} response equals a direct build")
        self._verify_cold()

    def fresh_program(self, client: int, n: int) -> inputs.ProgramInput:
        """A program the daemon has never seen: ids above every hot and
        old variant, disjoint between clients."""
        base = self._fresh_bases[n % len(self._fresh_bases)]
        return base.variant(100 + n * CLIENTS + client)

    def _verify_cold(self) -> None:
        for program_input, tables in self.cold_responses:
            self.expect(
                tables == _Program(program_input, CompileOptions()).expected,
                f"cold response of {program_input.name} equals a direct build",
            )
        self.cold_responses.clear()

    def run_segment(self, seconds: float, data: RunData, rec: Optional[Recorder]) -> None:
        start = _now()
        deadline = start + seconds
        threads = [
            threading.Thread(target=c.run, args=(deadline, rec), name=f"client-{c.index}")
            for c in self._clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = _now() - start
        ops = 0
        for client in self._clients:
            for ci, elapsed, ok, traced in client.samples:
                data.record(ci, elapsed, ok, traced)
                ops += 0 if traced else 1
            client.samples.clear()
        chunks = [c for client in self._clients for c in client.chunks]
        for client in self._clients:
            client.chunks.clear()
        # Two clients overlap, so throughput is ops over wall time here
        # (the per-response dict comparison is microseconds).
        data.close_segment(ops, wall, chunks, calibrated=rec is None)

    def finish(self) -> None:
        self._verify_cold()

    def close(self) -> None:
        self._stack.close()

    def rules_total(self) -> int:
        return sum(p.pipeline.compiled.total_rule_count() for p in self.hot)

    # -- per-layer ---------------------------------------------------------------

    def _replay_server_side(self, rec: Recorder) -> None:
        """What the daemon does for a warm request, replayed offline on
        the same request bodies through the same public functions."""
        state = self.server.state
        for i, program in enumerate(self.hot):
            op = f"warm#replay{i}"
            body = program.request()
            with rec.span("service.protocol.program_from_wire", op):
                parsed = protocol.program_from_wire(body["program"])
            with rec.span("service.protocol.topology_from_wire", op):
                topology = protocol.topology_from_wire(body["topology"])
            initial = protocol.initial_state_from_wire(body["initial_state"])
            with rec.span("pipeline.artifact_key", op):
                key = Pipeline(parsed, topology, initial, self._options).artifact_key()
            with rec.span("service.state.memo_get", op):
                pipeline = state.memo_get(key)
            self.expect(pipeline is not None, f"hot {program.input.name} resident")
            if pipeline is None:
                continue
            with rec.span("service.server.report_to_dict", op):
                pipeline.report().to_dict()
            with rec.span("service.protocol.tables_to_wire", op) as span:
                wire = protocol.tables_to_wire(pipeline.compiled)
            span.set(wire_bytes=len(json.dumps(wire)))

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        self._replay_server_side(rec)
        replayed = (
            "service.protocol.program_from_wire",
            "service.protocol.topology_from_wire",
            "pipeline.artifact_key",
            "service.state.memo_get",
            "service.server.report_to_dict",
            "service.protocol.tables_to_wire",
        )
        out = {f"{name}_s": span_medians(rec, name).get("warm", 0.0) for name in replayed}
        out["service.protocol.wire_bytes"] = span_medians(
            rec, "service.protocol.tables_to_wire", "wire_bytes").get("warm", 0.0)
        warm_ci = self.classes.index("warm")
        encode = span_medians(rec, "service.client.encode").get("warm", 0.0)
        decode = span_medians(rec, "service.client.decode").get("warm", 0.0)
        out["service.client.encode_s"] = encode
        out["service.client.decode_s"] = decode
        warm_p50 = percentile(sorted(data.latencies[warm_ci]), 0.5)
        out["service.server.http_residual_s"] = (
            warm_p50 - encode - decode - sum(out[f"{n}_s"] for n in replayed)
        )
        sources: Dict[str, int] = {}
        for client in self._clients:
            for source, n in client.sources.items():
                sources[source] = sources.get(source, 0) + n
        total = sum(sources.values()) or 1
        out["service.state.memo_hit_share"] = sources.get("memo", 0) / total
        out["service.state.disk_hit_share"] = sources.get("disk", 0) / total
        out["service.state.cold_share"] = sources.get("cold", 0) / total
        stats = ServiceClient(self.base_url).stats()
        out["service.state.coalesced"] = float(
            stats["compiles"]["singleflight_coalesced"]
        )
        self.expect(sources.get("error", 0) == 0, "a batch entry came back as an error")
        return out
