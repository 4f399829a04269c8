"""The run protocol shared by every workload.

One workload runs in one fresh interpreter.  Set-up (imports, input
generation from the seed, one untimed warm-up pass over every op class,
the output oracles) is ``setup_s``; then a timed region of ``--seconds``
split into twenty equal segments with ``gc.collect()`` between them (GC
stays enabled inside).  Ops are round-robined over the workload's op
classes, so the mix is fixed.  Every output is checked, outside the op's
latency window and outside the segment's busy time.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import metrics
from .spans import Recorder

_now = time.perf_counter


def percentile(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    rank = p * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# Seconds one calibration chunk takes on the reference host when it is
# quiet.  Only a unit: it makes calibrated times read like that host's.
REFERENCE_CHUNK_S = 0.0002


def calibration_chunk() -> float:
    """A fixed pure-Python loop (dict, int and call traffic, the mix the
    system itself is made of), about a fifth of a millisecond.

    The host this benchmark runs on is shared: measured over 60 s in one
    process, op time and this loop drift together (correlation 0.93), so
    chunks are interleaved with the ops and end-to-end times are reported
    *relative to them* -- at the speed the host would have if a chunk
    took ``REFERENCE_CHUNK_S``.  Raw times stay in the per-layer rows.
    """
    start = _now()
    table: Dict[int, int] = {}
    total = 0
    for i in range(1500):
        table[i & 1023] = total
        total = (total + table.get((i * 7) & 1023, i)) & 0xFFFFFF
    return _now() - start


def calibrate(chunks: int = 25) -> float:
    return statistics.median(calibration_chunk() for _ in range(chunks))


class RunData:
    """What the timed region measured."""

    def __init__(self, n_classes: int):
        # Per class; calibrated seconds in an end-to-end run, raw seconds
        # in a traced run (layer rows are raw).
        self.latencies: List[List[float]] = [[] for _ in range(n_classes)]
        self.traced_latencies: List[List[float]] = [[] for _ in range(n_classes)]
        # (ops, busy seconds) per segment, untraced ops only
        self.segments: List[Tuple[int, float]] = []
        self.chunks: List[float] = []
        self.attempted = 0
        self.failed = 0
        self._pending: List[Tuple[int, float]] = []

    def record(self, ci: int, seconds: float, ok: bool, traced: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif traced:
            self.traced_latencies[ci].append(seconds)
        else:
            self._pending.append((ci, seconds))

    def close_segment(self, ops: int, busy: float, chunks: Sequence[float],
                      calibrated: bool) -> None:
        """Fold the segment's samples in, scaled by how fast the host was
        during this segment."""
        self.chunks.extend(chunks)
        scale = REFERENCE_CHUNK_S / statistics.median(chunks) if calibrated else 1.0
        for ci, seconds in self._pending:
            self.latencies[ci].append(seconds * scale)
        self._pending.clear()
        self.segments.append((ops, busy * scale))


class Workload:
    """Base class: inputs, ops, checks and layer metrics of one workload."""

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.classes: Tuple[str, ...] = metrics.CLASSES[self.name]
        # Each workload draws from its own stream, so adding a draw to one
        # does not shift another's inputs.
        self.rng = random.Random(f"{self.name}/{seed}")
        # Oracle checks made outside the timed region count as ops too.
        self.checks = 0
        self.check_failures = 0
        self._cursor = 0
        self._op_counts = [0] * len(self.classes)
        self._failures_shown = 0

    # -- to implement ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, ci: int, k: int) -> Any:
        raise NotImplementedError

    def traced_op(self, ci: int, k: int, rec: Recorder) -> Tuple[Any, float]:
        """The same op, one span per layer boundary: returns the output
        and the seconds of its ``op`` span (extra measurements a traced
        op makes beside the op are not part of its latency)."""
        raise NotImplementedError

    def check(self, ci: int, k: int, output: Any) -> bool:
        raise NotImplementedError

    def rules_total(self) -> int:
        raise NotImplementedError

    def layer_metrics(self, data: RunData, rec: Recorder) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self) -> None:
        """Post-run output checks that are too heavy to make per op."""

    def close(self) -> None:
        """Stop whatever set-up started (threads, servers, files)."""

    # -- helpers --------------------------------------------------------------

    def expect(self, ok: bool, what: str, checks: int = 1) -> bool:
        """Count ``checks`` oracle checks made outside the timed region,
        one of which failed unless ``ok``."""
        self.checks += checks
        if not ok:
            self.check_failures += 1
            print(f"ORACLE MISMATCH [{self.name}] {what}")
        return ok

    def report_failure(self, op_class: str, exc: Exception) -> None:
        """Print the first few raised ops; all of them are counted."""
        self._failures_shown += 1
        if self._failures_shown <= 5:
            print(f"OP FAILED [{self.name}/{op_class}] {exc!r}")

    # -- the timed region -----------------------------------------------------

    def run_segment(
        self, seconds: float, data: RunData, rec: Optional[Recorder]
    ) -> None:
        """Round-robin ops over the classes for ``seconds``.  With a
        recorder, odd rounds run the staged, span-wrapped op and even
        rounds the plain one, so both see the same host conditions and
        their difference is the tracing overhead."""
        n = len(self.classes)
        counts = self._op_counts
        ops = 0
        busy = 0.0
        chunks = [calibration_chunk()]
        deadline = _now() + seconds
        while _now() < deadline:
            ci = self._cursor % n
            chunks.append(calibration_chunk())
            traced = rec is not None and (self._cursor // n) % 2 == 1
            self._cursor += 1
            k = counts[ci]
            counts[ci] += 1
            try:
                if traced:
                    output, elapsed = self.traced_op(ci, k, rec)
                else:
                    start = _now()
                    output = self.op(ci, k)
                    elapsed = _now() - start
                ok = self.check(ci, k, output)
            except Exception as exc:  # a raised op is a failed op
                self.report_failure(self.classes[ci], exc)
                elapsed, ok = 0.0, False
            data.record(ci, elapsed, ok, traced)
            if not traced:
                ops += 1
                busy += elapsed
        data.close_segment(ops, busy, chunks, calibrated=rec is None)

    def timed_region(self, seconds: float, rec: Optional[Recorder]) -> RunData:
        data = RunData(len(self.classes))
        for _ in range(metrics.SEGMENTS):
            gc.collect()
            self.run_segment(seconds / metrics.SEGMENTS, data, rec)
        return data


# -- result assembly ----------------------------------------------------------


def class_quantile(samples: List[List[float]], p: float) -> List[float]:
    return [percentile(sorted(s), p) for s in samples if s]


def end_to_end(workload: Workload, data: RunData, setup_s: float) -> Dict[str, float]:
    rates = [ops / busy for ops, busy in data.segments if busy > 0]
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "op_p50_ms": geomean(class_quantile(data.latencies, 0.50)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rules_total": float(workload.rules_total()),
    }


def per_layer(workload: Workload, data: RunData, rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric; a layer this workload never calls reads 0."""
    out = {name: 0.0 for name, _, _ in metrics.per_layer()}
    out.update(workload.layer_metrics(data, rec))
    plain = class_quantile(data.latencies, 0.50)
    traced = class_quantile(data.traced_latencies, 0.50)
    if plain and len(plain) == len(traced):
        out["bench.trace_overhead_share"] = geomean(
            [t / p for t, p in zip(traced, plain)]
        ) - 1.0
    out["bench.op_p90_ms"] = geomean(class_quantile(data.latencies, 0.90)) * 1e3
    out["bench.op_p99_ms"] = geomean(class_quantile(data.latencies, 0.99)) * 1e3
    out["bench.traced_ops"] = float(sum(len(s) for s in data.traced_latencies))
    attempted = data.attempted + workload.checks
    failed = data.failed + workload.check_failures
    out["bench.failed_share"] = failed / attempted if attempted else 0.0
    out["host.calibration_s"] = statistics.median(data.chunks)
    for ci, name in enumerate(workload.classes):
        samples = sorted(data.latencies[ci])
        out[metrics.class_metric(workload.name, name)] = (
            percentile(samples, 0.5) * 1e3
        )
    return out


# -- span arithmetic shared by the workloads ------------------------------------


def span_medians(rec: Recorder, name: str, attr: Optional[str] = None) -> Dict[str, float]:
    """Per op class (the op id of a span is ``<class>#<k>``), the median
    over the spans called ``name`` of their duration, or of the count
    they carry as ``attr``."""
    by_class: Dict[str, List[float]] = {}
    for span in rec.spans:
        if span.name == name and (attr is None or attr in span.attrs):
            value = span.seconds if attr is None else float(span.attrs[attr])
            by_class.setdefault(span.op.rsplit("#", 1)[0], []).append(value)
    return {c: statistics.median(v) for c, v in by_class.items()}


def layer_seconds(rec: Recorder, name: str) -> float:
    """A layer's busy seconds per op: the arithmetic mean over op classes
    of the per-class median, so the stage rows of one workload add up to
    the mean over classes of the per-class op latency."""
    return mean(span_medians(rec, name).values())


def layer_count(rec: Recorder, name: str, attr: str) -> float:
    return mean(span_medians(rec, name, attr).values())
