"""Argument handling and the three run modes: one workload in this
process, the whole suite (one fresh interpreter per workload and trace
mode), and the A/A comparison of two suite runs."""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import metrics

HERE = Path(__file__).resolve().parent
RUN_PY = HERE / "run.py"
# Scratch space of running workloads (the service's artifact cache);
# inside the benchmark's own directory, ignored by git, removed on exit.
WORK_ROOT = HERE / ".work"

SETUP_SAMPLES = 3
SMOKE_SECONDS = 0.25


def _workload_class(name: str):
    from . import w_compile, w_service, w_sim, w_verify

    return {
        "compile_chain": w_compile.CompileChain,
        "compile_apps": w_compile.CompileApps,
        "update_stream": w_compile.UpdateStream,
        "service_mix": w_service.ServiceMix,
        "sim_stream": w_sim.SimStream,
        "sim_churn": w_sim.SimChurn,
        "verify_traces": w_verify.VerifyTraces,
    }[name]


# -- one workload, this process -----------------------------------------------------


def _child(arguments: Sequence[str], smoke: bool) -> Dict[str, Any]:
    """Run ``run.py`` in a fresh interpreter; its last line, parsed."""
    command = [sys.executable, str(RUN_PY), *arguments]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(arguments)} exited {done.returncode}:\n"
            f"{done.stdout}{done.stderr}"
        )
    for line in done.stdout.splitlines():
        if line.startswith(("ORACLE MISMATCH", "OP FAILED")):
            print(line)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(args: argparse.Namespace, process_start: float) -> int:
    from . import harness
    from .spans import Recorder

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    workload = _workload_class(args.workload)(args.seed, args.smoke, workdir)
    try:
        workload.setup()
        # Calibrated like every end-to-end time: see harness.calibration_chunk.
        setup_s = (time.perf_counter() - process_start) * (
            harness.REFERENCE_CHUNK_S / harness.calibrate()
        )
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        traced = args.trace == 1
        rec = Recorder() if traced else None
        data = workload.timed_region(args.seconds, rec)
        if traced:
            values = harness.per_layer(workload, data, rec)
        else:
            values = harness.end_to_end(workload, data, setup_s)
        workload.finish()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # unless another run is using it

    if not traced and not args.smoke:
        # Set-up is measured several times per run: this interpreter's
        # own, plus fresh interpreters that only set up.  The median
        # drops a first run that had to write bytecode files.
        probe = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        values["setup_s"] = statistics.median(
            [setup_s] + [_child(probe, False)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        )
    if traced and args.trace_out:
        rec.write(args.trace_out)

    units = metrics.units()
    attempted = data.attempted + workload.checks
    failed = data.failed + workload.check_failures
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<52s} {value:>16.6f} {units[name]}")
    if traced and args.summary:
        print(rec.summary())
    print(f"  attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


# -- the suite --------------------------------------------------------------------------


def _spawn(name: str, seed: int, seconds: float, trace: int, smoke: bool,
           trace_out: Optional[str] = None) -> Dict[str, Any]:
    arguments = ["--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        arguments += ["--trace-out", trace_out]
    return _child(arguments, smoke)


def run_suite(args: argparse.Namespace, names: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """Both runs of every workload; prints every metric by name."""
    if args.trace_out:
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)

    def job(spec):
        name, trace = spec
        trace_out = None
        if trace and args.trace_out:
            trace_out = str(Path(args.trace_out) / f"{name}.trace.json")
        return _spawn(name, args.seed, args.seconds, trace, args.smoke, trace_out)

    # One run at a time, so that runs do not disturb each other's
    # timings; a smoke run checks outputs, not times, and may overlap.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        runs = list(pool.map(job, [(n, t) for n in names for t in (0, 1)]))
    results: Dict[str, Dict[str, Any]] = {}
    for i, name in enumerate(names):
        plain, traced = runs[2 * i], runs[2 * i + 1]
        results[name] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
        }
        print(f"== {name}: attempted {results[name]['attempted']}, "
              f"failed {results[name]['failed']}")
        for kind in ("end_to_end", "per_layer"):
            for metric, entry in results[name][kind].items():
                if kind == "per_layer" and entry["value"] == 0:
                    continue  # a layer this workload never calls
                print(f"  {metric:<52s} {entry['value']:>16.6f} {entry['unit']}")
    return results


# -- A/A -----------------------------------------------------------------------------------


def _worse_by(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the second reading is worse."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def run_aa(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Two sets of ``--runs`` end-to-end runs per workload, run
    alternately, each run on its own seed: the spread of each set
    (interquartile range over median) and the move of the median from
    the first set to the second must both stay inside the metric's
    bound.  This is the check the benchmark has to pass before any
    change may be measured with it."""
    runs = args.runs
    report: Dict[str, Any] = {"runs": runs, "seconds": args.seconds, "workloads": {}}
    bad = 0
    for name in names:
        sets: List[Dict[str, List[float]]] = [{}, {}]
        failed = 0
        for i in range(runs):
            for which in (0, 1):
                result = _spawn(name, args.seed + i + which * runs,
                                args.seconds, 0, args.smoke)
                failed += result["failed"]
                for metric, entry in result["metrics"].items():
                    sets[which].setdefault(metric, []).append(entry["value"])
        print(f"== {name}  ({runs} runs per set, failed {failed})")
        print(f"  {'metric':<14s}{'median A':>14s}{'median B':>14s}"
              f"{'B worse by':>12s}{'spread A':>10s}{'spread B':>10s}{'bound':>8s}")
        rows = {}
        bad += failed
        for metric, unit, better, bound in metrics.END_TO_END:
            a, b = sets[0][metric], sets[1][metric]
            med_a, med_b = statistics.median(a), statistics.median(b)
            spreads = []
            for values in (a, b):
                if len(values) >= 2 and statistics.median(values):
                    q = statistics.quantiles(values, n=4)
                    spreads.append((q[2] - q[0]) / statistics.median(values))
                else:
                    spreads.append(0.0)
            worse = _worse_by(med_a, med_b, better)
            ok = worse <= bound and (
                metric == "setup_s" or max(spreads) <= bound
            )
            bad += 0 if ok else 1
            rows[metric] = {
                "unit": unit, "median_a": med_a, "median_b": med_b,
                "worse_by": worse, "spread_a": spreads[0],
                "spread_b": spreads[1], "bound": bound, "ok": ok,
            }
            print(f"  {metric:<14s}{med_a:>14.4f}{med_b:>14.4f}{worse:>12.4f}"
                  f"{spreads[0]:>10.4f}{spreads[1]:>10.4f}{bound:>8.2f}"
                  f"{'' if ok else '  <-- outside bound'}")
        report["workloads"][name] = rows
    if args.aa_out:
        Path(args.aa_out).write_text(json.dumps(report, indent=1) + "\n")
    print("A/A: every metric inside its bound" if not bad
          else f"A/A: {bad} metric(s) outside their bound or failed ops")
    return 1 if bad else 0


# -- pinning ---------------------------------------------------------------------------------


def write_expected() -> int:
    """Recompute ``expected/digests.json`` from the canonical (seed-free)
    inputs.  Run only when a change is *meant* to alter the tables or
    the simulator's records; the diff of the file is then the record of
    that decision."""
    from repro.service import protocol

    from . import inputs, oracles, w_compile, w_sim

    tables = {}
    names = [c for w in ("compile_chain", "compile_apps") for c in metrics.CLASSES[w]]
    for name in names:
        if name.startswith("var."):
            continue
        program = inputs.program(name)
        tables[name] = oracles.sha256_hex(w_compile.compile_text(
            program.text, protocol.topology_from_wire(program.topology),
            program.initial_state,
        ))
    records = {}
    for cls in (w_sim.SimStream, w_sim.SimChurn):
        workload = cls(0, False, WORK_ROOT)
        for op_class in workload.classes:
            compiled, topology = w_sim.compile_app(workload.apps[op_class])
            scenario = workload.scenario(op_class, compiled, topology, seeded=False)
            records[f"{workload.name}.{op_class}"] = oracles.record_digest(scenario.run())
    oracles.EXPECTED_PATH.write_text(
        json.dumps({"tables": tables, "records": records}, indent=1) + "\n"
    )
    print(f"wrote {oracles.EXPECTED_PATH}")
    return 0


# -- entry ----------------------------------------------------------------------------------


def main(argv: Sequence[str], process_start: float) -> int:
    parser = argparse.ArgumentParser(prog="repobench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=[n for n, _ in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed region (default {metrics.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: the traced run's per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's spans as Chrome trace JSON "
                             "(a file; a directory for the whole suite)")
    parser.add_argument("--summary", action="store_true",
                        help="print the traced run's self-time tree")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a very short timed region, all oracles on")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets of end-to-end runs and compare them")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set with --aa (the driver uses 10)")
    parser.add_argument("--aa-out", default=None, help="write the --aa report as JSON")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from metrics.py and exit")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin expected/digests.json from the canonical inputs")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(metrics.RUN_SECONDS)

    if args.write_manifest:
        path = HERE.parent / "BENCHMARK.json"
        path.write_text(json.dumps(metrics.manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    if args.write_expected:
        return write_expected()
    if args.setup_only or args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        args.trace = args.trace or 0
        return run_one(args, process_start)

    names = [args.workload] if args.workload else [n for n, _ in metrics.WORKLOADS]
    if args.aa:
        return run_aa(args, names)
    results = run_suite(args, names)
    failed = sum(r["failed"] for r in results.values())
    print("suite: every output correct" if not failed else f"suite: {failed} failed ops")
    return 1 if failed else 0
