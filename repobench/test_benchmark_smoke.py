"""Smoke test of the repository benchmark.

Runs every workload once per trace mode with tiny inputs and a very
short timed region, all output oracles on, and checks the contract the
driver relies on: exit code 0, one JSON result as the last line, every
metric ``BENCHMARK.json`` names present with its unit, no failed op.
Timings are not asserted; the A/A mode (``run.py --aa``) is the check
that they repeat.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repobench import inputs, metrics

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "repobench" / "run.py")]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run(*args):
    done = subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_manifest_matches_the_metric_registry():
    assert MANIFEST == metrics.manifest()
    assert len(MANIFEST["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])


@pytest.fixture(scope="module")
def smoke_results():
    """One smoke run per workload and trace mode, two at a time (a smoke
    run checks outputs, not times, so overlapping them is harmless)."""
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]

    def job(spec):
        workload, trace = spec
        out = run("--workload", workload, "--seed", "3", "--seconds", "0.25",
                  "--trace", str(trace), "--smoke")
        return json.loads(out.strip().splitlines()[-1])

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(job, jobs)))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_named_metric(smoke_results, workload, trace):
    result = smoke_results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert result["metrics"]["bench.failed_share"]["value"] == 0
        assert result["metrics"]["bench.traced_ops"]["value"] > 0
    else:
        # end-to-end metrics are never 0
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_inputs_are_a_function_of_the_seed():
    import random

    def draw(seed):
        rng = random.Random(seed)
        base = inputs.program("ids")
        return (
            inputs.delta_wires(rng, base, "replace_policy"),
            inputs.churn_streams(rng, "firewall", 40),
            inputs.service_pattern(rng),
        )

    assert draw(9) == draw(9)
    assert draw(9) != draw(10)


def test_suite_smoke_exits_zero_and_writes_a_valid_trace(tmp_path):
    out = run("--smoke", "--workload", "compile_chain", "--trace-out", str(tmp_path))
    assert "suite: every output correct" in out
    trace = json.loads((tmp_path / "compile_chain.trace.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"op", "netkat.parser.parse", "events.nes.convert"} <= names


def test_refuses_to_run_without_the_repository(tmp_path):
    # The driver also runs the command in a directory holding only
    # BENCHMARK.json and the benchmark's own files: it must exit
    # non-zero there without printing a result.
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "repobench", tmp_path / "repobench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "compile_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
