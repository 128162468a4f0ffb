"""Fast smoke test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The layers each workload is meant to exercise.
EXPECTED_LAYERS = {
    "language": {"lang", "rng", "autodiff", "ops", "tensor"},
    "models": {"ops", "lift", "zoo"},
}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_request_passes_checks_and_layers_are_traced(name):
    import ntensor.ops

    original_add = ntensor.ops.add
    wl = workloads.WORKLOADS[name](3)
    inputs = wl.prepare(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        span = tracer.begin()
        out = wl.request(inputs)
        tracer.end(span)
    finally:
        tracer.uninstall()
    assert ntensor.ops.add is original_add
    assert wl.check(inputs, out) is None
    assert wl.verify(inputs, out) is None

    layers = tracer.metrics(1.0, 1.0)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    touched = {layer for layer in spans.LAYERS if layers[f"{layer}.spans"][0] > 0}
    assert touched == EXPECTED_LAYERS[name]
    assert layers["trace.top_coverage"][0] >= 0.9


def test_verify_rejects_a_wrong_output():
    wl = workloads.ZooBatched(3)
    scores, states, density = wl.request(None)
    wrong = density.__class__(density.shape, density.array * (1.0 + 1e-6))
    assert wl.verify(None, (scores, states, wrong)) is not None


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_result(tmp_path, trace):
    # A copied tree, so that the run's records do not replace real ones.
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "language", "--seed", "42",
                "--seconds", "1", "--trace", str(trace), "--heldout-seed", "1042")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_command_fails_without_the_package(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(tmp_path, "--workload", "models", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
