"""Smoke test of the benchmark at tiny sizes (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "gaussian-circuits", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_rebinds_and_restores():
    pytest.importorskip("sqzlab")
    import spans
    from sqzlab import gaussian, protocols

    original = gaussian.squeeze
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert protocols.squeeze is gaussian.squeeze is not original
        protocols.gw_phase_readout(1e-6, 1e3, 0.5)
    finally:
        tracer.uninstall()
    assert protocols.squeeze is gaussian.squeeze is original
    names = [s[0] for s in tracer.spans]
    # squeeze and loss_channel are entered from protocols; quadrature_variance's
    # nested call inside the gaussian layer records no span of its own
    assert names[0] == "protocols.gw_phase_readout"
    assert "gaussian.squeeze" in names and "gaussian.squeeze_op" not in names
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
