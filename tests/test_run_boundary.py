"""The run boundary of `sqz`: every rejected input is exit code 3 with one
line on stderr, a failed run leaves no directory it created, and valid runs
are reproducible byte for byte."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sqzlab.cli import main
from sqzlab.scenarios import ScenarioConfig, run_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(path, scenario, params=None, seed=0):
    path.write_text(json.dumps({"scenario": scenario, "params": params or {}, "seed": seed}))
    return str(path)


# (scenario, params, seed); the schema rejects the first group, the physics the second
SCHEMA_CASES = {
    "nan-float": ("loss-sweep", {"r": math.nan}, 0),
    "inf-float": ("teleport-sweep", {"r_max": math.inf}, 0),
    "minus-inf-float": ("kitten", {"rho": -math.inf}, 0),
    "inf-int": ("loss-sweep", {"t_steps": math.inf}, 0),
    "non-integral-int": ("loss-sweep", {"t_steps": 2.7}, 0),
    "negative-seed": ("tomography-demo", {}, -1),
    "non-integral-seed": ("cavity-figures", {}, 2.7),
    "string-seed": ("cavity-figures", {}, "7"),
}
PHYSICS_CASES = {
    "no-samples": ("tomography-demo", {"n_per_phase": 0}, 0),
    "cutoff-above-limit": ("kitten", {"cutoff": 100}, 0),
    "zero-cutoff": ("herald-photon", {"cutoff": 0}, 0),
    "negative-grid-extent": ("tomography-demo", {"grid_extent": -1.0}, 0),
    "unknown-state-kind": ("tomography-demo", {"state": "thermal"}, 0),
    "coarse-surface": ("tomography-demo", {"state": "vacuum", "n_phases": 12, "n_per_phase": 20, "grid_extent": 1.0, "grid_n": 3}, 0),
}


@pytest.mark.parametrize("case", [*SCHEMA_CASES, *PHYSICS_CASES])
def test_rejected_run_exits_3_and_leaves_no_directory(case, tmp_path, capsys):
    scenario, params, seed = {**SCHEMA_CASES, **PHYSICS_CASES}[case]
    config = write_config(tmp_path / "config.json", scenario, params, seed)
    fresh = tmp_path / "fresh"
    assert main(["run", config, "--out", str(fresh / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not fresh.exists()


@pytest.mark.parametrize(
    "config",
    [
        [1],
        {"scenario": 5},
        {"scenario": "loss-sweep", "params": "r=0.5"},
        {"scenario": "loss-sweep", "output_dir": 5},
        {"scenario": "loss-sweep", "seeds": [1, 2]},
    ],
)
def test_malformed_config_file_exits_3(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert main(["validate", str(path)]) == 3
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.count("\n") == 2


@pytest.mark.parametrize("case", SCHEMA_CASES)
def test_validate_rejects_schema_cases(case, tmp_path, capsys):
    scenario, params, seed = SCHEMA_CASES[case]
    assert main(["validate", write_config(tmp_path / "config.json", scenario, params, seed)]) == 3
    assert capsys.readouterr().out.rstrip().endswith("INVALID")


@pytest.mark.parametrize("case", ["cutoff-above-limit", "coarse-surface"])
def test_failed_run_keeps_existing_directory_as_it_was(case, tmp_path):
    scenario, params, seed = PHYSICS_CASES[case]
    keep = tmp_path / "keep"
    keep.mkdir()
    (keep / "notes.txt").write_text("kept")
    assert main(["run", write_config(tmp_path / "config.json", scenario, params, seed), "--out", str(keep)]) == 3
    assert [f.name for f in keep.iterdir()] == ["notes.txt"]
    assert (keep / "notes.txt").read_text() == "kept"


def test_command_line_nan_is_one_line_without_traceback(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sqzlab.cli", "run", "loss-sweep", "--param", "r=nan", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: param 'r': nan is not finite\n"
    assert not out.exists()


# -- valid runs are reproducible ---------------------------------------------------

VALID_PARAMS = {
    "loss-sweep": {
        "r": st.floats(0.0, 2.0),
        "t_start": st.floats(0.0, 1.0),
        "t_stop": st.floats(0.0, 1.0),
        "t_steps": st.integers(1, 12),
    },
    "teleport-sweep": {
        "r_min": st.floats(0.0, 1.0),
        "r_max": st.floats(1.0, 2.5),
        "n_steps": st.integers(1, 8),
        "gain": st.floats(0.5, 1.5),
    },
    "kitten": {"r": st.floats(0.05, 0.4), "cutoff": st.integers(16, 24), "rho": st.floats(0.02, 0.2)},
    "tomography-demo": {
        "state": st.sampled_from(["vacuum", "squeezed", "coherent", "single-photon"]),
        "r": st.floats(0.0, 0.7),
        "alpha": st.floats(-1.0, 1.0),
        "n_phases": st.integers(12, 24),
        "n_per_phase": st.integers(200, 500),
        "grid_extent": st.floats(3.0, 4.0),
        "grid_n": st.integers(31, 41),
    },
}
VALID_RUNS = st.sampled_from(sorted(VALID_PARAMS)).flatmap(
    lambda name: st.tuples(st.just(name), st.fixed_dictionaries(VALID_PARAMS[name]))
)


def _run_bytes(config):
    """Every output file's bytes, with the manifest's timestamp dropped."""
    manifest = run_scenario(config)
    blobs = {f.name: f.read_bytes() for f in manifest.parent.iterdir() if f != manifest}
    echo = json.loads(manifest.read_text())
    del echo["created_utc"]
    return blobs, echo


@settings(derandomize=True, max_examples=40, deadline=None)
@given(VALID_RUNS, st.integers(0, 2**32), st.sampled_from(["csv", "json"]))
def test_valid_params_give_the_same_bytes_twice(tmp_path_factory, run, seed, fmt):
    scenario, params = run
    base = tmp_path_factory.mktemp("runs")
    first, second = (
        _run_bytes(ScenarioConfig(scenario, params, seed, str(base / sub), fmt)) for sub in ("a", "b")
    )
    assert first == second
