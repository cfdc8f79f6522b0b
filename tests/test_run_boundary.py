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

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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
    "bool-seed": ("loss-sweep", {}, True),
    "bool-int": ("loss-sweep", {"t_steps": True}, 0),
    "bool-float": ("loss-sweep", {"r": False}, 0),
    "bool-seed-and-params": ("loss-sweep", {"t_steps": True, "r": False}, True),
    "unknown-param": ("kitten", {"alpha": 1e300}, 0),
    "unknown-state-kind": ("tomography-demo", {"state": "thermal"}, 0),
}
PHYSICS_CASES = {
    "no-samples": ("tomography-demo", {"n_per_phase": 0}, 0),
    "no-phases": ("tomography-demo", {"n_phases": 0}, 0),
    "cutoff-above-limit": ("kitten", {"cutoff": 100}, 0),
    "zero-cutoff": ("herald-photon", {"cutoff": 0}, 0),
    "kitten-zero-cutoff": ("kitten", {"cutoff": 0}, 0),
    "superposition-zero-cutoff": ("kitten-superposition", {"cutoff": 0}, 0),
    "negative-grid-extent": ("tomography-demo", {"grid_extent": -1.0}, 0),
    "negative-drift": ("spectrum-drift-demo", {"drift_amplitude": -0.75}, 0),
    "coarse-surface": ("tomography-demo", {"state": "vacuum", "n_phases": 12, "n_per_phase": 20, "grid_extent": 1.0, "grid_n": 3}, 0),
    "empty-grid": ("tomography-demo", {"grid_n": 0}, 0),
    "one-point-grid": ("tomography-demo", {"grid_n": 1}, 0),
    "kitten-cosh-overflow": ("kitten", {"r": 711.0}, 0),
    "superposition-cosh-overflow": ("kitten-superposition", {"r": 711.0}, 0),
    "herald-cosh-overflow": ("herald-photon", {"r": 711.0}, 0),
    "herald-negative-cosh-overflow": ("herald-photon", {"r": -1e3}, 0),
    "herald-overflow-below-cosh": ("herald-photon", {"r": 400.0}, 0),
    "kitten-clipped-by-cutoff": ("kitten", {"r": 40.0}, 0),
    "herald-leak-above-tolerance": ("herald-photon", {"cutoff": 2}, 0),
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


def _sqz_run(scenario, param, out, preexec_fn=None):
    """`sqz run` in a fresh interpreter, where warnings reach stderr unfiltered.

    One BLAS thread, so an address-space limit counts only the run's arrays.
    """
    return subprocess.run(
        [sys.executable, "-m", "sqzlab.cli", "run", scenario, "--param", param, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        timeout=120,
        preexec_fn=preexec_fn,
    )


def test_command_line_nan_is_one_line_without_traceback(tmp_path):
    proc = _sqz_run("loss-sweep", "r=nan", tmp_path / "out")
    assert proc.returncode == 3
    assert proc.stderr == "error: param 'r': nan is not finite\n"
    assert not (tmp_path / "out").exists()


# a run that warns prints one line per warning, and no source line
WARNING_LINES = {
    ("gw-snr-sweep", "phi=0.2"): "|phi| = 0.2 outside the linearized regime",
    ("kitten-superposition", "ancilla_re=0.8"): "ancilla is not weak; higher photon terms will intrude",
}


@pytest.mark.parametrize("scenario, param", WARNING_LINES)
def test_command_line_warning_is_one_line(scenario, param, tmp_path):
    proc = _sqz_run(scenario, param, tmp_path / "out")
    assert proc.returncode == 0
    assert proc.stderr == f"warning: {WARNING_LINES[scenario, param]}\n"
    assert (tmp_path / "out" / "manifest.json").exists()


# cosh(r) is finite at r = 400, but the covariance's cosh(2r)/2 is not
@pytest.mark.parametrize("r", ["400", "711", "-1e3"])
def test_command_line_cosh_overflow_is_one_line_without_numpy_warnings(r, tmp_path):
    proc = _sqz_run("herald-photon", f"r={r}", tmp_path / "out")
    assert proc.returncode == 3
    expected = f"two_mode_squeeze r = {float(r)}: gate gave a non-finite state (non-finite parameter or overflow)"
    assert proc.stderr == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_command_line_clipped_state_is_one_line_without_truncation_warnings(tmp_path):
    proc = _sqz_run("kitten", "r=40", tmp_path / "out")
    assert proc.returncode == 3
    assert proc.stderr == "error: from_gaussian: cutoff 20 loses weight 1; no cutoff up to 64 holds it\n"
    assert not (tmp_path / "out").exists()


def test_command_line_clipped_state_names_the_cutoff_that_holds_it(tmp_path):
    proc = _sqz_run("herald-photon", "cutoff=2", tmp_path / "out")
    assert proc.returncode == 3
    assert proc.stderr == "error: tmsv_fock: cutoff 2 loses weight 6.23e-06; cutoff 3 holds it\n"
    assert not (tmp_path / "out").exists()


# the one stderr line of herald-photon near two_mode_squeeze's reach (r = 355.58): the
# conversion keeps none of the state at cutoff 12 from r ~ 350, and sigma overflows it past 355.24
HERALD_REACH_LINES = {
    "350": "tmsv_fock: cutoff 12 loses weight 1; no cutoff up to 64 holds it",
    "355.2": "tmsv_fock: cutoff 12 loses weight 1; no cutoff up to 64 holds it",
    "355.4": "from_gaussian: sigma is beyond float64's reach",
    "355.5": "from_gaussian: sigma is beyond float64's reach",
}


@pytest.mark.parametrize("r", HERALD_REACH_LINES)
def test_command_line_herald_near_the_gate_reach_is_one_line(r, tmp_path):
    proc = _sqz_run("herald-photon", f"r={r}", tmp_path / "out")
    assert proc.returncode == 3
    assert proc.stderr == f"error: {HERALD_REACH_LINES[r]}\n"
    assert not (tmp_path / "out").exists()


def test_teleport_at_half_gain_runs_to_the_e2r_reach(tmp_path):
    # det(sigma) of the fidelity overflowed above r ~ 179 at gain 0.5
    assert main(["run", "teleport-sweep", "--param", "gain=0.5", "--param", "r_max=354", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "teleport_sweep.csv").read_text().splitlines()[1:]]
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 354.0
    for r, fidelity, _ in rows:
        added = 0.25 * (0.25 * math.exp(2.0 * float(r)) + 2.25 * math.exp(-2.0 * float(r)))
        assert float(fidelity) == pytest.approx(1.0 / (0.625 + added), rel=1e-12, abs=0.0)


# the one stderr line of each run, which names r
OVERFLOW_LINES = {
    # the sweep's first r above ln(DBL_MAX)/2, refused before any arithmetic
    "teleport-sweep": "resource squeezing r = 360.0 is outside [0, 354.9]: e^(2r) overflows a float64 above it",
    # e^(2r)/2 overflows the squeezed variance inside the gate
    "gw-snr-sweep": "squeeze r = 400.0: gate gave a non-finite state (non-finite parameter or overflow)",
}


@pytest.mark.parametrize("scenario", OVERFLOW_LINES)
def test_command_line_float_overflow_is_one_line_without_numpy_warnings(scenario, tmp_path):
    proc = _sqz_run(scenario, "r_max=400", tmp_path / "out")
    assert proc.returncode == 3
    assert proc.stderr == f"error: {OVERFLOW_LINES[scenario]}\n"
    assert not (tmp_path / "out").exists()


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


# 17.9 GiB and 2.98 GiB arrays, refused by the 2 GiB address-space limit
# before any page is touched
@pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
@pytest.mark.parametrize(
    "scenario, param", [("tomography-demo", "n_per_phase=100000000"), ("spectrum-drift-demo", "duration_s=100")]
)
def test_command_line_out_of_memory_is_one_line(scenario, param, tmp_path):
    proc = _sqz_run(scenario, param, tmp_path / "out", preexec_fn=_two_gib_address_space)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "out").exists()


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


def test_coarse_grid_message_names_step_and_squeezed_width(tmp_path, capsys):
    params = {"r": 1.0, "n_phases": 12, "n_per_phase": 100, "grid_extent": 3.0, "grid_n": 11}
    config = write_config(tmp_path / "coarse.json", "tomography-demo", params)
    assert main(["run", config, "--out", str(tmp_path / "coarse")]) == 3
    err = capsys.readouterr().err
    assert "grid step 0.6 is wider than the squeezed width sqrt(v_min) = 0.3" in err, err
    finer = write_config(tmp_path / "fine.json", "tomography-demo", {**params, "grid_n": 41})
    assert main(["run", finer, "--out", str(tmp_path / "fine")]) == 0
