"""Start-up and exit cost. scipy takes about 1.3 s to import, and no code
in sqzlab needs it (the drift trace and its Welch spectrum are plain
numpy), so no import and no scenario may load it; nor may a Fock
conversion of a displaced state and the Wigner map, which no scenario
calls, load it or mpmath, the tests' reference for them. A CLI process freezes its heap at exit, so
the interpreter's final collections skip it; a process that only imports
sqzlab does not."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter; prints the steps after which scipy, mpmath or
# numpy.ma was loaded. np.unique without return_index/inverse/counts imports numpy.ma,
# about 8 ms of a cold process.
PROBE = """
import json, sys, tempfile
from pathlib import Path

def loaded(step):
    for package in ("scipy", "mpmath", "numpy.ma"):
        if any(name == package or name.startswith(package + ".") for name in sys.modules):
            seen.append(f"{step}: {package}")

seen = []
import sqzlab
loaded("import sqzlab")
import sqzlab.cli
loaded("import sqzlab.cli")
from sqzlab.scenarios import CATALOG, ScenarioConfig, run_scenario
sqzlab.cli.main(["list"])
loaded("sqz list")
with tempfile.TemporaryDirectory() as tmp:
    for name in sorted(CATALOG):
        params = {"r_max": 2.0} if name == "teleport-sweep" else {}
        run_scenario(ScenarioConfig(name, params, 0, str(Path(tmp) / name)))
        loaded(name)
from sqzlab.fock import from_gaussian, tmsv_fock, wigner_fock
from sqzlab.gaussian import displace, squeeze, vacuum
shifted = from_gaussian(displace(squeeze(vacuum(1), 0, 0.3), 0, 0.4 - 0.3j), 8)
wigner_fock(shifted, [[0.0, 0.0], [0.5, -0.5], [-0.5, 0.5]])
wigner_fock(tmsv_fock(0.3, 8), [[1.0, 0.0]], mode=1)
loaded("fock conversion and Wigner map")
print(json.dumps(seen))
"""


def test_no_scenario_loads_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# Registered before anything else, so it runs last (atexit is last-in,
# first-out) and sees what the handlers registered after it did.
EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("freeze count at exit:", gc.get_freeze_count()))
"""


def _run_exit_probe(body):
    """stdout lines before the probe's, and the freeze count it saw."""
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE + body],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    return printed, int(last.rsplit(" ", 1)[1])


def test_cli_process_freezes_its_heap_at_exit(tmp_path):
    out = tmp_path / "out"
    body = f"import sqzlab.cli\nsys.exit(sqzlab.cli.main(['run', 'loss-sweep', '--out', {str(out)!r}]))\n"
    printed, frozen = _run_exit_probe(body)
    assert printed == [f"wrote {out}/ (manifest: manifest.json)"]
    assert (out / "manifest.json").is_file()
    assert frozen > 0


def test_import_sqzlab_does_not_freeze_at_exit():
    assert _run_exit_probe("import sqzlab\n") == ([], 0)



# The package exports resolve lazily: a layer is imported when one of its
# names is first read, and each layer imports only the layers it uses.
def _run_fresh(code):
    """The last line that code prints, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _layers_loaded_by(body):
    report = "import json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('sqzlab.'))))"
    return json.loads(_run_fresh(f"{body}\n{report}\n"))


def test_import_sqzlab_loads_no_layer():
    assert _layers_loaded_by("import sqzlab") == []


def test_from_sqzlab_import_fock_loads_only_fock_and_gaussian():
    assert _layers_loaded_by("from sqzlab import fock") == ["sqzlab.fock", "sqzlab.gaussian"]


def test_devices_loads_only_gaussian():
    assert _layers_loaded_by("import sqzlab.devices") == ["sqzlab.devices", "sqzlab.gaussian"]


# the names the package imported eagerly before its exports were lazy, and from_gaussian
EXPORTS = {
    "gaussian": "GaussianState beam_splitter displace infer_effective_loss loss_channel "
    "quadrature_variance rotate squeeze squeezing_db two_mode_squeeze vacuum wigner_gaussian",
    "fock": "FockState beam_splitter_fock coherent_fock fidelity from_gaussian herald_click "
    "squeezed_vacuum_fock suggest_cutoff tmsv_fock wigner_fock",
    "homodyne": "PhotocurrentTrace PowerSpectrum QuadratureDataset photocurrent_with_drift "
    "quadrature_pdf reconstruct_wigner sample_quadratures sideband_quadratures spectrum wigner_grid",
    "devices": "CavityConfig CrystalConfig NoiseSpectrum OpaConfig PumpConfig cavity_figures "
    "effective_gaussian_state opa_spectrum pump_field_amplitude single_pass_r",
    "protocols": "PhaseEstimate TeleportResult detection_efficiency_for_improvement "
    "engineer_kitten_superposition gw_phase_readout make_heralded_photon make_kitten "
    "teleport_gaussian teleport_wigner_check",
}


def test_exports_are_the_layers_objects():
    code = f"""
import importlib, sqzlab
listed = dir(sqzlab)
starred = {{}}
exec("from sqzlab import *", starred)
for layer, names in {EXPORTS!r}.items():
    module = importlib.import_module("sqzlab." + layer)
    for name in names.split():
        assert getattr(sqzlab, name) is getattr(module, name), name
        assert starred[name] is getattr(module, name), name
        assert name in listed, name
print("ok")
"""
    assert _run_fresh(code) == "ok"


def test_unknown_name_raises_attribute_error():
    # a constant, an imported module and a private function are not exports
    code = """
import sqzlab
for name in ("no_such_name", "MAX_CUTOFF", "np", "_check_cutoff"):
    try:
        getattr(sqzlab, name)
    except AttributeError:
        continue
    raise SystemExit(f"sqzlab.{name} resolved")
print("ok")
"""
    assert _run_fresh(code) == "ok"
