"""Start-up and exit cost. scipy takes about 1.3 s to import, and no code
in sqzlab needs it (the drift trace and its Welch spectrum are plain
numpy), so no import and no scenario may load it. A CLI process freezes
its heap at exit, so the interpreter's final collections skip it; a
process that only imports sqzlab does not."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter; prints the steps after which scipy was loaded.
PROBE = """
import json, sys, tempfile
from pathlib import Path

def loaded(step):
    if any(name == "scipy" or name.startswith("scipy.") for name in sys.modules):
        seen.append(step)

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
