"""Start-up cost: scipy takes about 1.3 s to import, and no code in sqzlab
needs it (the drift trace and its Welch spectrum are plain numpy), so no
import and no scenario may load it."""

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
