"""Catalog outputs are byte-identical to the recorded checksums.

``tests/data/catalog_sha256.json`` holds the sha256 of every output file
except ``manifest.json`` (which carries a timestamp) for the 11 scenarios
at default parameters, seed 0, in csv and json, with ``teleport-sweep`` at
``r_max=2.0``. The bytes depend on floating-point results, so the test
skips when the installed numpy differs from the recorded version (no
output depends on scipy, which sqzlab does not import).

A change that moves an output on purpose states why and by how much, then
rewrites the file with ``PYTHONPATH=src python tests/test_catalog_golden.py``,
which prints each moved key with its old and new digest.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sqzlab.scenarios import CATALOG, ScenarioConfig, run_scenario

GOLDEN = Path(__file__).resolve().parent / "data" / "catalog_sha256.json"
PARAMS = {"teleport-sweep": {"r_max": 2.0}}


def catalog_checksums(root: Path) -> dict:
    """sha256 of each non-manifest output, keyed 'scenario/format/file'."""
    sums = {}
    for name in sorted(CATALOG):
        for fmt in ("csv", "json"):
            outdir = root / fmt / name
            config = ScenarioConfig(name, PARAMS.get(name, {}), 0, str(outdir), fmt)
            outputs = json.loads(run_scenario(config).read_text())["outputs"]
            sums.update({f"{name}/{fmt}/{file}": digest for file, digest in outputs.items()})
    return sums


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    """The catalog run once for this module: (output root, checksums)."""
    root = tmp_path_factory.mktemp("catalog")
    return root, catalog_checksums(root)


def test_catalog_outputs_match_golden(catalog):
    golden = json.loads(GOLDEN.read_text())
    installed = {"numpy": np.__version__}
    if golden["versions"] != installed:
        pytest.skip(f"checksums recorded with {golden['versions']}, installed {installed}")
    assert catalog[1] == golden["sha256"]


def test_catalog_outputs_have_lf_line_ends(catalog):
    root, sums = catalog
    with_cr = []
    for key in sums:
        name, fmt, file = key.split("/")
        if b"\r" in (root / fmt / name / file).read_bytes():
            with_cr.append(key)
    assert with_cr == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sums = catalog_checksums(Path(tmp))
    old = json.loads(GOLDEN.read_text())["sha256"] if GOLDEN.exists() else {}
    for key in sorted(old.keys() | sums.keys()):
        if old.get(key) != sums.get(key):
            print(f"moved {key}: {old.get(key)} -> {sums.get(key)}", file=sys.stderr)
    payload = {"versions": {"numpy": np.__version__}, "sha256": sums}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(sums)} checksums to {GOLDEN}", file=sys.stderr)
