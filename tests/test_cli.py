"""Scenario runner and `sqz` command-line interface."""

import hashlib
import json
import math

import numpy as np
import pytest

from sqzlab.cli import main
from sqzlab.scenarios import (
    CATALOG,
    ScenarioConfig,
    SchemaError,
    load_config,
    resolve,
    run_scenario,
)

ALL_DEFAULTED = [name for name, s in CATALOG.items() if not any(p.required for p in s.params.values())]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRunScenario:
    def test_loss_sweep_matches_closed_form(self, tmp_path):
        r = 1.15
        config = ScenarioConfig(
            scenario="loss-sweep",
            params={"r": r, "t_start": 0.1, "t_stop": 1.0, "t_steps": 10},
            output_dir=str(tmp_path),
        )
        run_scenario(config)
        rows = np.loadtxt(tmp_path / "loss_sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (10, 3)
        for t, var_x, db in rows:
            expected = t * math.exp(-2 * r) / 2 + (1 - t) / 2
            assert var_x == pytest.approx(expected, abs=1e-12)
            assert db == pytest.approx(10 * math.log10(2 * expected), abs=1e-9)

    def test_opa_spectrum_low_frequency_floor(self, tmp_path):
        config = ScenarioConfig(scenario="opa-spectrum", output_dir=str(tmp_path))
        run_scenario(config)
        rows = np.loadtxt(tmp_path / "opa_spectrum.csv", delimiter=",", skiprows=1)
        assert rows[0, 0] == 0.0
        assert 10 * math.log10(2 * rows[0, 2]) == pytest.approx(-6.02, abs=0.01)

    def test_manifest_checksums(self, tmp_path):
        config = ScenarioConfig(
            scenario="cavity-figures", output_dir=str(tmp_path), seed=5
        )
        manifest_path = run_scenario(config)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["scenario"] == "cavity-figures"
        assert manifest["seed"] == 5
        assert manifest["library_version"]
        for name, digest in manifest["outputs"].items():
            body = (tmp_path / name).read_bytes()
            assert hashlib.sha256(body).hexdigest() == digest

    def test_unknown_scenario_writes_nothing(self, tmp_path):
        target = tmp_path / "nothing"
        config = ScenarioConfig(scenario="does-not-exist", output_dir=str(target))
        with pytest.raises(Exception, match="unknown scenario"):
            run_scenario(config)
        assert not target.exists()

    def test_deterministic_outputs(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            config = ScenarioConfig(
                scenario="tomography-demo",
                params={"n_phases": 12, "n_per_phase": 200, "grid_n": 11},
                seed=9,
                output_dir=str(tmp_path / sub),
            )
            run_scenario(config)
            blobs.append(
                (
                    (tmp_path / sub / "dataset.csv").read_bytes(),
                    (tmp_path / sub / "wigner.csv").read_bytes(),
                    (tmp_path / sub / "summary.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_json_format_mirror(self, tmp_path):
        config = ScenarioConfig(
            scenario="cavity-figures", output_dir=str(tmp_path), format="json"
        )
        run_scenario(config)
        rows = json.loads((tmp_path / "cavity_figures.json").read_text())
        values = {row["quantity"]: row["value"] for row in rows}
        assert values["escape_efficiency"] == 0.75
        assert values["fwhm_hz"] == pytest.approx(2 * values["gamma_hz"], rel=1e-12)
        # the dataset and Wigner tables follow the format too, with the csv run's values
        for fmt in ("csv", "json"):
            run_scenario(ScenarioConfig("tomography-demo", output_dir=str(tmp_path / fmt), format=fmt))
        for name, header in [("dataset", "theta,x"), ("wigner", "x,p,w")]:
            csv_path = tmp_path / "csv" / f"{name}.csv"
            assert csv_path.read_text().splitlines()[0] == header
            rows = json.loads((tmp_path / "json" / f"{name}.json").read_text())
            mirrored = [[row[key] for key in header.split(",")] for row in rows]
            assert mirrored == np.loadtxt(csv_path, delimiter=",", skiprows=1).tolist()
            assert not (tmp_path / "json" / f"{name}.csv").exists()

    def test_engineering_outputs_state_and_provenance(self, tmp_path):
        config = ScenarioConfig(scenario="herald-photon", output_dir=str(tmp_path))
        run_scenario(config)
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["version"] == "fstate-v1"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"] == "herald-photon"
        assert manifest["params"]["r"] == 0.05
        assert sorted(manifest["outputs"]) == ["result.csv", "state.json"]

    @pytest.mark.parametrize(
        "name, params, header",
        [
            ("loss-sweep", {"t_steps": 0}, "transmissivity,var_x,squeezing_db"),
            ("teleport-sweep", {"r_max": 1.0, "n_steps": 0}, "r,fidelity,added_noise"),
            ("gw-snr-sweep", {"n_r": 0}, "r,eta,snr,phi_min"),
        ],
    )
    def test_empty_sweep_writes_header_only(self, tmp_path, name, params, header):
        run_scenario(ScenarioConfig(scenario=name, params=params, output_dir=str(tmp_path)))
        assert (tmp_path / f"{name.replace('-', '_')}.csv").read_text() == header + "\n"

    @pytest.mark.parametrize("name", sorted(ALL_DEFAULTED))
    def test_every_scenario_runs_with_defaults(self, name, tmp_path):
        config = ScenarioConfig(scenario=name, output_dir=str(tmp_path / name))
        manifest_path = run_scenario(config)
        assert manifest_path.exists()

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_runner_computes_and_writes_nothing(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scenario, params = resolve(ScenarioConfig(name, {"r_max": 2.0} if name == "teleport-sweep" else {}))
        outputs = scenario.runner(params, 0)
        assert list(tmp_path.iterdir()) == []
        assert outputs
        for out in outputs.values():
            if isinstance(out, dict):
                assert out["version"] == "fstate-v1"
            else:
                header, columns = out
                assert len(header) == len(columns)


class TestValidate:
    def test_valid_config_ok(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"scenario": "teleport-sweep", "params": {"r_max": 2.0}},
        )
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_required_param_named(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "teleport-sweep", "params": {}})
        assert main(["validate", path]) == 3
        out = capsys.readouterr().out
        assert "r_max" in out and "INVALID" in out

    def test_unknown_param_named_and_invalid(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "scenario": "teleport-sweep",
                "params": {"r_max": 1.0, "wavelength": 780e-9},
            },
        )
        assert main(["validate", path]) == 3
        out = capsys.readouterr().out
        assert "unknown params ['wavelength']" in out and out.rstrip().endswith("INVALID")

    def test_unknown_scenario_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "frobnicate"})
        assert main(["validate", path]) == 2

    def test_report_object(self):
        with pytest.raises(SchemaError, match="cannot convert"):
            resolve(ScenarioConfig(scenario="loss-sweep", params={"r": "x"}))


class TestCliMain:
    def test_run_by_name_with_params(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "loss-sweep",
                "--param",
                "r=0.5",
                "--param",
                "t_steps=4",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = np.loadtxt(tmp_path / "loss_sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (4, 3)

    def test_run_config_file(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": "teleport-sweep",
                "params": {"r_max": 1.0, "n_steps": 5},
                "seed": 1,
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", path]) == 0
        rows = np.loadtxt(tmp_path / "out" / "teleport_sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (5, 3)
        assert rows[0, 1] == 0.5

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--seed", "5", "--format", "json", "--param", "n_phases=3"], "--param, --seed, --format"),
            (["--seed", "0"], "--seed"),
            (["--format", "csv"], "--format"),
        ],
    )
    def test_config_file_refuses_run_flags(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"scenario": "loss-sweep", "output_dir": str(out)})
        assert main(["run", path, *flags, "--out", str(tmp_path / "other")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {named} cannot be used with a config file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        # --out alone is the one override
        assert main(["run", path, "--out", str(tmp_path / "other")]) == 0
        assert (tmp_path / "other" / "manifest.json").exists() and not out.exists()

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        assert main(["run", "frobnicate", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_schema_violation_exit_3(self, tmp_path):
        assert (
            main(["run", "loss-sweep", "--param", "r=oops", "--out", str(tmp_path)])
            == 3
        )

    def test_io_failure_exit_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["run", "cavity-figures", "--out", str(blocker / "sub")])
        assert code == 4

    def test_missing_config_file_exit_4(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 4

    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in CATALOG:
            assert name in out
        assert "r_max" in out

    def test_sqz_out_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQZ_OUT", str(tmp_path / "envbase"))
        assert main(["run", "cavity-figures"]) == 0
        assert (tmp_path / "envbase" / "cavity-figures" / "manifest.json").exists()

    def test_load_config_rejects_unknown_top_level_keys(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "loss-sweep", "seeds": [1, 2]})
        with pytest.raises(Exception, match="unknown config keys"):
            load_config(path)
