"""Scenario catalog: reproducible command-line experiments.

Each scenario's runner maps library operations to outputs in memory: CSV or
JSON tables and, for the state-engineering runners, a state JSON payload.
`run_scenario` alone writes them, plus a manifest with config echo and
output checksums. Outputs are byte-identical for a fixed config and seed;
wall-clock timestamps appear only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import shutil
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, devices, fock, homodyne, protocols
from .gaussian import displace, loss_channel, quadrature_variance, squeeze, squeezing_db, vacuum
from .homodyne import write_table


class UnknownScenarioError(ValueError):
    pass


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class Param:
    kind: type
    default: object = None  # None means required
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is None


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str | None = None
    format: str = "csv"


@dataclass(frozen=True)
class Scenario:
    description: str
    params: dict
    runner: object  # callable(params, seed) -> {stem: (header, columns) | payload dict for stem.json}


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="")
    return path


def _quantities(values: dict) -> tuple:
    """A two-column table of named scalars, in the order given."""
    return ["quantity", "value"], [list(values), list(values.values())]


# -- runners -------------------------------------------------------------------


def _run_loss_sweep(p, seed):
    sq = squeeze(vacuum(1), 0, p["r"])
    ts = np.linspace(p["t_start"], p["t_stop"], p["t_steps"])
    var = [quadrature_variance(loss_channel(sq, 0, float(t)), 0, 0.0) for t in ts]
    columns = [ts, var, [squeezing_db(v) for v in var]]
    return {"loss_sweep": (["transmissivity", "var_x", "squeezing_db"], columns)}


def _run_opa_spectrum(p, seed):
    opa = devices.OpaConfig(gamma=p["gamma_hz"], eta=p["eta"], pump_ratio=p["pump_ratio"])
    freqs = np.linspace(p["nu_min_hz"], p["nu_max_hz"], p["n_points"])
    spec = devices.opa_spectrum(opa, freqs)
    return {"opa_spectrum": (["freq_hz", "v_plus", "v_minus"], [spec.freqs, spec.v_plus, spec.v_minus])}


def _run_ppktp_estimate(p, seed):
    crystal = devices.CrystalConfig(
        chi_eff=p["chi_eff_m_per_v"],
        refractive_index=p["refractive_index"],
        length=p["length_m"],
        signal_wavelength=p["wavelength_m"],
    )
    pump = devices.PumpConfig(power=p["power_w"], waist_radius=p["waist_m"])
    intensity, amplitude = devices.pump_field_amplitude(pump, crystal)
    values = {
        "pump_intensity_w_per_m2": intensity,
        "pump_amplitude_v_per_m": amplitude,
        "single_pass_r": devices.single_pass_r(crystal, pump),
    }
    return {"ppktp_estimate": _quantities(values)}


def _run_cavity_figures(p, seed):
    fig = devices.cavity_figures(
        devices.CavityConfig(
            roundtrip_length=p["length_m"],
            roundtrip_loss_excl_coupler=p["roundtrip_loss"],
            output_coupler_T=p["coupler_t"],
        )
    )
    values = {
        "fsr_hz": fig.fsr,
        "finesse": fig.finesse,
        "gamma_hz": fig.gamma,
        "fwhm_hz": 2.0 * fig.gamma,
        "escape_efficiency": fig.escape_efficiency,
    }
    return {"cavity_figures": _quantities(values)}


def _tomography_state(p):
    kind = p["state"]
    if kind == "vacuum":
        return vacuum(1)
    if kind == "squeezed":
        return squeeze(vacuum(1), 0, p["r"])
    if kind == "coherent":
        return displace(vacuum(1), 0, p["alpha"])
    if kind == "single-photon":
        amps = np.zeros(12)
        amps[1] = 1.0
        return fock.from_amplitudes(amps)
    raise SchemaError(f"param 'state': unknown state kind {kind!r}")


def _run_tomography_demo(p, seed):
    state = _tomography_state(p)
    thetas = np.linspace(0.0, np.pi, p["n_phases"], endpoint=False)
    data = homodyne.sample_quadratures(state, 0, thetas, p["n_per_phase"], seed=seed)
    points, _, _ = homodyne.wigner_grid(p["grid_extent"], p["grid_n"])
    cutoff = p["filter_cutoff"] if p["filter_cutoff"] > 0 else None
    w = homodyne.reconstruct_wigner(data, points, filter_cutoff=cutoff)
    v_min, v_max, phi_min = homodyne.variance_profile(data)
    summary = {
        "profile_v_min": v_min,
        "profile_v_max": v_max,
        "profile_phi_min": phi_min,
        "axis_ratio": homodyne.wigner_axis_ratio(data, points, w),
        "w_peak": float(np.max(w)),
        "w_min": float(np.min(w)),
    }
    return {
        "dataset": (["theta", "x"], [data.thetas, data.xs]),
        "wigner": (["x", "p", "w"], [*points.T, w]),
        "summary": _quantities(summary),
    }


def _run_spectrum_drift_demo(p, seed):
    trace = homodyne.photocurrent_with_drift(
        quad_variance=p["quad_variance"],
        drift_amplitude=p["drift_amplitude"],
        drift_timescale=p["drift_timescale_s"],
        fs=p["fs_hz"],
        duration=p["duration_s"],
        seed=seed,
        electronic_noise_variance=p["electronic_noise_variance"],
    )
    spec = homodyne.spectrum(trace, n_segments=p["n_segments"])
    nyquist = trace.fs / 2.0
    summary = {
        "time_domain_variance": float(np.var(trace.values)),
        "band_floor_above_1mhz": spec.band_mean(min(1e6, 0.5 * nyquist), nyquist),
        "sql_variance": homodyne.SQL_VARIANCE,
    }
    return {"spectrum": (["freq_hz", "power"], [spec.freqs, spec.power]), "summary": _quantities(summary)}


def _run_teleport_sweep(p, seed):
    rs = np.linspace(p["r_min"], p["r_max"], p["n_steps"])
    results = [protocols.teleport_gaussian(vacuum(1), float(r), gain=p["gain"]) for r in rs]
    columns = [rs, [x.coherent_fidelity for x in results], [x.added_noise_per_quadrature for x in results]]
    return {"teleport_sweep": (["r", "fidelity", "added_noise"], columns)}


def _run_gw_snr_sweep(p, seed):
    rows = []
    for r in np.linspace(p["r_min"], p["r_max"], p["n_r"]):
        for eta in np.linspace(p["eta_min"], p["eta_max"], p["n_eta"]):
            est = protocols.gw_phase_readout(p["phi"], p["alpha"], float(r), float(eta))
            rows.append([float(r), float(eta), est.snr, est.phi_min_detectable])
    columns = np.reshape(rows, (-1, 4)).T  # four columns even when the sweep is empty
    return {"gw_snr_sweep": (["r", "eta", "snr", "phi_min"], columns)}


def _run_herald_photon(p, seed):
    state, prob = protocols.make_heralded_photon(p["r"], p["cutoff"])
    one = np.zeros(p["cutoff"])
    one[1] = 1.0
    fid = fock.fidelity(state, fock.from_amplitudes(one))
    values = {"click_probability": float(prob), "fidelity_vs_single_photon": float(fid)}
    return {"state": state.to_json(), "result": _quantities(values)}


def _run_kitten(p, seed):
    state, prob, fid = protocols.make_kitten(p["r"], p["cutoff"], p["rho"])
    values = {"click_probability": float(prob), "fidelity_vs_odd_kitten": float(fid)}
    return {"state": state.to_json(), "result": _quantities(values)}


def _run_kitten_superposition(p, seed):
    alpha = complex(p["ancilla_re"], p["ancilla_im"])
    state = protocols.engineer_kitten_superposition(
        p["r"], alpha, p["rho_tap"], p["rho_mix"], p["cutoff"]
    )
    amp = np.sqrt(p["r"])
    even = fock.overlap(protocols.ideal_even_kitten(amp, p["cutoff"]), state)
    odd = fock.overlap(protocols.ideal_odd_kitten(amp, p["cutoff"]), state)
    values = {
        "even_overlap_re": float(even.real),
        "even_overlap_im": float(even.imag),
        "odd_overlap_re": float(odd.real),
        "odd_overlap_im": float(odd.imag),
    }
    return {"state": state.to_json(), "result": _quantities(values)}


CATALOG: dict[str, Scenario] = {}


def _register(name, description, params, runner):
    CATALOG[name] = Scenario(description=description, params=params, runner=runner)


_register(
    "loss-sweep",
    "Squeezed vacuum through a variable loss channel: Var(X) and dB vs T.",
    {
        "r": Param(float, 1.15, "input squeezing parameter"),
        "t_start": Param(float, 0.1, "first transmissivity"),
        "t_stop": Param(float, 1.0, "last transmissivity"),
        "t_steps": Param(int, 10, "number of sweep points"),
    },
    _run_loss_sweep,
)
_register(
    "opa-spectrum",
    "Below-threshold OPA squeezing spectrum V+/-(nu).",
    {
        "gamma_hz": Param(float, 6.4e6, "cavity half-linewidth"),
        "eta": Param(float, 0.75, "overall quantum efficiency"),
        "pump_ratio": Param(float, 1.0, "P/P_th (1 = at threshold)"),
        "nu_min_hz": Param(float, 0.0, "lowest sideband frequency"),
        "nu_max_hz": Param(float, 3.0e7, "highest sideband frequency"),
        "n_points": Param(int, 121, "grid size"),
    },
    _run_opa_spectrum,
)
_register(
    "ppktp-estimate",
    "Single-pass squeezing estimate for a CW-pumped nonlinear crystal.",
    {
        "chi_eff_m_per_v": Param(float, 14e-12, "effective nonlinearity"),
        "refractive_index": Param(float, 1.8, "crystal index"),
        "length_m": Param(float, 5e-3, "crystal length"),
        "wavelength_m": Param(float, 780e-9, "signal wavelength"),
        "power_w": Param(float, 0.1, "pump power"),
        "waist_m": Param(float, 50e-6, "pump waist radius"),
    },
    _run_ppktp_estimate,
)
_register(
    "cavity-figures",
    "FSR, finesse, linewidth and escape efficiency of a signal cavity.",
    {
        "length_m": Param(float, 0.3, "round-trip length"),
        "roundtrip_loss": Param(float, 0.005, "loss excluding the coupler"),
        "coupler_t": Param(float, 0.015, "output coupler transmission"),
    },
    _run_cavity_figures,
)
_register(
    "tomography-demo",
    "Sample homodyne data and reconstruct the Wigner function.",
    {
        "state": Param(str, "squeezed", "vacuum | squeezed | coherent | single-photon"),
        "r": Param(float, 0.69, "squeezing parameter (squeezed state)"),
        "alpha": Param(float, 1.0, "real amplitude (coherent state)"),
        "n_phases": Param(int, 24, "phases over [0, pi)"),
        "n_per_phase": Param(int, 1000, "samples per phase"),
        "grid_extent": Param(float, 4.0, "grid half-width"),
        "grid_n": Param(int, 41, "grid points per axis"),
        "filter_cutoff": Param(float, 0.0, "Ram-Lak cutoff (0 = automatic)"),
    },
    _run_tomography_demo,
)
_register(
    "spectrum-drift-demo",
    "Welch spectrum of a photocurrent with slow zero-point drift.",
    {
        "quad_variance": Param(float, 0.5, "white quadrature variance"),
        "drift_amplitude": Param(float, 0.75, "drift RMS amplitude"),
        "drift_timescale_s": Param(float, 2e-6, "drift correlation time"),
        "fs_hz": Param(float, 4e6, "sampling rate"),
        "duration_s": Param(float, 0.05, "record length"),
        "n_segments": Param(int, 48, "Welch segments"),
        "electronic_noise_variance": Param(float, 0.0, "detector noise floor (off)"),
    },
    _run_spectrum_drift_demo,
)
_register(
    "teleport-sweep",
    "Teleportation fidelity and added noise vs resource squeezing.",
    {
        "r_min": Param(float, 0.0, "lowest resource squeezing"),
        "r_max": Param(float, None, "highest resource squeezing (required)"),
        "n_steps": Param(int, 21, "sweep points"),
        "gain": Param(float, 1.0, "classical gain"),
    },
    _run_teleport_sweep,
)
_register(
    "gw-snr-sweep",
    "Interferometric phase readout SNR over squeezing and efficiency.",
    {
        "phi": Param(float, 1e-6, "true phase"),
        "alpha": Param(float, 1e3, "bright-port amplitude"),
        "r_min": Param(float, 0.0, "lowest dark-port squeezing"),
        "r_max": Param(float, 1.5, "highest dark-port squeezing"),
        "n_r": Param(int, 7, "squeezing sweep points"),
        "eta_min": Param(float, 0.5, "lowest detection efficiency"),
        "eta_max": Param(float, 1.0, "highest detection efficiency"),
        "n_eta": Param(int, 6, "efficiency sweep points"),
    },
    _run_gw_snr_sweep,
)
_register(
    "herald-photon",
    "Heralded single photon from a weak two-mode squeezed source.",
    {
        "r": Param(float, 0.05, "source squeezing"),
        "cutoff": Param(int, 12, "Fock cutoff"),
    },
    _run_herald_photon,
)
_register(
    "kitten",
    "Photon-subtracted squeezed vacuum (odd kitten).",
    {
        "r": Param(float, 0.2, "resource squeezing"),
        "cutoff": Param(int, 20, "Fock cutoff"),
        "rho": Param(float, 0.05, "tap reflectivity"),
    },
    _run_kitten,
)
_register(
    "kitten-superposition",
    "Even/odd kitten superposition via an ancilla in the heralding path.",
    {
        "r": Param(float, 0.2, "resource squeezing"),
        "cutoff": Param(int, 20, "Fock cutoff"),
        "rho_tap": Param(float, 0.05, "tap reflectivity"),
        "rho_mix": Param(float, 0.05, "ancilla mixing reflectivity"),
        "ancilla_re": Param(float, 0.05, "ancilla amplitude, real part"),
        "ancilla_im": Param(float, 0.0, "ancilla amplitude, imaginary part"),
    },
    _run_kitten_superposition,
)


def default_output_dir(scenario_name: str) -> Path:
    base = os.environ.get("SQZ_OUT", "sqz_out")
    return Path(base) / scenario_name


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("scenario"), str):
        raise SchemaError("config must be a JSON object with a 'scenario' string")
    if not isinstance(raw.get("params", {}), dict) or not isinstance(raw.get("output_dir", ""), (str, type(None))):
        raise SchemaError("config 'params' must be a JSON object and 'output_dir' a string")
    known = {"scenario", "params", "seed", "output_dir", "format"}
    extra = set(raw) - known
    if extra:
        raise SchemaError(f"unknown config keys: {sorted(extra)}")
    return ScenarioConfig(
        scenario=raw["scenario"],
        params=raw.get("params", {}),
        seed=raw.get("seed", 0),
        output_dir=raw.get("output_dir"),
        format=raw.get("format", "csv"),
    )


def resolve(config: ScenarioConfig) -> tuple[Scenario, dict]:
    """Decide whether a run may start: its scenario, format, seed and params.

    Returns the scenario and its params typed by the schema, defaults filled
    in. Every param must be in the schema, floats finite, ints integral and
    the seed a non-negative integer; a boolean is none of these. Raises
    UnknownScenarioError or SchemaError and touches no file. `run_scenario`
    and `sqz validate` both decide by this call.
    """
    if config.scenario not in CATALOG:
        raise UnknownScenarioError(f"unknown scenario {config.scenario!r}")
    scenario = CATALOG[config.scenario]
    problems = []
    unknown = sorted(set(config.params) - set(scenario.params))
    if unknown:
        problems.append(f"unknown params {unknown} for {config.scenario!r}")
    if config.format not in ("csv", "json"):
        problems.append(f"format must be csv or json, got {config.format!r}")
    if isinstance(config.seed, bool) or not isinstance(config.seed, numbers.Integral) or config.seed < 0:
        problems.append(f"seed must be a non-negative integer, got {config.seed!r}")
    params = {}
    for name, spec in scenario.params.items():
        if name not in config.params:
            if spec.required:
                problems.append(f"missing required param {name!r}")
            params[name] = spec.default
            continue
        value = config.params[name]
        try:
            params[name] = spec.kind(value)
        except (TypeError, ValueError, OverflowError):
            problems.append(f"param {name!r}: cannot convert {value!r} to {spec.kind.__name__}")
        else:
            if isinstance(value, bool):
                problems.append(f"param {name!r}: a boolean ({value!r}) is not accepted")
            elif spec.kind is float and not math.isfinite(params[name]):
                problems.append(f"param {name!r}: {value!r} is not finite")
            elif spec.kind is int and isinstance(value, float) and params[name] != value:
                problems.append(f"param {name!r}: {value!r} is not an integer")
    if problems:
        raise SchemaError("; ".join(problems))
    return scenario, params


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def run_scenario(config: ScenarioConfig) -> Path:
    """Run one scenario, then write its outputs and manifest; returns the manifest path.

    The runner computes every output before the first directory is made,
    so UnknownScenarioError, SchemaError, a ValueError from the physics, a
    MemoryError, and a fock.TruncationWarning or numpy overflow, invalid or
    divide warning (each raised as an error) leave the file system
    untouched. An error while writing, such as an OSError, propagates after
    removing the directories this run created; a directory that existed
    before the run is left in place.
    """
    scenario, params = resolve(config)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error", fock.TruncationWarning)
        outputs = scenario.runner(params, config.seed)
    outdir = Path(config.output_dir) if config.output_dir else default_output_dir(config.scenario)
    # the topmost directory that this run creates, if any
    created = next((d for d in reversed((outdir, *outdir.parents)) if not d.exists()), None)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        files = [
            _write_json(outdir / f"{stem}.json", out) if isinstance(out, dict)
            else write_table(outdir / stem, *out, config.format)
            for stem, out in outputs.items()
        ]
        manifest = {
            "scenario": config.scenario,
            "params": params,
            "seed": config.seed,
            "format": config.format,
            "library_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": {f.name: _sha256(f) for f in files},
        }
        manifest_path = _write_json(outdir / "manifest.json", manifest)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return manifest_path
