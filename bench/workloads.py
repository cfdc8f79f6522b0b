"""The in-process workloads: inputs drawn from the seed, operations, checks.

`plan(name, seed, smoke, tracer, workdir)` returns the passes of a run, each a
list of `Op`. An op's `run` calls sqzlab with values drawn here and
nothing else; its `check` compares the result with a reference computed
independently, raises `CheckFailed` on a miss and returns the raw
deviations it saw (the accuracy diagnostics). Every call goes through the
module attribute (`G.squeeze`, not an imported name), so the tracer's
rebinding reaches it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sqzlab import fock as F
from sqzlab import gaussian as G
from sqzlab import homodyne as H
from sqzlab import protocols as P

# Passes drawn up front; a run stops early if it gets through all of them.
MAX_PASSES = 64


class CheckFailed(Exception):
    """An output missed its reference by more than the stated tolerance."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- fock-engineering ----------------------------------------------------------

FOCK_SIZES = {
    # (cutoff, nominal rho) per make_kitten call, superposition count and
    # cutoff, heralded photons, quadrature samples, Wigner grid points per axis
    False: dict(kittens=((20, 0.05), (20, 0.1), (20, 0.15), (32, 0.05), (32, 0.1), (48, 0.05)),
                n_sup=4, d_sup=20, n_herald=2, phases=24, per_phase=1000, grid=41),
    True: dict(kittens=((6, 0.05), (8, 0.1), (10, 0.05)),
               n_sup=1, d_sup=6, n_herald=1, phases=12, per_phase=100, grid=11),
}
# Each kitten's rho is its nominal value times 1 + U(-2%, 2%): a new unitary
# for every call, at a cost that does not depend on the draw (the expm in
# the beam splitter picks its Pade degree from the generator's norm, so
# rho drawn over [0.02, 0.2] spread the pass time by 20% between seeds).
RHO_JITTER = 0.02
# wigner_fock is only exact where the truncated displacement is: for the
# coherent-state check, cutoff 40 on |x|, |p| <= 2 agrees to ~2e-9 (the
# same grid at cutoff 20 is off by ~10%).
COHERENT_CUTOFF, COHERENT_EXTENT, WIGNER_TOL = 40, 2.0, 1e-7
KITTEN_EXTENT = 3.0


def _photon_total(amps: np.ndarray) -> np.ndarray:
    """Distribution of n_a + n_b of a two-mode amplitude array."""
    d = amps.shape[0]
    total = np.add.outer(np.arange(d), np.arange(d)).ravel()
    return np.bincount(total, weights=(np.abs(amps) ** 2).ravel(), minlength=2 * d - 1)


def _kitten_op(r, d, rho, grid):
    def run():
        state, p_click, fid = P.make_kitten(r, d, rho)
        return state, p_click, fid, F.wigner_fock(state, grid)

    def check(out):
        state, p_click, fid, w = out
        _require(0.0 < p_click < 1.0 and 0.0 < fid <= 1.0 + 1e-12, "kitten probability/fidelity")
        parity = F.photon_parity(state, 0)
        _require(abs(parity + 1.0) <= 1e-9, f"kitten parity {parity}")
        origin = w[len(grid) // 2] * math.pi  # odd state: W(0, 0) = -1/pi
        _require(abs(origin + 1.0) <= 1e-9, f"kitten W(0,0)*pi = {origin}")
        joint = F.tensor(F.squeezed_vacuum_fock(-r, d), F.coherent_fock(0.0, d))
        mixed = F.beam_splitter_fock(joint, (0, 1), math.sqrt(1.0 - rho * rho), rho)
        drift = np.max(np.abs(_photon_total(mixed.amps) - _photon_total(joint.amps)))
        _require(drift <= 1e-10, f"beam splitter changed photon number by {drift}")
        branches = F.branch_probabilities(mixed, 1)[1:]
        return {
            "fock.herald_branch_share_min": float(branches.max() / branches.sum()),
            "fock.norm_leak_max": state.norm_leak,
        }

    return Op(f"kitten-d{d}", run, check)


def _superposition_op(r, alpha, rho, d):
    def run():
        return P.engineer_kitten_superposition(r, alpha, rho, rho, d)

    def check(state):
        amp = math.sqrt(r)
        even = F.overlap(P.ideal_even_kitten(amp, d), state)
        odd = F.overlap(P.ideal_odd_kitten(amp, d), state)
        weight = abs(even) ** 2 + abs(odd) ** 2  # the two kittens are orthogonal
        _require(0.9 <= weight <= 1.0 + 1e-9, f"superposition kitten weight {weight}")
        return {"fock.norm_leak_max": state.norm_leak}

    return Op("kitten-superposition", run, check)


def _herald_op(r, d, thetas, per_phase, seed):
    def run():
        state, p_click = P.make_heralded_photon(r, d)
        return state, p_click, H.sample_quadratures(state, 0, thetas, per_phase, seed=seed)

    def check(out):
        state, p_click, data = out
        _require(abs(p_click - math.tanh(r) ** 2) <= 1e-9, f"click probability {p_click}")
        one = np.zeros(d)
        one[1] = 1.0
        _require(F.fidelity(state, F.from_amplitudes(one)) >= 1.0 - 1e-12, "heralded state is not |1>")
        # |1>: <x> = 0 and <x^2> = 3/2, each with variance 3/2 per sample
        tol = 7.0 * math.sqrt(1.5 / len(data))
        xs = np.asarray(data.xs)
        _require(abs(xs.mean()) <= tol and abs((xs**2).mean() - 1.5) <= tol, "photon quadrature moments")
        branches = F.branch_probabilities(F.tmsv_fock(r, d), 1)[1:]
        return {"fock.herald_branch_share_min": float(branches.max() / branches.sum())}

    return Op("herald-photon", run, check)


def _coherent_wigner_op(alpha, grid):
    def run():
        return F.wigner_fock(F.coherent_fock(alpha, COHERENT_CUTOFF), grid)

    def check(w):
        exact = G.wigner_gaussian(G.displace(G.vacuum(1), 0, alpha), grid)
        dev = float(np.max(np.abs(w - exact)) / np.max(exact))
        _require(dev <= WIGNER_TOL, f"coherent Wigner deviation {dev}")
        return {"fock.wigner_dev": dev}

    return Op("coherent-wigner", run, check)


def _fock_passes(seed, smoke):
    size = FOCK_SIZES[smoke]
    rng = np.random.default_rng([seed, 1])
    kitten_grid = H.wigner_grid(KITTEN_EXTENT, size["grid"])[0]
    coherent_grid = H.wigner_grid(COHERENT_EXTENT, size["grid"])[0]
    thetas = np.linspace(0.0, np.pi, size["phases"], endpoint=False)
    rho_fixed = float(rng.uniform(0.03, 0.15))  # one rho per run: unitary cache hits
    passes = []
    for _ in range(MAX_PASSES):
        ops = [
            _kitten_op(float(rng.uniform(0.1, 0.5)), d, rho * float(1 + rng.uniform(-RHO_JITTER, RHO_JITTER)), kitten_grid)
            for d, rho in size["kittens"]
        ]
        for _ in range(size["n_sup"]):
            alpha = complex(rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
            ops.append(_superposition_op(float(rng.uniform(0.1, 0.3)), alpha, rho_fixed, size["d_sup"]))
        for _ in range(size["n_herald"]):
            ops.append(_herald_op(float(rng.uniform(0.02, 0.1)), 12, thetas, size["per_phase"], _seed(rng)))
        alpha = complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
        ops.append(_coherent_wigner_op(alpha, coherent_grid))
        passes.append(ops)
    return passes


# -- gaussian-circuits ---------------------------------------------------------

GAUSS_SIZES = {
    # (modes, circuits per pass, gates per circuit); teleport grid points per axis
    False: dict(circuits=((8, 16, 48), (32, 4, 64), (100, 1, 100)), grid=21),
    True: dict(circuits=((2, 1, 6), (3, 1, 6), (4, 1, 6)), grid=9),
}
KINDS = ("squeeze", "rotate", "beam_splitter", "two_mode_squeeze", "loss_channel", "displace")
READOUTS = 8
COV_TOL = 1e-9
TELEPORT_EXTENT = 2.0


def _draw_circuit(rng, n, n_gates):
    # every kind equally often, in a drawn order: the gates differ in cost, so
    # a drawn mix of kinds would make the pass time depend on the seed
    kinds = rng.permutation(np.arange(n_gates) % len(KINDS))
    pairs = np.argsort(rng.random((n_gates, n)), axis=1)[:, :2]
    u = rng.random((n_gates, 2))
    gates = []
    for kind, (i, j), (a, b) in zip(kinds, pairs.tolist(), u):
        name = KINDS[kind]
        if name == "squeeze":
            params = (0.6 * a - 0.3, np.pi * b)
        elif name == "rotate":
            params = (2 * np.pi * a,)
        elif name == "beam_splitter":
            params = (math.cos(0.5 * np.pi * a), math.sin(0.5 * np.pi * a))
        elif name == "two_mode_squeeze":
            params = (0.3 * a,)
        elif name == "loss_channel":
            params = (0.7 + 0.3 * a,)
        else:
            params = (complex(a - 0.5, b - 0.5),)
        gates.append((name, i, j, params))
    mean0 = 0.3 * rng.standard_normal(2 * n)
    cov0 = np.diag(np.repeat(rng.uniform(0.5, 0.8, size=n), 2))
    modes = rng.integers(0, n, size=READOUTS)
    angles = rng.uniform(0.0, np.pi, size=READOUTS)
    return mean0, cov0, gates, list(zip(modes.tolist(), angles.tolist()))


def _apply_gate(state, gate):
    name, i, j, params = gate
    if name == "squeeze":
        return G.squeeze(state, i, params[0], params[1])
    if name == "rotate":
        return G.rotate(state, i, params[0])
    if name == "beam_splitter":
        return G.beam_splitter(state, (i, j), params[0], params[1])
    if name == "two_mode_squeeze":
        return G.two_mode_squeeze(state, (i, j), params[0])
    if name == "loss_channel":
        return G.loss_channel(state, i, params[0])
    return G.displace(state, i, params[0])


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _reference(mean, cov, gates):
    """Dense S sigma S^T (and X sigma X^T + Y for loss), from the README conventions."""
    mean, cov = mean.copy(), cov.copy()
    n2 = mean.size
    for name, i, j, params in gates:
        a, b = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
        if name == "displace":
            mean[2 * i] += math.sqrt(2.0) * params[0].real
            mean[2 * i + 1] += math.sqrt(2.0) * params[0].imag
            continue
        s = np.eye(n2)
        if name == "squeeze":
            r, phi = params
            s[a, a] = _rot(phi) @ np.diag([math.exp(-r), math.exp(r)]) @ _rot(phi).T
        elif name == "rotate":
            s[a, a] = _rot(params[0])
        elif name == "beam_splitter":
            tau, rho = params
            s[a, a] = s[b, b] = tau * np.eye(2)
            s[a, b], s[b, a] = -rho * np.eye(2), rho * np.eye(2)
        elif name == "two_mode_squeeze":
            ch, sh = math.cosh(params[0]), math.sinh(params[0])
            s[a, a] = s[b, b] = ch * np.eye(2)
            s[a, b] = s[b, a] = np.diag([sh, -sh])
        else:  # loss: X sigma X^T + (1 - T)/2 on the mode
            t = params[0]
            s[a, a] = math.sqrt(t) * np.eye(2)
        mean = s @ mean
        cov = s @ cov @ s.T
        if name == "loss_channel":
            cov[a, a] += 0.5 * (1.0 - params[0]) * np.eye(2)
    return mean, cov


def _circuit_op(n, circuit, tracer):
    mean0, cov0, gates, readouts = circuit

    def run():
        with tracer.span("gaussian.boundary"):
            state = G.GaussianState(mean=mean0, cov=cov0)
        for gate in gates:
            state = _apply_gate(state, gate)
        values = [
            (G.quadrature_mean(state, m, th), G.quadrature_variance(state, m, th))
            for m, th in readouts
        ]
        text = json.dumps(state.to_json())
        with tracer.span("gaussian.boundary"):
            back = G.GaussianState.from_json(text)
        return state, values, back

    def check(out):
        state, values, back = out
        mean, cov = _reference(mean0, cov0, gates)
        scale = max(1.0, float(np.max(np.abs(cov))))
        dev = max(
            float(np.max(np.abs(state.cov - cov))) / scale,
            float(np.max(np.abs(state.mean - mean))) / max(1.0, float(np.max(np.abs(mean)))),
        )
        for (m, th), (mu, var) in zip(readouts, values):
            c = np.zeros(mean.size)
            c[2 * m], c[2 * m + 1] = math.cos(th), math.sin(th)
            dev = max(dev, abs(var - c @ cov @ c) / scale, abs(mu - c @ mean) / scale)
        _require(dev <= COV_TOL, f"{n}-mode circuit deviates from dense reference by {dev:.3g}")
        _require(
            np.array_equal(back.cov, state.cov) and np.array_equal(back.mean, state.mean),
            "JSON round trip changed the state",
        )
        return {"gaussian.max_dev": dev}

    return Op(f"circuit-n{n}", run, check)


def _teleport_op(alpha, r, grid):
    def run():
        state = G.displace(G.vacuum(1), 0, alpha)
        return P.teleport_wigner_check(state, r, grid), P.teleport_gaussian(state, r)

    def check(out):
        discrepancy, result = out
        closed = 1.0 / (1.0 + math.exp(-2.0 * r))
        _require(abs(result.coherent_fidelity - closed) <= 1e-12, "teleport fidelity")
        peak = 1.0 / (2.0 * math.pi * (0.5 + math.exp(-2.0 * r)))  # output Wigner maximum
        _require(discrepancy <= 1e-6 * peak, f"teleport Wigner-integral discrepancy {discrepancy:.3g}")
        return {}

    return Op("teleport-check", run, check)


def _gauss_passes(seed, smoke, tracer):
    size = GAUSS_SIZES[smoke]
    rng = np.random.default_rng([seed, 2])
    grid = H.wigner_grid(TELEPORT_EXTENT, size["grid"])[0]
    passes = []
    for _ in range(MAX_PASSES):
        ops = []
        for n, count, n_gates in size["circuits"]:
            ops += [_circuit_op(n, _draw_circuit(rng, n, n_gates), tracer) for _ in range(count)]
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ops.append(_teleport_op(alpha, float(rng.uniform(0.2, 1.0)), grid))
        passes.append(ops)
    return passes


# -- homodyne-tomography -------------------------------------------------------

HOMODYNE_SIZES = {
    # tomography phases x samples on a grid x grid Wigner map; drift traces of
    # 2^k-ish samples; tolerance on max|W - W_exact| / max W_exact
    False: dict(phases=24, per_phase=1000, grid=41, n_drift=8, duration=0.05, tomo_tol=0.45),
    True: dict(phases=24, per_phase=200, grid=11, n_drift=1, duration=2048 / 4e6, tomo_tol=1.0),
}
TOMO_R, TOMO_EXTENT = 0.69, 4.0  # the tomography-demo defaults
DRIFT_FS, DRIFT_TAU, DRIFT_SEGMENTS = 4e6, 2e-6, 48
BAND_LO = 1e6


def _tomography_op(phi, thetas, per_phase, seed, grid, tol):
    def run():
        state = G.squeeze(G.vacuum(1), 0, TOMO_R, phi)
        data = H.sample_quadratures(state, 0, thetas, per_phase, seed=seed)
        return state, H.reconstruct_wigner(data, grid)

    def check(out):
        state, w = out
        exact = G.wigner_gaussian(state, grid)
        err = float(np.max(np.abs(w - exact)) / np.max(exact))
        _require(err <= tol, f"tomography error {err:.3g} > {tol}")
        return {"homodyne.wigner_err": err}

    return Op("tomography", run, check)


def _photon_sample_op(thetas, per_phase, seed):
    one = np.zeros(12)
    one[1] = 1.0

    def run():
        return H.sample_quadratures(F.from_amplitudes(one), 0, thetas, per_phase, seed=seed)

    def check(data):
        tol = 7.0 * math.sqrt(1.5 / len(data))
        xs = np.asarray(data.xs)
        _require(abs(xs.mean()) <= tol and abs((xs**2).mean() - 1.5) <= tol, "photon quadrature moments")
        return {}

    return Op("photon-sampling", run, check)


def _csv_op(phi, thetas, per_phase, seed, path):
    def run():
        state = G.squeeze(G.vacuum(1), 0, TOMO_R, phi)
        data = H.sample_quadratures(state, 0, thetas, per_phase, seed=seed)
        H.save_dataset_csv(data, path)
        return data, H.load_dataset_csv(path)

    def check(out):
        data, back = out
        _require(
            np.array_equal(back.thetas, data.thetas) and np.array_equal(back.xs, data.xs),
            "dataset CSV round trip changed values",
        )
        return {"homodyne.csv_bytes": path.stat().st_size}

    return Op("dataset-csv", run, check)


def _drift_op(variance, amplitude, duration, seed):
    def run():
        trace = H.photocurrent_with_drift(
            variance, amplitude, DRIFT_TAU, DRIFT_FS, duration, seed=seed
        )
        return trace, H.spectrum(trace, DRIFT_SEGMENTS)

    def check(out):
        trace, spec = out
        n = trace.values.size
        # white noise plus an AR(1) drift with decay a and innovation variance k2
        a = math.exp(-1.0 / (DRIFT_FS * DRIFT_TAU))
        k2 = amplitude**2 * (1.0 - a * a)
        corr = (1.0 + a) / (1.0 - a)  # drift samples per independent sample
        tol = 7.0 * math.sqrt(2.0 * (variance**2 + amplitude**4 * corr) / n)
        total = float(np.var(trace.values))
        _require(abs(total - variance - amplitude**2) <= tol, f"drift trace variance {total:.4g}")
        band = np.asarray(spec.freqs) >= min(BAND_LO, 0.25 * DRIFT_FS)
        model = variance + k2 / (1.0 - 2.0 * a * np.cos(2 * np.pi * spec.freqs[band] / DRIFT_FS) + a * a)
        ratio = float(np.mean(spec.power[band]) / np.mean(model))
        tol = 7.0 * math.sqrt(1.5 / (DRIFT_SEGMENTS * band.sum()))
        _require(abs(ratio - 1.0) <= tol, f"Welch band mean off by {ratio - 1.0:.3g}")
        return {}

    return Op("drift-spectrum", run, check)


def _homodyne_passes(seed, smoke, workdir):
    size = HOMODYNE_SIZES[smoke]
    rng = np.random.default_rng([seed, 3])
    grid = H.wigner_grid(TOMO_EXTENT, size["grid"])[0]
    thetas = np.linspace(0.0, np.pi, size["phases"], endpoint=False)
    per_phase = size["per_phase"]
    path = workdir / "dataset.csv"
    passes = []
    for _ in range(MAX_PASSES):
        ops = [
            _tomography_op(float(rng.uniform(0, np.pi)), thetas, per_phase, _seed(rng), grid, size["tomo_tol"]),
            _photon_sample_op(thetas, per_phase, _seed(rng)),
            _csv_op(float(rng.uniform(0, np.pi)), thetas, per_phase, _seed(rng), path),
        ]
        ops += [
            _drift_op(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.2, 1.0)), size["duration"], _seed(rng))
            for _ in range(size["n_drift"])
        ]
        passes.append(ops)
    return passes


def plan(name, seed, smoke, tracer, workdir):
    """The passes of one run of workload `name`."""
    if name == "fock-engineering":
        return _fock_passes(seed, smoke)
    if name == "gaussian-circuits":
        return _gauss_passes(seed, smoke, tracer)
    if name == "homodyne-tomography":
        return _homodyne_passes(seed, smoke, workdir)
    raise ValueError(f"not an in-process workload: {name}")


# How a diagnostic is reduced over all ops of a run (default: median).
DIAGNOSTIC_REDUCE = {
    "fock.herald_branch_share_min": min,
    "fock.norm_leak_max": max,
    "fock.wigner_dev": max,
    "gaussian.max_dev": max,
}
