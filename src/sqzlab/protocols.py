"""Composite pipelines built on the two state engines.

Continuous-variable teleportation with fidelity metrics, squeezed-enhanced
interferometric phase readout, and conditional state engineering (heralded
photons, photon-subtracted "kitten" states and their superpositions).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import FockState
from .gaussian import (
    GaussianState,
    _phase_space_points,
    beam_splitter,
    loss_channel,
    quadrature_variance,
    squeeze,
    two_mode_squeeze,
    vacuum,
    wigner_gaussian,
)

SQRT2 = np.sqrt(2.0)
_E2R_REACH = 354.891356446692  # ln(DBL_MAX)/2, the largest r whose e^(2r) is a finite float64


@dataclass(frozen=True)
class TeleportResult:
    """Outcome of the Gaussian teleportation channel."""

    output_state: GaussianState
    added_noise_per_quadrature: float
    coherent_fidelity: float

    def __post_init__(self):
        if self.added_noise_per_quadrature < 0:
            raise ValueError("added noise cannot be negative")
        if not 0.0 <= self.coherent_fidelity <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")


def _gaussian_overlap_fidelity(a: GaussianState, b: GaussianState) -> float:
    """<psi_a| rho_b |psi_a> for a pure Gaussian a (exact for coherent a)."""
    sigma = a.cov + b.cov
    delta = b.mean - a.mean
    quad = delta @ np.linalg.solve(sigma, delta)
    f = np.exp(-0.5 * quad) / np.sqrt(np.linalg.det(sigma))
    return float(min(max(f, 0.0), 1.0))


def teleport_gaussian(
    input_state: GaussianState, r_resource: float, gain: float = 1.0
) -> TeleportResult:
    """Teleport a single-mode Gaussian state using a two-mode squeezed
    resource with parameter r_resource.

    The channel adds 0.25[(1-g)^2 e^(2r) + (1+g)^2 e^(-2r)] to each quadrature variance, with no
    cancellation (r above ln(DBL_MAX)/2 ~ 354.9 is refused). At unit gain that is exp(-2r), the
    mean is kept and the coherent-state fidelity is 1 / (1 + exp(-2r)), independent of the input
    amplitude. Non-unit gain is exposed for sweeps but the fidelity benchmark assumes gain 1.
    """
    if input_state.n_modes != 1:
        raise ValueError("teleportation takes a single-mode input")
    if not 0 <= r_resource <= _E2R_REACH:
        raise ValueError(
            f"resource squeezing r = {r_resource} is outside [0, {_E2R_REACH:.1f}]: e^(2r) overflows a float64 above it"
        )
    g = float(gain)
    added = 0.25 * ((1.0 - g) ** 2 * np.exp(2.0 * r_resource) + (1.0 + g) ** 2 * np.exp(-2.0 * r_resource))
    out = GaussianState(
        mean=g * input_state.mean,
        cov=g * g * input_state.cov + added * np.eye(2),
    )
    return TeleportResult(
        output_state=out,
        added_noise_per_quadrature=float(added),
        coherent_fidelity=_gaussian_overlap_fidelity(input_state, out),
    )


def teleport_wigner_check(
    input_state: GaussianState, r_resource: float, grid
) -> float:
    """Second route through the teleportation channel, by conditioning.

    Builds the input plus a two-mode squeezed resource with the engine's
    gates and the sender's 50:50 beam splitter, conditions the receiver mode
    on the homodyne outcomes z = (X'_a, P'_b) by a Schur complement,
    displaces it by sqrt(2) z and averages over z ~ N(mu_m, sig_mm): a
    Gaussian convolution with mean mu_c + sqrt(2) mu_m and covariance
    D sig_mm D^T + sig_cond, D = sqrt(2) I + slope. Returns the largest
    |W_route - W_closed| over the given (x, p) grid points.

    Independent of teleport_gaussian: the gates, the conditioning, the
    receiver gain sqrt(2) and the outcome average. Both Wigner functions
    come from wigner_gaussian, checked on its own in tests/test_gaussian.py.
    Float64 reach on 21x21 points over +-4: <= 1.4e-9 up to r_resource = 10
    (1.3e-8 for an input squeezed by 0.6), 5-6e-7 at 12 and a spurious
    0.3-0.5 at 20, set by rounding in the conditioning on entries ~ e^{2r}.
    """
    points = _phase_space_points(grid, 2)
    closed = teleport_gaussian(input_state, r_resource, gain=1.0)
    sig_out = closed.output_state.cov
    min_width = np.sqrt(np.min(np.linalg.eigvalsh(sig_out)))
    if points.shape[0] < 9:
        warnings.warn("comparison grid is very coarse", stacklevel=2)
    else:
        steps = np.diff(np.sort(points[:, 0]))
        steps = steps[steps > 0]
        if steps.size and steps.min() > min_width:
            warnings.warn(
                "comparison grid coarser than the output state's width",
                stacklevel=2,
            )

    # three-mode state: mode 0 input, modes 1-2 the entangled resource
    resource = two_mode_squeeze(vacuum(2), (0, 1), r_resource)
    mean6 = np.concatenate([input_state.mean, resource.mean])
    cov6 = np.zeros((6, 6))
    cov6[:2, :2] = input_state.cov
    cov6[2:, 2:] = resource.cov
    joint = GaussianState(mean=mean6, cov=cov6)
    joint = beam_splitter(joint, (0, 1), 1.0 / SQRT2, 1.0 / SQRT2)
    mean6, cov6 = joint.mean, joint.cov

    # keep (X'_a, P'_b, X_c, P_c); the first two are measured
    idx = [0, 3, 4, 5]
    mu4 = mean6[idx]
    sig4 = cov6[np.ix_(idx, idx)]
    mu_m, mu_c = mu4[:2], mu4[2:]
    sig_mm = sig4[:2, :2]
    sig_cm = sig4[2:, :2]
    sig_cc = sig4[2:, 2:]
    slope = sig_cm @ np.linalg.inv(sig_mm)
    sig_cond = sig_cc - slope @ sig_cm.T

    # receiver displacement is sqrt(2) * (measured X'_a, measured P'_b)
    disp = SQRT2 * np.eye(2) + slope
    # unchecked: from r = 10 on, rounding in the conditioning puts the
    # average 1e-8 to 4e-6 past the uncertainty bound
    averaged = GaussianState._trusted(
        mu_c + SQRT2 * mu_m, disp @ sig_mm @ disp.T + sig_cond
    )
    conditioned = wigner_gaussian(averaged, points)
    analytic = wigner_gaussian(closed.output_state, points)
    return float(np.max(np.abs(conditioned - analytic)))


@dataclass(frozen=True)
class PhaseEstimate:
    """Interferometric phase readout with a squeezed dark port."""

    phi_true: float
    signal_displacement: float
    readout_variance: float
    snr: float
    phi_min_detectable: float

    def __post_init__(self):
        if self.readout_variance <= 0:
            raise ValueError("readout variance must be positive")


def gw_phase_readout(
    phi: float, alpha: float, dark_port_r: float, eta_detect: float = 1.0
) -> PhaseEstimate:
    """Linearized interferometer phase readout.

    A path-length phase phi displaces the dark-port mode along the
    momentum axis by sqrt(2) phi alpha (alpha the real bright-port
    amplitude). The readout variance is the squeezed dark-port variance,
    degraded by detection loss eta_detect and read in the squeezer's own
    frame, where no rounded cos(pi/2) multiplies e^(2r); the minimum
    detectable phase is where the displacement matches one standard deviation.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if abs(phi) > 0.1:
        warnings.warn(
            f"|phi| = {abs(phi):.3g} outside the linearized regime", stacklevel=2
        )
    dark = squeeze(vacuum(1), 0, dark_port_r)
    degraded = loss_channel(dark, 0, eta_detect)
    variance = quadrature_variance(degraded, 0, 0.0)
    displacement = SQRT2 * phi * alpha
    return PhaseEstimate(
        phi_true=float(phi),
        signal_displacement=float(displacement),
        readout_variance=float(variance),
        snr=float(displacement / np.sqrt(variance)),
        phi_min_detectable=float(np.sqrt(variance) / (SQRT2 * alpha)),
    )


def detection_efficiency_for_improvement(
    dark_port_r: float, improvement_db: float
) -> float:
    """Detection efficiency at which the net readout improvement over the
    vacuum dark port equals improvement_db.

    Solves T exp(-2r)/2 + (1-T)/2 = V with 10 log10(2V) = -improvement_db.
    """
    if dark_port_r <= 0:
        raise ValueError("needs a squeezed dark port (r > 0)")
    max_db = 20.0 * dark_port_r / np.log(10.0)
    if not 0.0 < improvement_db < max_db:
        raise ValueError(
            f"improvement must lie in (0, {max_db:.4g}) dB for r = {dark_port_r}"
        )
    target = 10.0 ** (-improvement_db / 10.0) / 2.0
    eta = (0.5 - target) / (0.5 - 0.5 * np.exp(-2.0 * dark_port_r))
    return float(eta)


# -- conditional state engineering --------------------------------------------


def _cat(alpha: complex, cutoff: int, sign: float) -> FockState:
    """Normalized |alpha> + sign |-alpha>."""
    plus, minus = (np.asarray(fock.coherent_fock(a, cutoff).amps) for a in (alpha, -alpha))
    return fock.from_amplitudes(plus + sign * minus)


def ideal_even_kitten(alpha: complex, cutoff: int) -> FockState:
    """Normalized |alpha> + |-alpha> (even photon numbers only)."""
    return _cat(alpha, cutoff, 1.0)


def ideal_odd_kitten(alpha: complex, cutoff: int) -> FockState:
    """Normalized |alpha> - |-alpha> (odd photon numbers only)."""
    return _cat(alpha, cutoff, -1.0)


def make_heralded_photon(r: float, cutoff: int) -> tuple[FockState, float]:
    """Heralded single photon from a weakly squeezed two-mode source.

    A click on the idler mode of a two-mode squeezed vacuum heralds a
    photon in the signal mode. Returns the conditional signal state and
    the click probability; for small r the state approaches |1> and the
    probability tanh(r)^2.
    """
    pair = fock.tmsv_fock(r, cutoff)
    return fock.herald_click(pair, mode=1)


def _kitten_resource(r: float, cutoff: int) -> FockState:
    # Squeezed vacuum elongated along X, so the kitten lumps sit at
    # +/- sqrt(r) on the X axis (matching the real-amplitude references).
    return fock.squeezed_vacuum_fock(-r, cutoff)


def make_kitten(
    r: float, cutoff: int, subtraction_reflectivity: float
) -> tuple[FockState, float, float]:
    """Photon-subtracted squeezed vacuum ("odd kitten") preparation.

    The squeezed vacuum passes a weak beam-splitter tap; a click on the
    tapped mode heralds a photon subtraction. Returns (state, click
    probability, fidelity against the ideal odd kitten with amplitude
    sqrt(r)).
    """
    rho = float(subtraction_reflectivity)
    if not 0.0 < rho < 0.5:
        raise ValueError("subtraction reflectivity must be small and positive")
    if r <= 0:
        raise ValueError("needs a squeezed resource (r > 0)")
    joint = fock.tensor(_kitten_resource(r, cutoff), fock.coherent_fock(0.0, cutoff))
    joint = fock.beam_splitter_fock(joint, (0, 1), np.sqrt(1.0 - rho * rho), rho)
    signal, p_click = fock.herald_click(joint, mode=1)
    fid = fock.fidelity(signal, ideal_odd_kitten(np.sqrt(r), cutoff))
    return signal, p_click, fid


def engineer_kitten_superposition(
    r: float,
    ancilla_alpha: complex,
    rho_tap: float,
    rho_mix: float,
    cutoff: int,
) -> FockState:
    """Controllable superposition of the even and odd kittens.

    A weak coherent ancilla is mixed into the heralding path before the
    click detector, so a click no longer distinguishes "photon subtracted
    from the squeezed vacuum" from "photon supplied by the ancilla". The
    conditional signal state is a coherent superposition of the even
    kitten (no subtraction) and odd kitten (subtraction), with weights and
    relative phase set by the ancilla amplitude.
    """
    if r <= 0:
        raise ValueError("needs a squeezed resource (r > 0)")
    for name, value in (("rho_tap", rho_tap), ("rho_mix", rho_mix)):
        if not 0.0 < value < 0.5:
            raise ValueError(f"{name} must be small and positive")
    if abs(ancilla_alpha) ** 2 > 0.5:
        warnings.warn("ancilla is not weak; higher photon terms will intrude", stacklevel=2)
    signal = _kitten_resource(r, cutoff)
    joint = fock.tensor(signal, fock.coherent_fock(0.0, cutoff))
    joint = fock.tensor(joint, fock.coherent_fock(ancilla_alpha, cutoff))
    joint = fock.beam_splitter_fock(joint, (0, 1), np.sqrt(1.0 - rho_tap**2), rho_tap)
    joint = fock.beam_splitter_fock(joint, (1, 2), np.sqrt(1.0 - rho_mix**2), rho_mix)
    conditioned, _ = fock.herald_click(joint, mode=1)
    return fock.reduce_to_dominant_branch(conditioned, mode=1)
