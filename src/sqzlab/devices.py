"""Physical device models mapping lab parameters to squeezing.

Single-pass parametric gain in a nonlinear crystal, cavity figures of
merit, and the below-threshold parametric-amplifier noise spectrum. All
inputs are SI: meters, watts, hertz, m/V for the effective nonlinearity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _readonly

# CODATA 2022 values, as scipy.constants ships them (c and epsilon_0)
SPEED_OF_LIGHT = 299792458.0  # m/s
VACUUM_PERMITTIVITY = 8.8541878188e-12  # F/m


@dataclass(frozen=True)
class CrystalConfig:
    """Nonlinear crystal for collinear parametric down-conversion."""

    chi_eff: float  # effective nonlinearity, m/V
    refractive_index: float
    length: float  # m
    signal_wavelength: float  # m

    def __post_init__(self):
        for name in ("chi_eff", "refractive_index", "length", "signal_wavelength"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.chi_eff >= 1e-9:
            raise ValueError("chi_eff outside the plausible range (0, 1e-9) m/V")


@dataclass(frozen=True)
class PumpConfig:
    """Continuous-wave pump beam."""

    power: float  # W
    waist_radius: float  # m

    def __post_init__(self):
        if self.power <= 0 or self.waist_radius <= 0:
            raise ValueError("pump power and waist must be positive")


@dataclass(frozen=True)
class OpaConfig:
    """Below-threshold parametric amplifier cavity.

    gamma is the half-linewidth (the full cavity linewidth is 2 gamma);
    eta is the overall quantum efficiency; pump_ratio is P/P_th, with 1
    being exactly at threshold.
    """

    gamma: float  # Hz
    eta: float
    pump_ratio: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 <= self.pump_ratio <= 1.0:
            raise ValueError("pump_ratio must lie in [0, 1] (above threshold rejected)")


@dataclass(frozen=True)
class CavityConfig:
    """Signal-resonant cavity described by round-trip quantities."""

    roundtrip_length: float  # m
    roundtrip_loss_excl_coupler: float  # power fraction per round trip
    output_coupler_T: float  # power transmission of the output coupler

    def __post_init__(self):
        if self.roundtrip_length <= 0:
            raise ValueError("roundtrip_length must be positive")
        for name in ("roundtrip_loss_excl_coupler", "output_coupler_T"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.roundtrip_loss_excl_coupler + self.output_coupler_T >= 0.5:
            raise ValueError("total round-trip loss too large for the weak-coupling model")


def pump_field_amplitude(pump: PumpConfig, crystal: CrystalConfig) -> tuple[float, float]:
    """Pump intensity P/(pi w^2) and field amplitude sqrt(I/(2 n eps0 c)).

    Returns (intensity W/m^2, amplitude V/m).
    """
    intensity = pump.power / (np.pi * pump.waist_radius**2)
    amplitude = np.sqrt(
        intensity / (2.0 * crystal.refractive_index * VACUUM_PERMITTIVITY * SPEED_OF_LIGHT)
    )
    return float(intensity), float(amplitude)


def single_pass_r(crystal: CrystalConfig, pump: PumpConfig) -> float:
    """Squeezing parameter for one pass of the pump through the crystal.

    r = chi_eff * Omega * |a_p| * L / (n c), with Omega the signal angular
    frequency and |a_p| the classical pump field amplitude. The amplitude
    convention is pinned by the PPKTP worked example (chi = 14 pm/V,
    780 nm, 5 mm, 100 mW into a 50 um waist gives r of about 1.1e-2).
    """
    _, amplitude = pump_field_amplitude(pump, crystal)
    omega = 2.0 * np.pi * SPEED_OF_LIGHT / crystal.signal_wavelength
    return float(
        crystal.chi_eff
        * omega
        * amplitude
        * crystal.length
        / (crystal.refractive_index * SPEED_OF_LIGHT)
    )


@dataclass(frozen=True)
class CavityFigures:
    fsr: float  # Hz
    finesse: float
    gamma: float  # Hz, half-linewidth (FWHM is 2 gamma)
    escape_efficiency: float


def cavity_figures(cavity: CavityConfig) -> CavityFigures:
    """Free spectral range, finesse, half-linewidth, escape efficiency."""
    t_total = cavity.roundtrip_loss_excl_coupler + cavity.output_coupler_T
    fsr = SPEED_OF_LIGHT / cavity.roundtrip_length
    finesse = np.pi / t_total
    return CavityFigures(
        fsr=float(fsr),
        finesse=float(finesse),
        gamma=float(fsr / finesse),
        escape_efficiency=float(
            cavity.output_coupler_T
            / (cavity.output_coupler_T + cavity.roundtrip_loss_excl_coupler)
        ),
    )


@dataclass(frozen=True)
class NoiseSpectrum:
    """Squeezed / antisqueezed variance curves V-(nu) <= V+(nu) on a grid."""

    freqs: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray

    def __post_init__(self):
        freqs = _readonly(self.freqs)
        v_plus = _readonly(self.v_plus)
        v_minus = _readonly(self.v_minus)
        if not (freqs.shape == v_plus.shape == v_minus.shape):
            raise ValueError("freqs, v_plus, v_minus must have matching shapes")
        if np.any(v_minus <= 0):
            raise ValueError("v_minus must be positive")
        if np.any(v_plus < v_minus * (1.0 - 1e-12)):
            raise ValueError("v_plus must dominate v_minus")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "v_plus", v_plus)
        object.__setattr__(self, "v_minus", v_minus)


def opa_spectrum(opa: OpaConfig, freqs) -> NoiseSpectrum:
    """Squeezed/antisqueezed output variances of a below-threshold OPA.

    V+/-(nu) = 1/2 +/- eta * 2 sqrt(P/P_th) / ((nu/gamma)^2 + (1 -/+ sqrt(P/P_th))^2).

    At pump_ratio = 1 (exactly at threshold) the antisqueezed variance
    diverges as nu -> 0 while the squeezed one tends to 1/2 - eta/2.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    root = np.sqrt(opa.pump_ratio)
    # 1 - sqrt(p) computed without cancellation for p near threshold
    one_minus_root = (1.0 - opa.pump_ratio) / (1.0 + root)
    nu_norm_sq = (freqs / opa.gamma) ** 2
    # cancellation-free rearrangements of 1/2 -/+ eta 2 sqrt(p)/(...)
    with np.errstate(divide="ignore"):
        v_plus = (nu_norm_sq + one_minus_root**2 + 4.0 * opa.eta * root) / (
            2.0 * (nu_norm_sq + one_minus_root**2)
        )
    v_minus = (nu_norm_sq + one_minus_root**2 + 4.0 * (1.0 - opa.eta) * root) / (
        2.0 * (nu_norm_sq + (1.0 + root) ** 2)
    )
    return NoiseSpectrum(freqs=freqs, v_plus=v_plus, v_minus=v_minus)


def effective_gaussian_state(opa: OpaConfig, nu: float) -> GaussianState:
    """Single-mode Gaussian state carrying the OPA variances at sideband nu.

    Var(X) = V-(nu), Var(P) = V+(nu), zero mean; bridges the device model
    into the Gaussian engine for downstream pipelines. Requires operation
    strictly below threshold.
    """
    if opa.pump_ratio >= 1.0:
        raise ValueError("effective state requires pump_ratio < 1 (below threshold)")
    spec = opa_spectrum(opa, [abs(nu)])
    v_minus = float(spec.v_minus[0])
    v_plus = float(spec.v_plus[0])
    if v_minus < 1e-9:
        warnings.warn(
            f"near-singular squeezed variance V- = {v_minus:.3g}",
            stacklevel=2,
        )
    return GaussianState(mean=np.zeros(2), cov=np.diag([v_minus, v_plus]))
