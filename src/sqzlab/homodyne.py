"""Measurement layer: quadrature sampling, temporal-mode matched filtering,
photocurrent spectra with technical noise, and Wigner-function tomography.

The local oscillator is treated as a classical number throughout: a
quadrature sample at phase theta is a draw from the marginal of
X_theta = X cos(theta) + P sin(theta), and the standard quantum limit
(SQL) is the vacuum variance 1/2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter, welch

from .fock import FockState
from .gaussian import GaussianState, _phase_space_points, quadrature_mean, quadrature_variance

SQL_VARIANCE = 0.5

TWO_PI = 2.0 * np.pi


def _readonly(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadratureDataset:
    """Homodyne measurement record: (phase, quadrature value) samples."""

    thetas: np.ndarray
    xs: np.ndarray
    source_meta: dict = field(default_factory=dict)
    rng_seed: int = 0

    def __post_init__(self):
        thetas = _readonly(np.mod(self.thetas, TWO_PI))
        xs = _readonly(self.xs)
        if thetas.shape != xs.shape or thetas.ndim != 1:
            raise ValueError("thetas and xs must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(xs))):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "xs", xs)

    def __len__(self) -> int:
        return self.xs.size

    @property
    def samples(self):
        """Iterator over (theta, x) pairs."""
        return zip(self.thetas, self.xs)


def _save_csv(path, header: list[str], *columns):
    """Write float columns under a header, each value as repr(float(v))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(map(repr, map(float, col)) for col in columns)))


def save_dataset_csv(dataset: QuadratureDataset, path):
    _save_csv(path, ["theta", "x"], dataset.thetas, dataset.xs)


def load_dataset_csv(path) -> QuadratureDataset:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return QuadratureDataset(thetas=data[:, 0], xs=data[:, 1])


def hermite_functions(n_max: int, xs: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions phi_0..phi_{n_max-1} on a grid.

    Uses the stable two-term recursion; rows are n, columns follow xs.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty((n_max, xs.size))
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * xs**2)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for n in range(2, n_max):
        out[n] = np.sqrt(2.0 / n) * xs * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def quadrature_pdf(state, mode: int, theta: float, xs: np.ndarray) -> np.ndarray:
    """Probability density of a quadrature measurement at phase theta.

    Works for both engines: exact normal density for Gaussian states, and
    the Hermite-expanded marginal for Fock states (including entangled
    multimode states, where the other modes are summed over).
    """
    xs = np.asarray(xs, dtype=float)
    if isinstance(state, GaussianState):
        mu = quadrature_mean(state, mode, theta)
        var = quadrature_variance(state, mode, theta)
        return np.exp(-0.5 * (xs - mu) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
    if isinstance(state, FockState):
        return _fock_marginal(state, mode, xs)(theta)
    raise TypeError("state must be a GaussianState or FockState")


def _fock_marginal(state: FockState, mode: int, xs: np.ndarray):
    """Quadrature density of one mode on xs, as a function of the phase.

    The Hermite basis and the mode-major amplitudes do not depend on the
    phase, so they are built once and only the rotation is per call.
    """
    d = state.cutoff
    amps = np.moveaxis(np.asarray(state.amps), mode, 0).reshape(d, -1)
    norm_sq = float(np.vdot(amps, amps).real)
    waves = hermite_functions(d, xs)

    def pdf(theta: float) -> np.ndarray:
        rotated = amps * np.exp(-1j * theta * np.arange(d))[:, None]
        branches = waves.T @ rotated
        return np.einsum("xk,xk->x", branches, branches.conj()).real / norm_sq

    return pdf


def _check_normalized(state):
    if isinstance(state, FockState):
        norm_sq = float(np.vdot(state.amps, state.amps).real)
        if abs(norm_sq - 1.0) > 1e-6:
            raise ValueError(f"state norm^2 = {norm_sq:.8g}, not normalized")


def sample_quadratures(
    state, mode: int, thetas, n_per_theta: int, seed: int = 0
) -> QuadratureDataset:
    """Draw homodyne samples at each phase; reproducible for a fixed seed.

    Each phase gets its own deterministic child generator, so results do
    not depend on evaluation order.
    """
    _check_normalized(state)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if n_per_theta < 1:
        raise ValueError("n_per_theta must be positive")
    children = np.random.SeedSequence(seed).spawn(thetas.size)
    all_thetas = np.repeat(thetas, n_per_theta)
    blocks = []
    if isinstance(state, GaussianState):
        for theta, child in zip(thetas, children):
            rng = np.random.default_rng(child)
            mu = quadrature_mean(state, mode, theta)
            sd = np.sqrt(quadrature_variance(state, mode, theta))
            blocks.append(rng.normal(mu, sd, size=n_per_theta))
    elif isinstance(state, FockState):
        span = np.sqrt(2.0 * state.cutoff) + 5.0
        grid = np.linspace(-span, span, 4097)
        dx = grid[1] - grid[0]
        pdf_at = _fock_marginal(state, mode, grid)
        for theta, child in zip(thetas, children):
            rng = np.random.default_rng(child)
            pdf = pdf_at(theta)
            cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)))
            cdf /= cdf[-1]
            blocks.append(np.interp(rng.uniform(size=n_per_theta), cdf, grid))
    else:
        raise TypeError("state must be a GaussianState or FockState")
    meta = {
        "engine": type(state).__name__,
        "mode": mode,
        "n_per_theta": int(n_per_theta),
    }
    return QuadratureDataset(
        thetas=all_thetas, xs=np.concatenate(blocks), source_meta=meta, rng_seed=seed
    )


@dataclass(frozen=True)
class PhotocurrentTrace:
    """A sampled homodyne photocurrent record."""

    dt: float
    values: np.ndarray
    sql_variance: float = SQL_VARIANCE

    def __post_init__(self):
        values = _readonly(self.values)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if values.size < 2:
            raise ValueError("trace needs at least 2 samples")
        object.__setattr__(self, "values", values)

    @property
    def fs(self) -> float:
        return 1.0 / self.dt

    @property
    def duration(self) -> float:
        return self.values.size * self.dt


def matched_filter_quadrature(trace: PhotocurrentTrace, mode_fn) -> float:
    """Temporal-mode quadrature estimate: the integral of phi(t) I(t) dt.

    mode_fn holds phi sampled on the trace's grid and must be normalized
    so that sum(phi^2) dt = 1.
    """
    phi = np.asarray(mode_fn, dtype=float)
    if phi.shape != trace.values.shape:
        raise ValueError("mode function must be sampled on the trace grid")
    norm = float(np.sum(phi**2) * trace.dt)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"mode function not normalized: sum(phi^2) dt = {norm:.8g}")
    return float(np.sum(phi * trace.values) * trace.dt)


def photocurrent_with_drift(
    quad_variance: float,
    drift_amplitude: float,
    drift_timescale: float,
    fs: float,
    duration: float,
    seed: int = 0,
    electronic_noise_variance: float = 0.0,
) -> PhotocurrentTrace:
    """White quadrature noise plus a slow random drift of the zero point.

    The white component has the given per-sample variance (SQL = 1/2); the
    drift is an Ornstein-Uhlenbeck process with the given stationary RMS
    amplitude and correlation timescale, the simplest stationary process
    with a single timescale. An optional detector electronic-noise floor
    (white, off by default) adds on top.
    """
    if fs <= 0 or duration <= 0:
        raise ValueError("fs and duration must be positive")
    if quad_variance <= 0:
        raise ValueError("quad_variance must be positive")
    if electronic_noise_variance < 0:
        raise ValueError("electronic_noise_variance cannot be negative")
    n = int(round(fs * duration))
    if n < 2**10:
        raise ValueError("fs * duration must be at least 2^10 samples")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = rng.normal(0.0, np.sqrt(quad_variance), size=n)
    if electronic_noise_variance > 0.0:
        values = values + rng.normal(0.0, np.sqrt(electronic_noise_variance), size=n)
    if drift_amplitude > 0.0:
        if drift_timescale <= 0:
            raise ValueError("drift_timescale must be positive")
        decay = np.exp(-1.0 / (fs * drift_timescale))
        kick = drift_amplitude * np.sqrt(1.0 - decay**2)
        shocks = rng.normal(0.0, 1.0, size=n)
        # AR(1) recursion drift[k] = decay * drift[k - 1] + kick * shocks[k],
        # started from the stationary distribution
        innovations = kick * shocks
        innovations[0] = drift_amplitude * shocks[0]
        values = values + lfilter([1.0], [1.0, -decay], innovations)
    return PhotocurrentTrace(dt=1.0 / fs, values=values)


@dataclass(frozen=True)
class PowerSpectrum:
    """Welch power curve of a photocurrent, in quadrature-variance units.

    Normalized so that white noise of per-sample variance V has a flat
    floor at V, independent of the sampling rate; the SQL floor is 1/2.
    """

    freqs: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", _readonly(self.freqs))
        object.__setattr__(self, "power", _readonly(self.power))

    def band_mean(self, f_lo: float, f_hi: float) -> float:
        sel = (self.freqs >= f_lo) & (self.freqs <= f_hi)
        if not np.any(sel):
            raise ValueError("no spectrum bins in the requested band")
        return float(np.mean(self.power[sel]))


@dataclass(frozen=True)
class NoiseSpectrum:
    """Squeezed / antisqueezed variance curves V-(nu) <= V+(nu) on a grid."""

    freqs: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray
    meta: dict = field(default_factory=dict)

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


def save_noise_spectrum_csv(spectrum_: NoiseSpectrum, path):
    _save_csv(
        path, ["freq_hz", "v_plus", "v_minus"], spectrum_.freqs, spectrum_.v_plus, spectrum_.v_minus
    )


def save_power_spectrum_csv(spectrum_: PowerSpectrum, path):
    _save_csv(path, ["freq_hz", "power"], spectrum_.freqs, spectrum_.power)


def spectrum(trace: PhotocurrentTrace, n_segments: int = 16) -> PowerSpectrum:
    """Welch-averaged power spectrum in quadrature-variance units."""
    if n_segments < 4:
        raise ValueError("need at least 4 Welch segments")
    nperseg = trace.values.size // n_segments
    if nperseg < 16:
        raise ValueError("trace too short for the requested segment count")
    freqs, psd = welch(
        trace.values, fs=trace.fs, nperseg=nperseg, window="hann", detrend=False
    )
    return PowerSpectrum(freqs=freqs, power=psd * trace.fs / 2.0)


def sideband_quadratures(trace: PhotocurrentTrace, freq_hz: float) -> tuple[float, float]:
    """Real and imaginary parts of the photocurrent FFT bin at freq_hz.

    Normalized so that a white SQL trace gives both components variance
    1/2 (across repeated traces); they are the sum/difference sideband
    quadratures of the +/- freq_hz modes, and both drop below 1/2 for a
    time-domain-squeezed input.
    """
    n = trace.values.size
    k = int(round(freq_hz * n * trace.dt))
    if not 1 <= k < n // 2:
        raise ValueError("sideband frequency outside the resolvable range")
    bin_value = np.fft.rfft(trace.values)[k]
    scale = np.sqrt(2.0 / n)
    return float(scale * bin_value.real), float(scale * bin_value.imag)


# -- Wigner tomography (filtered backprojection) ------------------------------


def wigner_grid(extent: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square (x, p) grid: returns (points (n*n, 2), x axis, p axis)."""
    if not (np.isfinite(extent) and extent > 0):
        raise ValueError(f"grid extent must be finite and positive, got {extent}")
    axis = np.linspace(-extent, extent, n)
    xx, pp = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), pp.ravel()]), axis, axis


def save_wigner_csv(points: np.ndarray, values: np.ndarray, path):
    _save_csv(path, ["x", "p", "w"], *np.asarray(points).T, values)


def _phase_groups(dataset: QuadratureDataset):
    order = np.argsort(dataset.thetas, kind="stable")
    thetas = dataset.thetas[order]
    xs = dataset.xs[order]
    edges = np.flatnonzero(np.abs(np.diff(thetas)) > 1e-12) + 1
    groups = []
    for block_t, block_x in zip(np.split(thetas, edges), np.split(xs, edges)):
        groups.append((float(block_t[0]), block_x))
    return groups


def default_filter_cutoff(dataset: QuadratureDataset) -> float:
    """Default tomography filter cutoff: 1.5x a Gaussian-matched estimate.

    The estimate is sqrt(ln(N) / V_min), the frequency where a Gaussian
    marginal of the smallest observed variance V_min decays to 1/N of its
    peak in the characteristic-function domain; beyond it, the sample
    noise dominates the signal.
    """
    groups = _phase_groups(dataset)
    per_phase = [float(np.var(xs)) for _, xs in groups if xs.size > 1]
    v_min = min(per_phase) if per_phase else float(np.var(dataset.xs))
    v_min = max(v_min, 1e-3)
    return 1.5 * np.sqrt(np.log(max(len(dataset), 2)) / v_min)


def _ramlak_kernel(t: np.ndarray, kc: float) -> np.ndarray:
    """Integral of |k| e^{ikt} over |k| <= kc."""
    u = kc * t
    small = np.abs(u) < 1e-4
    safe = np.where(small, 1.0, t)
    out = 2.0 * (u * np.sin(u) + np.cos(u) - 1.0) / safe**2
    return np.where(small, kc**2 * (1.0 - u**2 / 4.0), out)


def _coverage_weights(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Angular weight of each phase group: its Voronoi arc mod pi.

    keys are the groups' phases reduced mod pi and counts their sample
    counts. Each distinct key owns half the gap to each neighbour on the
    circle of circumference pi, so the arcs sum to pi; groups sharing a
    key split its arc in proportion to their counts.
    """
    distinct, owner = np.unique(keys, return_inverse=True)
    gaps = np.diff(np.append(distinct, distinct[0] + np.pi))
    arcs = 0.5 * (gaps + np.roll(gaps, 1))
    return arcs[owner] * counts / np.bincount(owner, weights=counts)[owner]


def reconstruct_wigner(
    dataset: QuadratureDataset, grid, filter_cutoff: float | None = None
) -> np.ndarray:
    """Filtered-backprojection (inverse Radon) Wigner estimate.

    grid is an (M, 2) array of (x, p) points. Requires at least 12
    distinct phases modulo pi; each phase is weighted by the arc of phase
    it covers mod pi (half the gap to each neighbour), so unevenly spaced
    phases still integrate over the half circle. filter_cutoff bounds the
    Ram-Lak ramp filter in the characteristic-function domain; by default
    it is chosen from the sample variance (see default_filter_cutoff).

    The exact estimate sums the kernel over every (point, sample) pair.
    Instead, each phase's samples are binned with linear (cloud-in-cell)
    weights on a uniform grid of width dx = 1 / (20 kc) that spans the
    samples and every s = x cos(theta) + p sin(theta), convolved with the
    sampled kernel by a zero-padded FFT, and read at s by four-point cubic
    interpolation. Binning smooths each sample by a hat of variance
    dx^2 / 6; the sampled kernel is sharpened by the matching
    (dx^2 / 12) K'' to cancel that bias. Measured against the exact sum,
    max |dW| <= 2e-5 of the peak for 24 x 1000 squeezed samples on a
    41 x 41 grid, and <= 9e-5 with a sample at x = 50 and kc = 40. Cost
    is O(phases * (B log B + M) + samples) for B bins and M points, and
    the working memory O(B + M), where B = 20 kc * (span of samples and s).
    """
    points = _phase_space_points(grid, 2)
    groups = _phase_groups(dataset)
    keys = np.round(np.mod([t for t, _ in groups], np.pi), 9)
    distinct = np.unique(keys).size
    if distinct < 12:
        raise ValueError(
            f"insufficient phase coverage: {distinct} distinct phases, need >= 12"
        )
    kc = default_filter_cutoff(dataset) if filter_cutoff is None else float(filter_cutoff)
    if kc <= 0:
        raise ValueError("filter cutoff must be positive")
    weights = _coverage_weights(keys, np.array([xs.size for _, xs in groups], dtype=float))
    # one bin grid for every phase: |s| never exceeds the largest point radius
    radius = float(np.max(np.hypot(points[:, 0], points[:, 1])))
    dx = 1.0 / (20.0 * kc)
    # two spare bins at each end keep the cubic stencil inside the grid
    lo = min(float(np.min(dataset.xs)), -radius) - 2.0 * dx
    n_bins = int((max(float(np.max(dataset.xs)), radius) - lo) / dx) + 4
    n_fft = 1 << (2 * n_bins - 2).bit_length()
    lags = np.minimum(np.arange(n_fft), n_fft - np.arange(n_fft))
    kernel = _ramlak_kernel(dx * lags, kc)
    kernel -= (np.roll(kernel, 1) - 2.0 * kernel + np.roll(kernel, -1)) / 12.0
    kernel_hat = np.fft.rfft(kernel)
    accum = np.zeros(points.shape[0])
    for (theta, xs), weight in zip(groups, weights):
        u = (xs - lo) / dx
        left = u.astype(np.intp)
        frac = u - left
        hist = np.bincount(left, 1.0 - frac, n_bins)
        hist += np.bincount(left + 1, frac, n_bins)
        filtered = np.fft.irfft(np.fft.rfft(hist, n_fft) * kernel_hat, n_fft)
        s = points[:, 0] * np.cos(theta) + points[:, 1] * np.sin(theta)
        accum += _cubic_interp(filtered, (s - lo) / dx) * (weight / xs.size)
    return accum / (4.0 * np.pi**2)


def _cubic_interp(values: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Four-point Lagrange interpolation of values at fractional indices v >= 1."""
    i = v.astype(np.intp)
    t = v - i
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0 * values[i - 1]
        + (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0 * values[i]
        - (t + 1.0) * t * (t - 2.0) / 2.0 * values[i + 1]
        + (t + 1.0) * t * (t - 1.0) / 6.0 * values[i + 2]
    )


def moments_from_wigner(points: np.ndarray, values: np.ndarray):
    """Mean vector and covariance of a sampled Wigner surface.

    Treats the (possibly slightly negative) reconstruction as a density.
    Far-field reconstruction noise enters with x^2 weight, so prefer
    wigner_axis_ratio for noisy tomographic estimates.
    """
    weights = values / np.sum(values)
    mean = weights @ points
    centered = points - mean
    cov = (centered * weights[:, None]).T @ centered
    return mean, cov


def variance_profile(dataset: QuadratureDataset):
    """Fit V(theta) = a + b cos(2 theta) + c sin(2 theta) to the per-phase
    sample variances.

    Returns (v_min, v_max, phi_min): the extremal quadrature variances and
    the phase of the squeezed axis. This is the standard sinusoidal law
    for Gaussian states and a good first-pass summary for any dataset.
    """
    groups = _phase_groups(dataset)
    if len(groups) < 3:
        raise ValueError("need at least 3 phases to fit the variance profile")
    thetas = np.array([t for t, _ in groups])
    variances = np.array([np.var(xs) for _, xs in groups])
    design = np.column_stack(
        [np.ones_like(thetas), np.cos(2 * thetas), np.sin(2 * thetas)]
    )
    (a, b, c), *_ = np.linalg.lstsq(design, variances, rcond=None)
    amp = np.hypot(b, c)
    phi_min = 0.5 * np.arctan2(-c, -b)
    return float(a - amp), float(a + amp), float(phi_min)


def mean_profile(dataset: QuadratureDataset) -> np.ndarray:
    """Phase-space mean (x, p) fitted from the per-phase sample means.

    Uses <X_theta> = mx cos(theta) + mp sin(theta).
    """
    groups = _phase_groups(dataset)
    if len(groups) < 2:
        raise ValueError("need at least 2 phases to fit the mean")
    thetas = np.array([t for t, _ in groups])
    means = np.array([np.mean(xs) for _, xs in groups])
    design = np.column_stack([np.cos(thetas), np.sin(thetas)])
    fit, *_ = np.linalg.lstsq(design, means, rcond=None)
    return fit


def wigner_axis_ratio(
    dataset: QuadratureDataset, points: np.ndarray, values: np.ndarray
) -> float:
    """Antisqueezed/squeezed axis ratio of a reconstructed Wigner surface.

    Second moments of the reconstruction under a Gaussian window three
    times wider than the state (window shape taken from the dataset's
    variance profile). A window proportional to the state's covariance
    shrinks both principal variances by the same factor, so the ratio is
    unbiased while far-field reconstruction noise is suppressed.
    """
    v_min, v_max, phi = variance_profile(dataset)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    sigma_w = 9.0 * rot @ np.diag([max(v_min, 1e-3), max(v_max, 1e-3)]) @ rot.T
    prec_w = np.linalg.inv(sigma_w)
    pts = np.asarray(points, dtype=float) - mean_profile(dataset)
    window = np.exp(-0.5 * np.einsum("mi,ij,mj->m", pts, prec_w, pts))
    weighted = np.asarray(values) * window
    _, cov = moments_from_wigner(pts, weighted)
    eigs = np.sort(np.linalg.eigvalsh(cov))
    if eigs[0] <= 0:
        raise ValueError("windowed moments not positive definite; surface too noisy")
    return float(np.sqrt(eigs[1] / eigs[0]))


