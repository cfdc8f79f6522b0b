"""Measurement layer: quadrature sampling, photocurrent spectra with
technical noise, and Wigner-function tomography.

The local oscillator is treated as a classical number throughout: a
quadrature sample at phase theta is a draw from the marginal of
X_theta = X cos(theta) + P sin(theta), and the standard quantum limit
(SQL) is the vacuum variance 1/2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fock import FockState, _mode_rows
from .gaussian import GaussianState, _phase_space_points, _readonly
from .gaussian import quadrature_mean, quadrature_variance

SQL_VARIANCE = 0.5

TWO_PI = 2.0 * np.pi

_CSV_CHUNK = 1024  # rows per write in write_table

# reconstruct_wigner sums at most this many far samples directly
_DIRECT_MAX = 64

# _ar1 warms each lane up over this many time constants
_AR1_WARM_UP = 60.0


@dataclass(frozen=True)
class QuadratureDataset:
    """Homodyne measurement record: (phase, quadrature value) samples."""

    thetas: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        thetas = _readonly(np.mod(self.thetas, TWO_PI))
        xs = _readonly(self.xs)
        if thetas.shape != xs.shape or thetas.ndim != 1 or xs.size == 0:
            raise ValueError(f"thetas and xs must be equal-length, non-empty 1-d arrays, got {thetas.shape}, {xs.shape}")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(xs))):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "xs", xs)

    def __len__(self) -> int:
        return self.xs.size


def write_table(path, header: list[str], columns, fmt: str = "csv") -> Path:
    """Write equal-length 1-d columns under a header; returns the path written.

    fmt "csv" writes path.csv with LF line ends, float columns as
    repr(float) and other columns as str, a chunk of rows at a time, so the
    text of a whole column is never held at once. fmt "json" writes
    path.json as a list of {header: value} objects. Raises ValueError,
    before opening the file, unless there is one 1-d column per header
    name and all columns have the same length.
    """
    columns = [np.asarray(col) for col in columns]
    shapes = [col.shape for col in columns]
    n_rows = shapes[0][0] if shapes and len(shapes[0]) == 1 else 0
    if fmt not in ("csv", "json") or len(shapes) != len(header) or set(shapes) - {(n_rows,)}:
        raise ValueError(
            f"cannot write {fmt!r} table {header} from columns of shapes {shapes}: "
            "need csv or json, and one 1-d column per name, all of one length"
        )
    path = Path(path).with_suffix(f".{fmt}")
    if fmt == "json":
        rows = [dict(zip(header, row)) for row in zip(*(col.tolist() for col in columns))]
        path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", newline="")
        return path
    texts = [repr if col.dtype.kind == "f" else str for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK):
            chunk = slice(start, start + _CSV_CHUNK)
            parts = (map(text, col[chunk].tolist()) for text, col in zip(texts, columns))
            fh.write("\n".join(map(",".join, zip(*parts))) + "\n")
    return path


def save_dataset_csv(dataset: QuadratureDataset, path) -> Path:
    return write_table(path, ["theta", "x"], [dataset.thetas, dataset.xs])


def load_dataset_csv(path) -> QuadratureDataset:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return QuadratureDataset(thetas=data[:, 0], xs=data[:, 1])


def hermite_functions(n_max: int, xs: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator eigenfunctions phi_0..phi_{n_max-1} on a grid.

    Uses the three-term recurrence in n, stable for these normalized functions; rows are n, columns follow xs.
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
    multimode states, where the other modes are summed over). The sampler
    tests draw their reference distribution from it.
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

    The Hermite basis and the mode-major amplitudes do not depend on the phase, so they are built
    once; per phase, two real products of the table with the rotated amplitudes' real and imaginary
    parts (no complex copy of the table) give re^2 + im^2, summed over the other modes' branches.
    """
    d = state.cutoff
    amps = _mode_rows(state, mode)
    waves = hermite_functions(d, xs)

    def pdf(theta: float) -> np.ndarray:
        rotated = amps * np.exp(-1j * theta * np.arange(d))[:, None]
        re, im = waves.T @ rotated.real, waves.T @ rotated.imag
        return np.einsum("xk,xk->x", re, re) + np.einsum("xk,xk->x", im, im)

    return pdf


def sample_quadratures(
    state, mode: int, thetas, n_per_theta: int, seed: int = 0
) -> QuadratureDataset:
    """Draw homodyne samples at each phase; reproducible for a fixed seed.

    Each phase gets its own deterministic child generator, so results do
    not depend on evaluation order.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.size == 0 or n_per_theta < 1:
        raise ValueError(f"need at least one phase and n_per_theta >= 1, got {thetas.size} and {n_per_theta}")
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
            u = rng.uniform(size=n_per_theta)
            order, xs = np.argsort(u), np.empty(n_per_theta)
            xs[order] = np.interp(u[order], cdf, grid)  # sorted points interpolate faster; xs keeps the draw order
            blocks.append(xs)
    else:
        raise TypeError("state must be a GaussianState or FockState")
    return QuadratureDataset(thetas=all_thetas, xs=np.concatenate(blocks))


@dataclass(frozen=True)
class PhotocurrentTrace:
    """A sampled homodyne photocurrent record."""

    dt: float
    values: np.ndarray

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
    given = {
        "quad_variance": quad_variance,
        "drift_amplitude": drift_amplitude,
        "drift_timescale": drift_timescale,
        "fs": fs,
        "duration": duration,
        "electronic_noise_variance": electronic_noise_variance,
    }
    bad = [f"{name}={value}" for name, value in given.items() if not np.isfinite(value)]
    if bad:
        raise ValueError(f"drift trace parameters must be finite, got {', '.join(bad)}")
    if fs <= 0 or duration <= 0:
        raise ValueError("fs and duration must be positive")
    if drift_amplitude < 0:
        raise ValueError(f"drift_amplitude cannot be negative, got {drift_amplitude}")
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
        # a Python float: the plain loop in _ar1 runs 1.4x slower on a numpy scalar
        values = values + _ar1(innovations, float(decay))
    return PhotocurrentTrace(dt=1.0 / fs, values=values)


def _ar1(x: np.ndarray, a: float) -> np.ndarray:
    """y[k] = a y[k-1] + x[k] from y[-1] = 0, for 0 <= a <= 1.

    The result is bit-identical to the sequential loop (and so to
    scipy.signal.lfilter([1], [1, -a], x)), and each call checks that it
    is. The trace is cut into blocks of warm = ceil(60 / -ln a) samples,
    and lane b runs the recursion from 0 over the warm samples before block
    b, then over block b; all lanes take each step together, as two ufunc
    calls. Lane 0 starts exact. Lane b is accepted only if its value at the
    end of its warm-up equals lane b-1's last value bit for bit, because
    from there it repeats the loop's operations on the loop's numbers;
    otherwise block b is rerun one sample at a time from that value. After
    60 time constants the zero start is e^-60 of the state, below its
    rounding, and no lane has been seen to need a rerun. The lanes take
    2 * warm steps whatever the length, and measured slower than the plain
    loop below about 32 blocks, so shorter traces run the loop. A
    200k-sample trace at a = e^(-1/8) takes about 4-7 ms (the loop 16-34
    ms, lfilter 1.2 ms).
    """
    n = x.size
    # a = 0 forgets the state at once, a = 1 never does
    warm = 1 if a == 0.0 else n if a >= 1.0 else math.ceil(_AR1_WARM_UP / -math.log(a))
    if n < 32 * warm:
        y = 0.0
        return np.array([y := a * y + v for v in x.tolist()])
    n_lanes = -(-n // warm)
    # column b + 1 of blocks is block b; column 0 is the zero start of lane 0
    blocks = np.zeros((n_lanes + 1) * warm)
    blocks[warm : warm + n] = x
    blocks = blocks.reshape(n_lanes + 1, warm).T.copy()
    start = np.zeros(n_lanes)
    for step in blocks[:, :-1]:
        np.multiply(start, a, out=start)
        np.add(start, step, out=start)
    lanes = np.empty((warm, n_lanes))
    prev = start
    for row, step in zip(lanes, blocks[:, 1:]):
        np.multiply(prev, a, out=row)
        np.add(row, step, out=row)
        prev = row
    # lane b is exact once its warm-up ends on lane b - 1's last value; from
    # the first lane that does not, each lane is checked against a settled one
    late = np.flatnonzero(start[1:] != lanes[-1, :-1])
    for b in range(late[0] + 1 if late.size else n_lanes, n_lanes):
        if start[b] != lanes[-1, b - 1]:
            y = float(lanes[-1, b - 1])
            lanes[:, b] = [y := a * y + v for v in blocks[:, b + 1].tolist()]
    return lanes.T.ravel()[:n]


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


def spectrum(trace: PhotocurrentTrace, n_segments: int = 16) -> PowerSpectrum:
    """Welch-averaged power spectrum in quadrature-variance units.

    Welch's method with nperseg = samples // n_segments, half-overlapping
    segments, a periodic Hann window and no detrending. Every operation
    follows the order of scipy.signal.welch in scipy 1.17, so the result
    is bit-identical to welch(..., window="hann", detrend=False) * fs / 2:
    the window is scaled by a sequential (not pairwise) sum of its squares,
    the segments go through one batched rfft, and the mean over segments
    runs along contiguous rows. tests/test_homodyne.py checks the identity
    with np.array_equal for odd and even segment lengths.
    """
    if n_segments < 4:
        raise ValueError("need at least 4 Welch segments")
    values, fs = trace.values, trace.fs
    nperseg = values.size // n_segments
    if nperseg < 16:
        raise ValueError("trace too short for the requested segment count")
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1))[:-1]
    # in scipy's order: `* fs` in place of `/ (1.0 / fs)` rounds differently for some fs
    window = window * (1.0 / np.sqrt(np.cumsum(window**2)[-1] / (1.0 / fs)))
    hop = nperseg - nperseg // 2
    n_seg = (values.size - nperseg // 2) // hop
    segments = np.lib.stride_tricks.sliding_window_view(values, nperseg)[::hop][:n_seg]
    bins = np.fft.rfft(segments * window)
    power = bins.real**2 + bins.imag**2
    # one-sided: every bin but DC (and Nyquist, for even nperseg) counts twice
    power[:, 1 : -1 if nperseg % 2 == 0 else None] *= 2.0
    psd = np.ascontiguousarray(power.T).mean(axis=-1)
    return PowerSpectrum(freqs=np.fft.rfftfreq(nperseg, 1.0 / fs), power=psd * fs / 2.0)


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
    if n < 2:
        raise ValueError(f"grid size must be at least 2 points per axis, got {n}")
    axis = np.linspace(-extent, extent, n)
    xx, pp = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), pp.ravel()]), axis, axis


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
    binned samples and every s = x cos(theta) + p sin(theta), convolved
    with the sampled kernel by a zero-padded FFT, and read at s by
    four-point cubic interpolation. Binning smooths each sample by a hat
    of variance dx^2 / 6; the sampled kernel is sharpened by the matching
    (dx^2 / 12) K'' to cancel that bias. A sample is binned when |x| is
    within the reach: twice the largest point radius, or more if needed
    so that at most 64 samples lie beyond it. Those few far samples are
    added by the exact kernel sum, so an outlier cannot stretch the bin
    grid. Measured against the exact sum, max |dW| <= 2e-5 of the peak
    for 24 x 1000 squeezed samples on a 41 x 41 grid, and <= 9e-5 with a
    sample at x = 50 and kc = 40. Cost is O(phases * (B log B + M) +
    samples + 64 M) for B bins and M points, and the working memory
    O(B + M), where B = 20 kc * (span of the binned samples and s).
    """
    points = _phase_space_points(grid, 2)
    groups = _phase_groups(dataset)
    keys = np.round(np.mod([t for t, _ in groups], np.pi), 9)
    # not np.unique, whose no-index path imports numpy.ma (about 8 ms cold)
    distinct = np.count_nonzero(np.diff(np.sort(keys))) + 1
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
    magnitudes = np.abs(dataset.xs)
    rank = max(magnitudes.size - 1 - _DIRECT_MAX, 0)
    reach = max(2.0 * radius, float(np.partition(magnitudes, rank)[rank]))
    binned = dataset.xs[magnitudes <= reach]
    dx = 1.0 / (20.0 * kc)
    # two spare bins at each end keep the cubic stencil inside the grid
    lo = min(float(np.min(binned)), -radius) - 2.0 * dx
    n_bins = int((max(float(np.max(binned)), radius) - lo) / dx) + 4
    n_fft = 1 << (2 * n_bins - 2).bit_length()
    lags = np.minimum(np.arange(n_fft), n_fft - np.arange(n_fft))
    kernel = _ramlak_kernel(dx * lags, kc)
    kernel -= (np.roll(kernel, 1) - 2.0 * kernel + np.roll(kernel, -1)) / 12.0
    kernel_hat = np.fft.rfft(kernel)
    accum = np.zeros(points.shape[0])
    for (theta, xs), weight in zip(groups, weights):
        near = np.abs(xs) <= reach
        u = (xs[near] - lo) / dx
        left = u.astype(np.intp)
        frac = u - left
        hist = np.bincount(left, 1.0 - frac, n_bins)
        hist += np.bincount(left + 1, frac, n_bins)
        filtered = np.fft.irfft(np.fft.rfft(hist, n_fft) * kernel_hat, n_fft)
        s = points[:, 0] * np.cos(theta) + points[:, 1] * np.sin(theta)
        total = _cubic_interp(filtered, (s - lo) / dx)
        for x in xs[~near]:
            total += _ramlak_kernel(s - x, kc)
        accum += total * (weight / xs.size)
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

    Uses <X_theta> = mx cos(theta) + mp sin(theta). wigner_axis_ratio
    centres its window on this fit.
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
        # a grid coarser than the squeezed width cannot resolve it, however clean the samples
        step = max(np.diff(np.sort(axis)).max(initial=0.0) for axis in np.asarray(points).T)
        cause = "surface too noisy"
        if 0.0 < v_min < step * step:
            width = f"the squeezed width sqrt(v_min) = {np.sqrt(v_min):.3g}"
            cause = f"grid step {step:.3g} is wider than {width}"
        raise ValueError(f"windowed moments not positive definite; {cause}")
    return float(np.sqrt(eigs[1] / eigs[0]))


