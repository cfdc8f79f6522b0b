"""Measurement layer: samplers, spectra, tomography."""

import math
import time

import numpy as np
import pytest

from sqzlab import fock, homodyne
from sqzlab.gaussian import displace, squeeze, vacuum, wigner_gaussian
from sqzlab.homodyne import (
    PhotocurrentTrace,
    _ramlak_kernel,
    QuadratureDataset,
    default_filter_cutoff,
    load_dataset_csv,
    photocurrent_with_drift,
    quadrature_pdf,
    reconstruct_wigner,
    sample_quadratures,
    save_dataset_csv,
    sideband_quadratures,
    spectrum,
    variance_profile,
    wigner_axis_ratio,
    wigner_grid,
    write_table,
)
from sqzlab.protocols import make_heralded_photon, teleport_wigner_check

TEN_DB_R = math.log(10.0) / 2.0


def variance_bound(v, n, n_sigma=5.0):
    """n_sigma statistical half-width of a sample-variance estimate."""
    return n_sigma * v * math.sqrt(2.0 / n)


class TestSampler:
    def test_vacuum_variance(self):
        ds = sample_quadratures(vacuum(1), 0, [0.0], 100_000, seed=11)
        assert np.var(ds.xs) == pytest.approx(0.5, abs=0.01)

    def test_ten_db_squeezed_variance(self):
        s = squeeze(vacuum(1), 0, TEN_DB_R)
        ds = sample_quadratures(s, 0, [0.0], 100_000, seed=12)
        assert np.var(ds.xs) == pytest.approx(0.05, abs=0.003)

    def test_coherent_mean_traces_cosine(self):
        alpha = 1.2
        state = displace(vacuum(1), 0, alpha)
        thetas = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
        n = 4000
        ds = sample_quadratures(state, 0, thetas, n, seed=13)
        xs = ds.xs.reshape(16, n)
        bound = 5.0 * math.sqrt(0.5 / n)
        for theta, block in zip(thetas, xs):
            assert abs(np.mean(block) - math.sqrt(2) * alpha * math.cos(theta)) < bound

    def test_fock_sampler_single_photon_moments(self):
        one = fock.from_amplitudes([0, 1] + [0] * 8)
        ds = sample_quadratures(one, 0, [0.7], 100_000, seed=14)
        assert np.mean(ds.xs) == pytest.approx(0.0, abs=5 * math.sqrt(1.5 / 100_000))
        assert np.var(ds.xs) == pytest.approx(1.5, abs=variance_bound(1.5, 100_000))

    def test_fock_sampler_matches_gaussian_engine(self):
        r = 0.6
        sf = fock.squeezed_vacuum_fock(r, 40)
        ds = sample_quadratures(sf, 0, [0.0], 100_000, seed=15)
        target = math.exp(-2 * r) / 2
        assert np.var(ds.xs) == pytest.approx(target, abs=variance_bound(target, 100_000))

    def test_reproducible_for_fixed_seed(self):
        s = squeeze(vacuum(1), 0, 0.4)
        a = sample_quadratures(s, 0, [0.0, 1.0], 50, seed=3)
        b = sample_quadratures(s, 0, [0.0, 1.0], 50, seed=3)
        np.testing.assert_array_equal(a.xs, b.xs)

    def test_unnormalized_state_rejected(self):
        # the sampler reads the amplitudes as given: FockState refuses any other norm
        with pytest.raises(ValueError, match="normalized"):
            fock.FockState(amps=np.array([0.5, 0.0, 0.0], dtype=complex))

    @pytest.mark.parametrize("entangled", [False, True])
    def test_fock_sampler_is_inverse_cdf_of_pdf(self, entangled):
        # the sampler's shared Hermite basis gives bit-identical samples
        # to inverse-CDF draws from quadrature_pdf at each phase
        if entangled:
            state, mode = fock.tmsv_fock(0.5, 10), 1
        else:
            state, mode = fock.from_amplitudes([0, 1] + [0] * 10), 0
        thetas = np.array([0.0, 0.4, 1.3, 2.9])
        ds = sample_quadratures(state, mode, thetas, 500, seed=16)
        span = np.sqrt(2.0 * state.cutoff) + 5.0
        grid = np.linspace(-span, span, 4097)
        dx = grid[1] - grid[0]
        children = np.random.SeedSequence(16).spawn(thetas.size)
        expected = []
        for theta, child in zip(thetas, children):
            pdf = quadrature_pdf(state, mode, theta, grid)
            cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)))
            cdf /= cdf[-1]
            u = np.random.default_rng(child).uniform(size=500)
            expected.append(np.interp(u, cdf, grid))
        assert np.array_equal(ds.xs, np.concatenate(expected))

    def test_theta_stored_mod_two_pi(self):
        ds = sample_quadratures(vacuum(1), 0, [2 * math.pi + 0.25], 5, seed=0)
        assert np.all(np.abs(ds.thetas - 0.25) < 1e-12)


class TestQuadraturePdf:
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2])
    def test_normalized(self, theta):
        st = fock.squeezed_vacuum_fock(0.5, 30)
        xs = np.linspace(-10, 10, 2001)
        pdf = quadrature_pdf(st, 0, theta, xs)
        assert np.trapezoid(pdf, xs) == pytest.approx(1.0, abs=1e-8)

    def test_phase_periodicity_mirror(self):
        # the distribution at theta + pi is the x -> -x mirror image
        st = fock.from_amplitudes(
            np.asarray(fock.coherent_fock(0.8, 25).amps)
            + 0.5 * np.asarray(fock.squeezed_vacuum_fock(0.4, 25).amps)
        )
        xs = np.linspace(-8, 8, 801)
        for theta in (0.0, 0.9):
            a = quadrature_pdf(st, 0, theta, xs)
            b = quadrature_pdf(st, 0, theta + math.pi, xs)
            np.testing.assert_allclose(a, b[::-1], atol=1e-10)

    def test_gaussian_matches_fock_for_coherent(self):
        alpha = 0.9
        xs = np.linspace(-6, 6, 601)
        g = quadrature_pdf(displace(vacuum(1), 0, alpha), 0, 0.4, xs)
        f = quadrature_pdf(fock.coherent_fock(alpha, 40), 0, 0.4, xs)
        np.testing.assert_allclose(g, f, atol=1e-8)

    @staticmethod
    def complex_marginal(state, mode, theta, xs):
        # the marginal as one complex product of the Hermite table with the
        # rotated amplitudes, |branch|^2 summed over the other modes
        d = state.cutoff
        rows = np.moveaxis(np.asarray(state.amps), mode, 0).reshape(d, -1)
        branches = homodyne.hermite_functions(d, xs).T @ (rows * np.exp(-1j * theta * np.arange(d))[:, None])
        return np.einsum("xk,xk->x", branches, branches.conj()).real

    # (state, mode, bound on |difference| over the peak)
    COMPLEX_PRODUCT_CASES = {
        # one nonzero amplitude, so each density is one product in any order: bit-equal
        "heralded-photon": lambda: (make_heralded_photon(0.05, 12)[0], 0, 0.0),
        # the real products sum their terms in another order: measured 6e-16
        # and 7e-16 of the peak on the entangled modes, 1.2e-15 on the
        # coherent state and 1.9e-15 on the displaced squeezed state
        "tmsv-mode-0": lambda: (fock.tmsv_fock(0.5, 20), 0, 1e-15),
        "tmsv-mode-1": lambda: (fock.tmsv_fock(0.7, 24), 1, 1e-15),
        "coherent": lambda: (fock.coherent_fock(0.9 - 0.4j, 30), 0, 4e-15),
        "displaced-squeezed": lambda: (fock.displace_fock(fock.squeezed_vacuum_fock(0.5, 30), 0, 0.8 + 0.4j), 0, 4e-15),
    }

    @pytest.mark.parametrize("name", COMPLEX_PRODUCT_CASES)
    def test_matches_complex_product(self, name):
        state, mode, bound = self.COMPLEX_PRODUCT_CASES[name]()
        xs = np.linspace(-9.0, 9.0, 4097)
        for theta in np.linspace(0.0, math.pi, 13):
            ref = self.complex_marginal(state, mode, theta, xs)
            assert np.max(np.abs(quadrature_pdf(state, mode, theta, xs) - ref)) <= bound * np.max(ref)

    def test_entangled_mode_marginal(self):
        # reduced marginal of one TMSV mode is the thermal Gaussian
        r = 0.5
        t = fock.tmsv_fock(r, 30)
        xs = np.linspace(-8, 8, 1601)
        pdf = quadrature_pdf(t, 0, 0.0, xs)
        var = np.trapezoid(pdf * xs**2, xs)
        assert var == pytest.approx(math.cosh(2 * r) / 2, abs=1e-6)


class TestDriftAndSpectrum:
    def test_no_drift_spectrum_flat(self):
        trace = photocurrent_with_drift(0.5, 0.0, 2e-6, 4e6, 0.05, seed=31)
        spec = spectrum(trace, 48)
        band = spec.power[(spec.freqs > 1e4) & (spec.freqs < 1.9e6)]
        assert np.max(band) / np.min(band) < 3.0

    def test_drift_confined_to_low_frequencies(self):
        trace = photocurrent_with_drift(0.5, 0.75, 2e-6, 4e6, 0.1, seed=32)
        spec = spectrum(trace, 96)
        high_band = spec.band_mean(1e6, 2e6)
        assert abs(10 * math.log10(high_band / 0.5)) < 0.5
        # while the total time-domain variance is far above the SQL
        assert 10 * math.log10(np.var(trace.values) / 0.5) > 3.0
        # and the low-frequency end is visibly polluted
        low_band = spec.band_mean(0.0, 1e5)
        assert low_band > 2.0 * 0.5

    def test_squeezed_floor_in_db(self):
        r = 0.8
        v = math.exp(-2 * r) / 2
        trace = photocurrent_with_drift(v, 0.0, 1e-6, 4e6, 0.05, seed=33)
        spec = spectrum(trace, 48)
        floor_db = 10 * math.log10(spec.band_mean(1e5, 1.9e6) / 0.5)
        assert floor_db == pytest.approx(-20.0 * r / math.log(10.0), abs=0.3)

    def test_sql_floor_normalization(self):
        trace = photocurrent_with_drift(0.5, 0.0, 1e-6, 2e6, 0.05, seed=34)
        spec = spectrum(trace, 32)
        assert spec.band_mean(1e4, 0.9e6) == pytest.approx(0.5, rel=0.10)

    @pytest.mark.parametrize("v", [0.1, 0.8])
    def test_floor_tracks_variance(self, v):
        trace = photocurrent_with_drift(v, 0.0, 1e-6, 2e6, 0.05, seed=35)
        spec = spectrum(trace, 32)
        assert spec.band_mean(1e4, 0.9e6) == pytest.approx(v, rel=0.10)

    def test_floor_invariant_under_sampling_rate(self):
        floors = []
        for fs in (2e6, 8e6):
            trace = photocurrent_with_drift(0.3, 0.0, 1e-6, fs, 0.04, seed=36)
            spec = spectrum(trace, 32)
            floors.append(spec.band_mean(1e4, 0.45 * fs))
        assert floors[0] == pytest.approx(floors[1], rel=0.1)
        assert floors[0] == pytest.approx(0.3, rel=0.1)

    def test_electronic_noise_floor_option(self):
        quiet = photocurrent_with_drift(0.5, 0.0, 1e-6, 2e6, 0.02, seed=37)
        noisy = photocurrent_with_drift(
            0.5, 0.0, 1e-6, 2e6, 0.02, seed=37, electronic_noise_variance=0.25
        )
        assert np.var(noisy.values) == pytest.approx(0.75, rel=0.05)
        assert np.var(quiet.values) == pytest.approx(0.5, rel=0.05)
        floor = spectrum(noisy, 32).band_mean(1e4, 0.9e6)
        assert floor == pytest.approx(0.75, rel=0.10)

    def test_drift_matches_reference_recursion(self):
        quad_variance, amplitude, tau, fs, duration = 0.4, 0.6, 2e-6, 4e6, 1.25e-3
        trace = photocurrent_with_drift(quad_variance, amplitude, tau, fs, duration, seed=38)
        n = int(round(fs * duration))
        rng = np.random.default_rng(np.random.SeedSequence(38))
        white = rng.normal(0.0, math.sqrt(quad_variance), size=n)
        decay = np.exp(-1.0 / (fs * tau))
        kick = amplitude * np.sqrt(1.0 - decay**2)
        shocks = rng.normal(0.0, 1.0, size=n)
        drift = np.empty(n)
        drift[0] = amplitude * shocks[0]
        for k in range(1, n):
            drift[k] = decay * drift[k - 1] + kick * shocks[k]
        assert n == 5000
        assert np.array_equal(trace.values, white + drift)

    @pytest.mark.parametrize(
        "samples, n_segments", [(1029, 5), (3001, 7), (4096, 4), (200000, 16), (200000, 48)]
    )
    def test_spectrum_is_scipy_welch_bit_for_bit(self, samples, n_segments):
        # the reference; spectrum follows the order of operations of scipy 1.17
        pytest.importorskip("scipy", minversion="1.17")
        from scipy.signal import welch

        trace = photocurrent_with_drift(0.4, 0.6, 2e-6, 1e6, samples * 1e-6, seed=samples)
        assert trace.values.size == samples
        freqs, psd = welch(
            trace.values, fs=trace.fs, nperseg=samples // n_segments, window="hann", detrend=False
        )
        spec = spectrum(trace, n_segments)
        assert np.array_equal(spec.freqs, freqs)
        assert np.array_equal(spec.power, psd * trace.fs / 2.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param({"drift_amplitude": math.nan}, "finite", id="nan-amplitude"),
            pytest.param({"drift_amplitude": -0.75}, "negative", id="negative-amplitude"),
            pytest.param({"electronic_noise_variance": math.nan}, "finite", id="nan-electronic"),
            pytest.param({"quad_variance": math.nan}, "finite", id="nan-variance"),
            pytest.param({"drift_timescale": math.nan}, "finite", id="nan-timescale"),
            pytest.param({"fs": math.inf}, "finite", id="inf-fs"),
        ],
    )
    def test_drift_rejects_bad_parameters(self, change, message):
        args = dict(quad_variance=0.5, drift_amplitude=0.75, drift_timescale=2e-6, fs=1e6, duration=2e-3)
        with pytest.raises(ValueError, match=message):
            photocurrent_with_drift(**{**args, **change})

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError, match="1024|2\\^10|short"):
            photocurrent_with_drift(0.5, 0.0, 1e-6, 1e4, 1e-3, seed=0)
        trace = photocurrent_with_drift(0.5, 0.0, 1e-6, 1e6, 2e-3, seed=0)
        with pytest.raises(ValueError, match="short"):
            spectrum(trace, 500)

    def test_sideband_equivalence(self):
        # a time-domain-squeezed record has both sideband quadratures
        # squeezed at once: Re and Im of the FFT bin both drop below 1/2
        v = math.exp(-1.0) / 2
        reps = 1000
        xp = np.empty(reps)
        xm = np.empty(reps)
        for k in range(reps):
            trace = photocurrent_with_drift(v, 0.0, 1e-6, 2e6, 1e-3, seed=1000 + k)
            xp[k], xm[k] = sideband_quadratures(trace, 3e5)
        bound = variance_bound(v, reps)
        assert np.var(xp) == pytest.approx(v, abs=bound)
        assert np.var(xm) == pytest.approx(v, abs=bound)
        assert np.var(xp) < 0.5 and np.var(xm) < 0.5

    def test_sideband_vacuum_normalization(self):
        reps = 1000
        xp = np.empty(reps)
        for k in range(reps):
            trace = photocurrent_with_drift(0.5, 0.0, 1e-6, 2e6, 1e-3, seed=5000 + k)
            xp[k], _ = sideband_quadratures(trace, 3e5)
        assert np.var(xp) == pytest.approx(0.5, abs=variance_bound(0.5, reps))


def _ar1_warm(a):
    """Block length of _ar1's lanes; infinite at a = 1, where nothing decays."""
    if a >= 1.0:
        return math.inf
    return 1 if a == 0.0 else math.ceil(homodyne._AR1_WARM_UP / -math.log(a))


def _ar1_sizes(a):
    """Both sides of the lanes-or-loop switch (where it is affordable), and 200k."""
    warm = _ar1_warm(a)
    edge = [32 * warm - 1, 32 * warm, 32 * warm + 1] if 32 * warm < 2_000_000 else []
    return [(a, n) for n in edge + [200_000]]


def _ar1_loop(x, a):
    out = np.empty_like(x)
    y = 0.0
    for k, v in enumerate(x.tolist()):
        y = a * y + v
        out[k] = y
    return out


@pytest.mark.parametrize(
    "a, n",
    [
        case
        for a in (0.0, 0.5, math.exp(-1 / 8), 0.999, 1.0 - 1e-6, 1.0)
        for case in _ar1_sizes(a)
    ],
)
def test_ar1_is_the_sequential_loop(a, n):
    x = np.random.default_rng(n).normal(0.0, 0.3, size=n)
    assert np.array_equal(homodyne._ar1(x, a), _ar1_loop(x, a))


def test_ar1_stays_exact_when_lanes_must_be_rerun(monkeypatch):
    # a 2-time-constant warm-up (17 samples) leaves the lanes apart, so the
    # check must catch them and rerun their blocks
    monkeypatch.setattr(homodyne, "_AR1_WARM_UP", 2.0)
    a = math.exp(-1 / 8)
    warm = _ar1_warm(a)
    x = np.random.default_rng(41).normal(size=200_000)
    exact = _ar1_loop(x, a)
    starts = [_ar1_loop(x[b * warm - warm : b * warm], a)[-1] for b in range(1, 100)]
    assert np.any(np.array(starts) != exact[warm - 1 : 99 * warm : warm])
    assert np.array_equal(homodyne._ar1(x, a), exact)


def exact_backprojection(ds, points, kc):
    """Direct sum of the Ram-Lak kernel over every (point, sample) pair.

    The reference that reconstruct_wigner's binned FFT approximates, for
    equally spaced phases (weight pi / phases each).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    thetas = np.unique(ds.thetas)
    accum = np.zeros(points.shape[0])
    for theta in thetas:
        xs = ds.xs[ds.thetas == theta]
        s = points[:, 0] * np.cos(theta) + points[:, 1] * np.sin(theta)
        accum += np.sum(_ramlak_kernel(s[:, None] - xs[None, :], kc), axis=1) / xs.size
    return accum * (np.pi / thetas.size) / (4.0 * np.pi**2)


def _squeezed_case():
    thetas = np.linspace(0, math.pi, 24, endpoint=False)
    ds = sample_quadratures(squeeze(vacuum(1), 0, 0.69), 0, thetas, 1000, seed=48)
    return ds, wigner_grid(4.0, 41)[0], None


def _displaced_case():
    state = displace(squeeze(vacuum(1), 0, 0.5), 0, 0.8)
    thetas = np.linspace(0, math.pi, 16, endpoint=False)
    return sample_quadratures(state, 0, thetas, 1000, seed=49), wigner_grid(6.0, 49)[0], None


def _single_point_case():
    one = fock.from_amplitudes([0, 1] + [0] * 10)
    thetas = np.linspace(0, math.pi, 24, endpoint=False)
    return sample_quadratures(one, 0, thetas, 1000, seed=50), [[0.0, 0.0]], None


def _explicit_cutoff_case():
    thetas = np.linspace(0, math.pi, 12, endpoint=False)
    ds = sample_quadratures(vacuum(1), 0, thetas, 500, seed=51)
    return ds, wigner_grid(3.0, 13)[0], 8.0


class TestBinnedBackprojection:
    @pytest.mark.parametrize(
        "case", [_squeezed_case, _displaced_case, _single_point_case, _explicit_cutoff_case]
    )
    def test_matches_exact_pair_sum(self, case):
        ds, points, cutoff = case()
        w = reconstruct_wigner(ds, points, filter_cutoff=cutoff)
        kc = default_filter_cutoff(ds) if cutoff is None else cutoff
        exact = exact_backprojection(ds, points, kc)
        assert np.max(np.abs(w - exact)) <= 2e-4 * np.max(np.abs(exact))

    def test_outlying_sample_with_hard_cutoff(self):
        thetas = np.linspace(0, math.pi, 12, endpoint=False)
        ds = sample_quadratures(vacuum(1), 0, thetas, 500, seed=52)
        xs = np.array(ds.xs)
        xs[0] = 50.0
        ds = QuadratureDataset(thetas=ds.thetas, xs=xs)
        points = wigner_grid(3.0, 9)[0]
        start = time.perf_counter()
        w = reconstruct_wigner(ds, points, filter_cutoff=40.0)
        assert time.perf_counter() - start < 1.0
        exact = exact_backprojection(ds, points, 40.0)
        assert np.max(np.abs(w - exact)) <= 2e-4 * np.max(np.abs(exact))

    def test_far_outlier_summed_directly(self):
        thetas = np.linspace(0, math.pi, 12, endpoint=False)
        ds = sample_quadratures(vacuum(1), 0, thetas, 500, seed=53)
        xs = np.array(ds.xs)
        xs[0] = 2000.0
        ds = QuadratureDataset(thetas=ds.thetas, xs=xs)
        points = wigner_grid(3.0, 41)[0]
        start = time.perf_counter()
        w = reconstruct_wigner(ds, points, filter_cutoff=40.0)
        assert time.perf_counter() - start < 0.2
        exact = exact_backprojection(ds, points, 40.0)
        assert np.max(np.abs(w - exact)) <= 2e-4 * np.max(np.abs(exact))


class TestTomography:
    def test_uneven_phases_weighted_by_coverage(self):
        # 18 phases crowd [0, 0.5]; equal weights would over-count them
        thetas = np.concatenate(
            [np.linspace(0, 0.5, 18), np.linspace(0.5, math.pi, 8)[1:-1]]
        )
        ds = sample_quadratures(vacuum(1), 0, thetas, 1000, seed=7)
        points, axis, _ = wigner_grid(5.0, 41)
        w = reconstruct_wigner(ds, points)
        w_true = wigner_gaussian(vacuum(1), points)
        assert math.sqrt(np.mean((w - w_true) ** 2)) < 0.05 * np.max(w_true)
        assert np.sum(w) * (axis[1] - axis[0]) ** 2 == pytest.approx(1.0, abs=0.05)

    def test_vacuum_reconstruction(self):
        thetas = np.linspace(0, math.pi, 24, endpoint=False)
        ds = sample_quadratures(vacuum(1), 0, thetas, 2000, seed=41)
        points, _, _ = wigner_grid(5.0, 41)
        w = reconstruct_wigner(ds, points)
        w_true = wigner_gaussian(vacuum(1), points)
        l2 = math.sqrt(np.mean((w - w_true) ** 2))
        assert l2 < 0.05 * np.max(w_true)
        assert wigner_axis_ratio(ds, points, w) == pytest.approx(1.0, abs=0.1)

    def test_squeezed_reconstruction_axis_ratio(self):
        r = 0.69
        s = squeeze(vacuum(1), 0, r)
        thetas = np.linspace(0, math.pi, 24, endpoint=False)
        ds = sample_quadratures(s, 0, thetas, 2000, seed=42)
        points, _, _ = wigner_grid(5.0, 41)
        w = reconstruct_wigner(ds, points)
        w_true = wigner_gaussian(s, points)
        assert math.sqrt(np.mean((w - w_true) ** 2)) < 0.05 * np.max(w_true)
        assert wigner_axis_ratio(ds, points, w) == pytest.approx(math.exp(2 * r), rel=0.15)

    def test_variance_profile_closed_loop(self):
        r = 0.5
        s = squeeze(vacuum(1), 0, r, phi=0.4)
        thetas = np.linspace(0, math.pi, 16, endpoint=False)
        ds = sample_quadratures(s, 0, thetas, 4000, seed=43)
        v_min, v_max, phi = variance_profile(ds)
        assert v_min == pytest.approx(math.exp(-2 * r) / 2, rel=0.05)
        assert v_max == pytest.approx(math.exp(2 * r) / 2, rel=0.05)
        assert phi % math.pi == pytest.approx(0.4, abs=0.02)

    def test_displaced_squeezed_state_ratio(self):
        # a bright squeezed state: the window must track the fitted mean
        from sqzlab.gaussian import displace
        from sqzlab.homodyne import mean_profile

        r = 0.5
        state = displace(squeeze(vacuum(1), 0, r), 0, 0.8)
        thetas = np.linspace(0, math.pi, 16, endpoint=False)
        ds = sample_quadratures(state, 0, thetas, 3000, seed=47)
        np.testing.assert_allclose(
            mean_profile(ds), [math.sqrt(2) * 0.8, 0.0], atol=0.05
        )
        points, _, _ = wigner_grid(6.0, 49)
        w = reconstruct_wigner(ds, points)
        assert wigner_axis_ratio(ds, points, w) == pytest.approx(
            math.exp(2 * r), rel=0.15
        )

    def test_insufficient_phases_rejected(self):
        thetas = np.linspace(0, math.pi, 8, endpoint=False)
        ds = sample_quadratures(vacuum(1), 0, thetas, 100, seed=44)
        with pytest.raises(ValueError, match="phase coverage"):
            reconstruct_wigner(ds, [[0.0, 0.0]])

    def test_explicit_cutoff_used(self):
        thetas = np.linspace(0, math.pi, 12, endpoint=False)
        ds = sample_quadratures(vacuum(1), 0, thetas, 500, seed=45)
        w_soft = reconstruct_wigner(ds, [[0.0, 0.0]], filter_cutoff=2.0)
        w_hard = reconstruct_wigner(ds, [[0.0, 0.0]], filter_cutoff=8.0)
        assert w_soft[0] != w_hard[0]
        assert default_filter_cutoff(ds) > 0

    def test_dataset_csv_round_trip(self, tmp_path):
        ds = sample_quadratures(vacuum(1), 0, [0.0, 0.5], 20, seed=46)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        np.testing.assert_allclose(back.thetas, ds.thetas, atol=1e-15)
        np.testing.assert_allclose(back.xs, ds.xs, atol=1e-15)

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="finite"):
            QuadratureDataset(thetas=np.array([0.0]), xs=np.array([np.nan]))
        with pytest.raises(ValueError, match="non-empty"):
            QuadratureDataset(thetas=np.array([]), xs=np.array([]))

    def test_sampler_refuses_no_phases(self):
        with pytest.raises(ValueError, match="at least one phase"):
            sample_quadratures(vacuum(1), 0, [], 100, seed=47)


class TestCsvWriters:
    def test_wigner_csv(self, tmp_path):
        points, _, _ = wigner_grid(2.0, 5)
        values = wigner_gaussian(vacuum(1), points)
        path = write_table(tmp_path / "w", ["x", "p", "w"], [*points.T, values])
        assert path == tmp_path / "w.csv"
        assert path.read_text().splitlines()[0] == "x,p,w"
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows, np.column_stack([points, values]))

    def test_exact_bytes(self, tmp_path):
        # floats as repr(float), other columns as str, LF line ends
        dataset = QuadratureDataset(thetas=np.array([0.0, 0.5]), xs=np.array([-0.1, 3.0]))
        cases = [
            (["theta", "x"], [dataset.thetas, dataset.xs], b"theta,x\n0.0,-0.1\n0.5,3.0\n"),
            (
                ["x", "p", "w"],
                [*np.array([[0.0, -1.5], [0.1, 2.0]]).T, [0.25, 1e-20]],
                b"x,p,w\n0.0,-1.5,0.25\n0.1,2.0,1e-20\n",
            ),
            (
                ["quantity", "value"],
                [["finesse", "gamma_hz"], [1 / 3, 2.5e6]],
                b"quantity,value\nfinesse,0.3333333333333333\ngamma_hz,2500000.0\n",
            ),
        ]
        for i, (header, columns, expected) in enumerate(cases):
            assert write_table(tmp_path / str(i), header, columns).read_bytes() == expected
        assert save_dataset_csv(dataset, tmp_path / "data.csv").read_bytes() == cases[0][2]

    @pytest.mark.parametrize(
        "header, columns",
        [
            pytest.param(["x", "p", "w"], [*np.array([[0, 0], [1, 1], [2, 2]]).T, [0.5]], id="short-column"),
            pytest.param(["x", "p", "w"], [[0.0], [1.0]], id="missing-column"),
            pytest.param(["x"], [[[0.0, 1.0]]], id="2-d-column"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_columns_rejected_before_writing(self, tmp_path, header, columns, fmt):
        with pytest.raises(ValueError, match="one 1-d column per name"):
            write_table(tmp_path / "table", header, columns, fmt)
        assert list(tmp_path.iterdir()) == []


# -- one grid check for every phase-space evaluator ------------------------------

_VACUUM_DATA = sample_quadratures(vacuum(1), 0, np.linspace(0, math.pi, 12, endpoint=False), 50, seed=3)
EVALUATORS = {
    "wigner_fock": lambda grid: fock.wigner_fock(fock.from_amplitudes(np.eye(4)[0]), grid),
    "wigner_gaussian": lambda grid: wigner_gaussian(vacuum(1), grid),
    "reconstruct_wigner": lambda grid: reconstruct_wigner(_VACUUM_DATA, grid),
    "teleport_wigner_check": lambda grid: teleport_wigner_check(vacuum(1), 0.5, grid),
}


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize(
    "grid, message",
    [
        pytest.param([[math.nan, 0.0]], "finite", id="nan"),
        pytest.param([[0.0, 0.0], [0.5, -math.inf]], "finite", id="inf"),
        pytest.param([[0.0, 0.0, 0.0]], "dimension 2", id="3-vector"),
        pytest.param([[[0.0, 0.0]], [[1.0, 1.0]]], "dimension 2", id="3-d-array"),
    ],
)
def test_evaluators_reject_bad_grid_points(name, grid, message):
    with pytest.raises(ValueError, match=message):
        EVALUATORS[name](grid)


@pytest.mark.parametrize("extent", [math.nan, math.inf, 0.0, -2.0])
def test_wigner_grid_rejects_bad_extent(extent):
    with pytest.raises(ValueError, match="extent must be finite and positive"):
        wigner_grid(extent, 3)


@pytest.mark.parametrize("n", [1, 0, -4])
def test_wigner_grid_rejects_fewer_than_two_points(n):
    with pytest.raises(ValueError, match=f"at least 2 points per axis, got {n}"):
        wigner_grid(3.0, n)
