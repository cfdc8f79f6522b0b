"""Measurement layer: samplers, matched filter, spectra, tomography."""

import math
import time

import numpy as np
import pytest

from sqzlab import fock
from sqzlab.gaussian import displace, squeeze, vacuum, wigner_gaussian
from sqzlab.homodyne import (
    PhotocurrentTrace,
    _ramlak_kernel,
    QuadratureDataset,
    default_filter_cutoff,
    load_dataset_csv,
    matched_filter_quadrature,
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
)
from sqzlab.protocols import teleport_wigner_check

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
        bad = fock.FockState(amps=np.array([0.5, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            sample_quadratures(bad, 0, [0.0], 10, seed=0)

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

    def test_entangled_mode_marginal(self):
        # reduced marginal of one TMSV mode is the thermal Gaussian
        r = 0.5
        t = fock.tmsv_fock(r, 30)
        xs = np.linspace(-8, 8, 1601)
        pdf = quadrature_pdf(t, 0, 0.0, xs)
        var = np.trapezoid(pdf * xs**2, xs)
        assert var == pytest.approx(math.cosh(2 * r) / 2, abs=1e-6)


class TestMatchedFilter:
    def test_self_projection(self):
        n, dt = 512, 1e-7
        phi = np.sin(np.linspace(0, math.pi, n))
        phi /= math.sqrt(np.sum(phi**2) * dt)
        trace = PhotocurrentTrace(dt=dt, values=phi)
        assert matched_filter_quadrature(trace, phi) == pytest.approx(1.0, rel=1e-12)

    def test_unnormalized_mode_rejected(self):
        trace = PhotocurrentTrace(dt=1e-7, values=np.zeros(64))
        with pytest.raises(ValueError, match="normalized"):
            matched_filter_quadrature(trace, np.ones(64))

    def test_sql_estimator_variance(self):
        # delta-correlated quadrature noise: per-sample variance V/dt
        n, dt, reps, v = 256, 1e-7, 10_000, 0.5
        rng = np.random.default_rng(21)
        phi = np.exp(-((np.linspace(-1, 1, n)) ** 2) / 0.2)
        phi /= math.sqrt(np.sum(phi**2) * dt)
        estimates = np.empty(reps)
        noise = rng.normal(0.0, math.sqrt(v / dt), size=(reps, n))
        for k in range(reps):
            estimates[k] = matched_filter_quadrature(
                PhotocurrentTrace(dt=dt, values=noise[k]), phi
            )
        assert np.var(estimates) == pytest.approx(v, rel=0.05)

    def test_linear_in_trace(self):
        n, dt = 128, 1e-7
        rng = np.random.default_rng(23)
        phi = np.ones(n) / math.sqrt(n * dt)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        est = lambda v: matched_filter_quadrature(PhotocurrentTrace(dt=dt, values=v), phi)
        assert est(a) + est(b) == pytest.approx(est(a + b), rel=1e-12)

    def test_orthogonal_mode_uncorrelated(self):
        n, dt, reps = 256, 1e-7, 10_000
        rng = np.random.default_rng(22)
        t = np.linspace(0, 1, n, endpoint=False)
        phi1 = np.sin(2 * math.pi * t)
        phi2 = np.cos(2 * math.pi * t)
        phi1 /= math.sqrt(np.sum(phi1**2) * dt)
        phi2 /= math.sqrt(np.sum(phi2**2) * dt)
        assert abs(np.sum(phi1 * phi2) * dt) < 1e-10
        noise = rng.normal(0.0, math.sqrt(0.5 / dt), size=(reps, n))
        est1 = noise @ phi1 * dt
        est2 = noise @ phi2 * dt
        corr = np.corrcoef(est1, est2)[0, 1]
        assert abs(corr) < 0.02


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


class TestCsvWriters:
    def test_noise_spectrum_csv(self, tmp_path):
        from sqzlab.devices import OpaConfig, opa_spectrum
        from sqzlab.homodyne import save_noise_spectrum_csv

        spec = opa_spectrum(OpaConfig(2e6, 0.75, 0.9), np.linspace(1e5, 1e7, 7))
        path = tmp_path / "spec.csv"
        save_noise_spectrum_csv(spec, path)
        header = path.read_text().splitlines()[0]
        assert header == "freq_hz,v_plus,v_minus"
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 1], spec.v_plus, atol=1e-15)
        np.testing.assert_allclose(rows[:, 2], spec.v_minus, atol=1e-15)

    def test_power_spectrum_csv(self, tmp_path):
        from sqzlab.homodyne import save_power_spectrum_csv

        trace = photocurrent_with_drift(0.5, 0.0, 1e-6, 2e6, 1e-3, seed=61)
        spec = spectrum(trace, 8)
        path = tmp_path / "power.csv"
        save_power_spectrum_csv(spec, path)
        assert path.read_text().splitlines()[0] == "freq_hz,power"
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 1], spec.power, atol=1e-15)

    def test_wigner_csv(self, tmp_path):
        from sqzlab.homodyne import save_wigner_csv

        points, _, _ = wigner_grid(2.0, 5)
        values = wigner_gaussian(vacuum(1), points)
        path = tmp_path / "w.csv"
        save_wigner_csv(points, values, path)
        assert path.read_text().splitlines()[0] == "x,p,w"
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 2], values, atol=1e-15)

    def test_exact_bytes(self, tmp_path):
        # every value as repr(float), csv.writer's CRLF line ends
        from sqzlab.homodyne import (
            NoiseSpectrum,
            PowerSpectrum,
            save_noise_spectrum_csv,
            save_power_spectrum_csv,
            save_wigner_csv,
        )

        freqs, lo, hi = [1e5, 2.5e6], [0.1, 0.25], [5.0, 1 / 3]
        cases = [
            (
                save_dataset_csv,
                (QuadratureDataset(thetas=np.array([0.0, 0.5]), xs=np.array([-0.1, 3.0])),),
                b"theta,x\r\n0.0,-0.1\r\n0.5,3.0\r\n",
            ),
            (
                save_wigner_csv,
                ([[0.0, -1.5], [0.1, 2.0]], [0.25, 1e-20]),
                b"x,p,w\r\n0.0,-1.5,0.25\r\n0.1,2.0,1e-20\r\n",
            ),
            (
                save_noise_spectrum_csv,
                (NoiseSpectrum(freqs=freqs, v_plus=hi, v_minus=lo),),
                b"freq_hz,v_plus,v_minus\r\n100000.0,5.0,0.1\r\n"
                b"2500000.0,0.3333333333333333,0.25\r\n",
            ),
            (
                save_power_spectrum_csv,
                (PowerSpectrum(freqs=freqs, power=lo),),
                b"freq_hz,power\r\n100000.0,0.1\r\n2500000.0,0.25\r\n",
            ),
        ]
        for i, (save, args, expected) in enumerate(cases):
            path = tmp_path / f"{i}.csv"
            save(*args, path)
            assert path.read_bytes() == expected


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
