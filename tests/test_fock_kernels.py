"""Fock kernels against their dense references, bad gate parameters, and the
cutoff-64 budget."""

import itertools
import math
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from sqzlab import fock
from sqzlab.fock import (
    TruncationWarning,
    ZeroStateError,
    annihilation_matrix,
    beam_splitter_fock,
    coherent_fock,
    displace_fock,
    displacement_matrix,
    from_amplitudes,
    quadrature_mean_and_cov,
    reduced_density_matrix,
    squeezed_vacuum_fock,
    tensor,
    tmsv_fock,
    wigner_fock,
)
from sqzlab.gaussian import GaussianState, displace, squeeze, two_mode_squeeze, vacuum, wigner_gaussian
from sqzlab.homodyne import wigner_grid
from sqzlab.protocols import engineer_kitten_superposition, make_kitten


def dense_beam_splitter(state, modes, tau, rho):
    """The d^2 x d^2 unitary expm(theta (a (x) a^T - a^T (x) a)) on modes (i, j).

    The reference that beam_splitter_fock's photon-number blocks reproduce.
    """
    d = state.cutoff
    a = annihilation_matrix(d)
    u = expm(math.atan2(rho, tau) * (np.kron(a, a.T) - np.kron(a.T, a)))
    amps = np.moveaxis(np.asarray(state.amps), modes, (0, 1))
    out = (u @ amps.reshape(d * d, -1)).reshape(amps.shape)
    return np.moveaxis(out, (0, 1), modes)


def looped_wigner(state, grid, mode=0):
    """Cahill & Glauber's sum (1/pi) sum_{m,n} rho_nm (-1)^n <m|D(beta)|n>,
    beta = sqrt(2)(x + ip), one grid point at a time, with every matrix
    element from scipy's Laguerre polynomials.

    The exact reference that wigner_fock's recurrence reproduces.
    """
    rho = reduced_density_matrix(state, mode)
    d = state.cutoff
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    lo, k = np.minimum(m, n), np.abs(m - n)
    norm = np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + k + 1)))
    signs = (-1.0) ** n
    out = np.empty(len(grid))
    for i, (x, p) in enumerate(grid):
        beta = math.sqrt(2.0) * complex(x, p)
        y = abs(beta) ** 2
        power = np.where(m >= n, beta**k, (-beta.conjugate()) ** k)
        element = norm * math.exp(-0.5 * y) * eval_genlaguerre(lo, k, y) * power
        out[i] = np.sum(rho.T * signs * element).real / np.pi
    return out


def mp_displacement(alpha, cutoff):
    """<m|D(alpha)|n> in 40-digit mpmath, each Laguerre polynomial as its finite sum."""
    with mp.workdps(40):
        a = mp.mpc(alpha.real, alpha.imag)
        y = abs(a) ** 2
        terms = [y**i / mp.factorial(i) for i in range(cutoff)]
        out = np.empty((cutoff, cutoff), dtype=complex)
        for lo, hi in itertools.combinations_with_replacement(range(cutoff), 2):
            laguerre = mp.fsum((-1) ** i * math.comb(hi, lo - i) * terms[i] for i in range(lo + 1))
            common = mp.sqrt(mp.factorial(lo) / mp.factorial(hi)) * mp.exp(-y / 2) * laguerre
            out[hi, lo] = complex(common * a ** (hi - lo))
            out[lo, hi] = complex(common * (-mp.conj(a)) ** (hi - lo))
        return out


# -- beam splitter --------------------------------------------------------------


@st.composite
def _states(draw):
    n_modes = draw(st.integers(2, 3))
    d = draw(st.integers(1, 10))
    parts = st.floats(-1.0, 1.0)
    size = d**n_modes
    re = np.array(draw(st.lists(parts, min_size=size, max_size=size)))
    im = np.array(draw(st.lists(parts, min_size=size, max_size=size)))
    amps = (re + 1j * im).reshape((d,) * n_modes)
    amps[(0,) * n_modes] += 2.0  # never the zero vector
    return from_amplitudes(amps)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_states(), st.floats(-math.pi, math.pi))
def test_beam_splitter_matches_dense_reference(state, theta):
    tau, rho = math.cos(theta), math.sin(theta)
    for modes in itertools.permutations(range(state.n_modes), 2):
        out = np.asarray(beam_splitter_fock(state, modes, tau, rho).amps)
        assert np.max(np.abs(out - dense_beam_splitter(state, modes, tau, rho))) <= 1e-12


# theta = 0 is no longer exactly the identity: V V^T rounds
@pytest.mark.parametrize(
    "theta", [0.0, 0.1, -0.37, math.pi / 4, math.pi / 2 - 1e-3, math.pi / 2, -math.pi / 2]
)
def test_beam_splitter_blocks_orthogonal_and_match_expm(theta):
    for na, nb, block in fock._beam_splitter_blocks(64, theta):
        couple = theta * np.sqrt((na[:-1] + 1.0) * nb[:-1])
        generator = np.diag(couple, 1) - np.diag(couple, -1)
        assert np.max(np.abs(block.T @ block - np.eye(na.size))) <= 1e-13
        assert np.max(np.abs(block - expm(generator))) <= 1e-12


def test_new_angle_at_a_known_cutoff_makes_no_eigen_solve(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    fock._beam_splitter_eig.cache_clear()
    fock._beam_splitter_blocks.cache_clear()
    pair = tensor(coherent_fock(0.3, 17), coherent_fock(-0.2j, 17))
    beam_splitter_fock(pair, (0, 1), math.cos(0.123), math.sin(0.123))
    assert len(calls) == 2 * 17 - 1
    calls.clear()
    beam_splitter_fock(pair, (0, 1), math.cos(-0.456), math.sin(-0.456))
    assert calls == []


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("param", ["tau", "rho"])
def test_beam_splitter_rejects_non_finite(param, value):
    pair = tensor(coherent_fock(0.0, 3), coherent_fock(0.0, 3))
    tau, rho = (value, 0.0) if param == "tau" else (1.0, value)
    with pytest.raises(ValueError, match=f"{param}={value}"):
        beam_splitter_fock(pair, (0, 1), tau, rho)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.3, math.nan), complex(-math.inf, 0.0)])
def test_displace_rejects_non_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        displace_fock(coherent_fock(0.0, 4), 0, alpha)


# -- displacement -----------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha, cutoff", [(1.5, 20), (-3.0j, 32), (5.0 * np.exp(0.7j), 64), (-2.2 + 1.1j, 64), (-5.0, 48)]
)
def test_displacement_matrix_matches_mpmath(alpha, cutoff):
    assert np.max(np.abs(displacement_matrix(alpha, cutoff) - mp_displacement(complex(alpha), cutoff))) <= 1e-13


@pytest.mark.parametrize(
    "alpha, cutoff", [(1.5, 20), (-3.0j, 32), (2.9 - 2.9j, 64), (-2.2 + 1.1j, 64), (-3.0, 48), (0.0, 5)]
)
def test_coherent_amplitudes_match_mpmath(alpha, cutoff):
    with mp.workdps(40):
        a = mp.mpc(complex(alpha).real, complex(alpha).imag)
        column = [mp.exp(-abs(a) ** 2 / 2) * a**n / mp.sqrt(mp.factorial(n)) for n in range(cutoff)]
        norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in column))
        exact = np.array([complex(c / norm) for c in column])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        state = coherent_fock(alpha, cutoff)
    assert np.max(np.abs(state.amps - exact)) <= 4e-16


def test_displacement_far_outside_the_cutoff_is_zero_not_nan():
    assert not np.any(displacement_matrix(1e6 + 1e6j, 64))
    with pytest.raises(ZeroStateError):
        displace_fock(coherent_fock(0.0, 64), 0, 1e6)


# -- Wigner map -----------------------------------------------------------------

# the origin, and points where gamma = (x + ip)/sqrt(2) has phase +-pi or
# -pi/2, plus a coarse grid around them
_AXES = [(0.0, 0.0), (-1.3, 0.0), (-1.3, -0.0), (-0.4, 0.0), (0.0, -1.1), (0.0, -2.0)]
WIGNER_POINTS = np.vstack([_AXES, wigner_grid(2.5, 9)[0]])


WIGNER_STATES = {
    "vacuum": lambda: (from_amplitudes(np.eye(12)[0]), 0),
    "one-photon": lambda: (from_amplitudes(np.eye(12)[1]), 0),
    "kitten": lambda: (make_kitten(0.4, 24, 0.07)[0], 0),
    "product-mode-1": lambda: (tensor(from_amplitudes(np.eye(10)[1]), coherent_fock(0.6 - 0.5j, 10)), 1),
    "entangled-mode-0": lambda: (tmsv_fock(0.7, 16), 0),
}


@pytest.mark.parametrize("name", WIGNER_STATES)
def test_wigner_matches_looped_reference(name):
    state, mode = WIGNER_STATES[name]()
    w = wigner_fock(state, WIGNER_POINTS, mode=mode)
    assert np.max(np.abs(w - looped_wigner(state, WIGNER_POINTS, mode))) <= 1e-12


def test_wigner_over_several_chunks_matches_looped_reference():
    grid = wigner_grid(3.0, 67)[0]
    assert len(grid) > fock._WIGNER_CHUNK
    state = make_kitten(0.4, 24, 0.07)[0]
    assert np.max(np.abs(wigner_fock(state, grid) - looped_wigner(state, grid))) <= 1e-12


def direct_wigner(state, grid, mode=0):
    """(1/pi) sum_{m,n} rho_nm (-1)^n <m|D(beta)|n>, beta = sqrt(2)(x + ip), as a full
    matrix sum at each point with D(beta) from displacement_matrix: no diagonal sums, no
    radius sharing and no Horner recursion in the angle."""
    rho = reduced_density_matrix(state, mode)
    signs = (-1.0) ** np.arange(state.cutoff)
    return np.array(
        [np.sum(rho.T * displacement_matrix(math.sqrt(2.0) * complex(x, p), state.cutoff) * signs).real / np.pi for x, p in grid]
    )


# (state, mode, whether the mode's rho has an imaginary part): the real sums
# alone, the real and imaginary sums, and an entangled mode
DIRECT_STATES = {
    "kitten": lambda: (make_kitten(0.4, 24, 0.07)[0], 0, False),
    "displaced-squeezed": lambda: (displace_fock(squeezed_vacuum_fock(0.5, 32), 0, 1.2 - 0.7j), 0, True),
    "tmsv-mode-1": lambda: (tmsv_fock(0.6, 24), 1, False),
}


@pytest.mark.parametrize("name", DIRECT_STATES)
def test_wigner_matches_direct_displacement_sum(name):
    # measured within 2e-16 on these points; out to |x + ip| = 8.5, where
    # |beta|^2 = 144 is far outside every cutoff's own reach
    state, mode, complex_rho = DIRECT_STATES[name]()
    assert reduced_density_matrix(state, mode).imag.any() == complex_rho
    grid = np.vstack([wigner_grid(6.0, 13)[0], [[5.5, -4.0], [-7.0, 0.3], [0.0, 8.0]]])
    assert np.max(np.abs(wigner_fock(state, grid, mode) - direct_wigner(state, grid, mode))) <= 1e-13


# Closed forms far from the origin at low cutoff, with the weight each state
# loses to its cutoff computed from its series: below 1e-20, so a truncated
# map within (2/pi) sqrt(lost) of the closed form is within 1e-10 of it.
def _coherent_case():
    alpha = 0.7 + 0.3j
    x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    y = abs(alpha) ** 2
    tail = sum(math.exp(-y) * y**n / math.factorial(n) for n in range(20, 60))
    return coherent_fock(alpha, 20), lambda x, p: np.exp(-((x - x0) ** 2) - (p - p0) ** 2) / np.pi, tail


def _squeezed_case():
    r, cutoff = -0.15, 24
    vx, vp = math.exp(-2.0 * r) / 2.0, math.exp(2.0 * r) / 2.0
    t = math.tanh(r) ** 2
    tail = sum(t**m * math.comb(2 * m, m) / 4**m / math.cosh(r) for m in range(cutoff // 2, 60))
    closed = lambda x, p: np.exp(-(x**2) / (2 * vx) - p**2 / (2 * vp)) / (2 * np.pi * math.sqrt(vx * vp))
    return squeezed_vacuum_fock(r, cutoff), closed, tail


@pytest.mark.parametrize("case", [_coherent_case, _squeezed_case])
def test_wigner_matches_closed_form_at_low_cutoff(case):
    state, closed, tail = case()
    grid = wigner_grid(4.0, 41)[0]
    assert tail < 1e-20
    assert np.max(np.abs(wigner_fock(state, grid) - closed(grid[:, 0], grid[:, 1]))) <= 1e-10


# Within trace distance T of the untruncated state, a Wigner value is off by
# at most (2/pi) T, and a renormalized truncation that drops weight w is at
# T = sqrt(w). norm_leak is 1 minus a float64 sum of |amplitude|^2, so it
# resolves a lost weight only to a few eps: each step counts as at least 1e-15.
def _leak_bound(*lost):
    return 2.0 / math.pi * sum(math.sqrt(max(w, 1e-15)) for w in lost)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.integers(8, 40),
)
def test_wigner_matches_gaussian_engine_within_counted_leak(r, alpha, cutoff):
    grid = wigner_grid(4.0, 21)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        squeezed = squeezed_vacuum_fock(r, cutoff)
        shifted = displace_fock(squeezed, 0, alpha)
        pair = tmsv_fock(r, cutoff)
    lost_by_shift = 1.0 - (1.0 - shifted.norm_leak) / (1.0 - squeezed.norm_leak)
    gauss = displace(squeeze(vacuum(1), 0, r), 0, alpha)
    dev = np.max(np.abs(wigner_fock(shifted, grid) - wigner_gaussian(gauss, grid)))
    assert dev <= _leak_bound(squeezed.norm_leak, lost_by_shift)
    two = two_mode_squeeze(vacuum(2), (0, 1), r)
    for mode in (0, 1):
        part = slice(2 * mode, 2 * mode + 2)
        reduced = GaussianState(mean=two.mean[part], cov=two.cov[part, part])
        dev = np.max(np.abs(wigner_fock(pair, grid, mode) - wigner_gaussian(reduced, grid)))
        assert dev <= _leak_bound(pair.norm_leak)


# The truncated state is within sum sqrt(w) of the exact one in norm, one
# term per truncation step, and that difference sits at photon numbers near
# the cutoff d, where X^2, P^2 and XP have matrix elements of order d; so
# every moment is within d sum sqrt(w) (the worst case over 400 random
# draws read 0.42 of it). Each w is floored at 1e-15 as above.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.integers(8, 40),
)
def test_moments_match_gaussian_engine_within_counted_leak(r, alpha, cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        squeezed = squeezed_vacuum_fock(r, cutoff)
        shifted = displace_fock(squeezed, 0, alpha)
        pair = tmsv_fock(r, cutoff)
    lost_by_shift = 1.0 - (1.0 - shifted.norm_leak) / (1.0 - squeezed.norm_leak)
    cases = [
        (shifted, displace(squeeze(vacuum(1), 0, r), 0, alpha), (squeezed.norm_leak, lost_by_shift)),
        (pair, two_mode_squeeze(vacuum(2), (0, 1), r), (pair.norm_leak,)),
    ]
    for state, gauss, lost in cases:
        mean, cov = quadrature_mean_and_cov(state)
        dev = max(np.max(np.abs(mean - gauss.mean)), np.max(np.abs(cov - gauss.cov)))
        assert dev <= cutoff * sum(math.sqrt(max(w, 1e-15)) for w in lost)


# -- cutoff 64, the documented limit ----------------------------------------------


def _cost(run):
    """Wall seconds and tracemalloc peak bytes of run() with cold kernel caches."""
    fock._beam_splitter_eig.cache_clear()
    fock._beam_splitter_blocks.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        run()
        wall = time.perf_counter() - start
        return wall, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cutoff_64_kitten_and_wigner_budget():
    grid = wigner_grid(3.0, 41)[0]
    wall, peak = _cost(lambda: wigner_fock(make_kitten(0.8, 64, 0.0437)[0], grid))
    assert wall < 2.0 and peak < 64 * 2**20, (wall, peak)


def test_cutoff_64_wigner_memory_is_bounded_on_a_large_grid():
    state = coherent_fock(0.8 - 0.3j, 64)
    grid = wigner_grid(3.0, 201)[0]
    wall, peak = _cost(lambda: wigner_fock(state, grid))
    assert peak < 32 * 2**20, (wall, peak)


def test_cutoff_64_superposition_budget():
    wall, peak = _cost(lambda: engineer_kitten_superposition(0.3, 0.2, 0.0511, 0.0511, 64))
    assert wall < 5.0 and peak < 128 * 2**20, (wall, peak)
