"""Fock kernels against their dense references, bad gate parameters, and the
cutoff-64 budget."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from sqzlab import fock
from sqzlab.fock import (
    annihilation_matrix,
    beam_splitter_fock,
    coherent_fock,
    displace_fock,
    displacement_matrix,
    from_amplitudes,
    tensor,
    wigner_fock,
)
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
    """Displaced parity one grid point at a time, with a d x d displacement each.

    The reference that wigner_fock's two matrix products reproduce.
    """
    psi = fock._pure_mode_vector(state, mode)
    signs = (-1.0) ** np.arange(psi.size)
    out = np.empty(len(grid))
    for k, (x, p) in enumerate(grid):
        gamma = (x + 1j * p) / np.sqrt(2.0)
        shifted = psi if gamma == 0 else displacement_matrix(-gamma, psi.size) @ psi
        out[k] = np.sum(signs * np.abs(shifted) ** 2) / np.pi
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


# -- cutoff 64, the documented limit ----------------------------------------------


def _cost(run):
    """Wall seconds and tracemalloc peak bytes of run() with cold kernel caches."""
    fock._beam_splitter_eig.cache_clear()
    fock._beam_splitter_blocks.cache_clear()
    fock._displacement_eig.cache_clear()
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
