"""Truncated photon-number-basis engine.

Pure states over up to three modes are stored as dense complex amplitude
tensors with a common per-mode cutoff d (photon numbers 0..d-1). This is
the workhorse for the non-Gaussian operations (heralding, photon
subtraction, kitten states) and for cross-validating the Gaussian engine.

Scaling wall: dense storage is limited to n_modes <= 3 and cutoff <= 64;
every scenario in this package fits comfortably inside that box.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .gaussian import _phase_space_points

MAX_MODES = 3
MAX_CUTOFF = 64

# wigner_fock evaluates this many grid points per pass, which bounds its
# working memory to a few _WIGNER_CHUNK x cutoff complex arrays.
_WIGNER_CHUNK = 4096

#: Constructors warn when the truncated analytic family loses more weight
#: than this.
LEAK_TOLERANCE = 1e-6

FSTATE_FORMAT_VERSION = "fstate-v1"


class TruncationWarning(UserWarning):
    """Raised as a warning when a cutoff visibly clips a state."""


class ZeroStateError(ValueError):
    """A conditional operation produced the zero vector (probability 0)."""


def _readonly_complex(a) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockState:
    """A pure state in the truncated photon-number basis.

    Attributes
    ----------
    amps : complex ndarray, shape (d,) * n_modes
        Normalized amplitudes; amps[n1, ..., nN] multiplies |n1 ... nN>.
    norm_leak : float
        Weight lost to truncation relative to the untruncated analytic
        family the state was built from (0 for states built from explicit
        amplitudes).
    """

    amps: np.ndarray
    norm_leak: float = 0.0

    def __post_init__(self):
        amps = _readonly_complex(self.amps)
        if amps.ndim < 1 or amps.ndim > MAX_MODES:
            raise ValueError(f"n_modes must be between 1 and {MAX_MODES}")
        d = amps.shape[0]
        if any(dim != d for dim in amps.shape):
            raise ValueError("all modes must share the same cutoff")
        if not 1 <= d <= MAX_CUTOFF:
            raise ValueError(f"cutoff must be between 1 and {MAX_CUTOFF}")
        norm_sq = float(np.vdot(amps, amps).real)
        if not 0.0 < norm_sq <= 1.0 + 1e-9:
            raise ValueError(f"state norm^2 = {norm_sq:.6g} outside (0, 1]")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "norm_leak", float(self.norm_leak))

    @property
    def n_modes(self) -> int:
        return self.amps.ndim

    @property
    def cutoff(self) -> int:
        return self.amps.shape[0]

    def to_json(self) -> dict:
        """Serializable dict, format ``fstate-v1`` (amplitudes row-major)."""
        flat = self.amps.ravel(order="C")
        return {
            "version": FSTATE_FORMAT_VERSION,
            "n_modes": self.n_modes,
            "cutoff": self.cutoff,
            "amps_re": flat.real.tolist(),
            "amps_im": flat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict | str) -> "FockState":
        if isinstance(data, str):
            data = json.loads(data)
        if data.get("version") != FSTATE_FORMAT_VERSION:
            raise ValueError(f"unsupported state format: {data.get('version')!r}")
        n, d = data["n_modes"], data["cutoff"]
        flat = np.array(data["amps_re"]) + 1j * np.array(data["amps_im"])
        return cls(amps=flat.reshape((d,) * n))


def from_amplitudes(amps, normalize: bool = True) -> FockState:
    """Build a state from explicit amplitudes, normalizing by default."""
    amps = np.asarray(amps, dtype=complex)
    if normalize:
        norm = np.linalg.norm(amps.ravel())
        if norm == 0.0:
            raise ZeroStateError("cannot normalize the zero vector")
        amps = amps / norm
    return FockState(amps=amps)


def _finalize_family(raw: np.ndarray, label: str) -> FockState:
    """Normalize a truncated analytic family and record the lost weight."""
    norm_sq = float(np.vdot(raw, raw).real)
    if norm_sq <= 0.0:
        raise ZeroStateError(f"{label}: truncated state has zero norm")
    leak = max(0.0, 1.0 - norm_sq)
    if leak >= LEAK_TOLERANCE:
        warnings.warn(
            f"{label}: cutoff {raw.shape[0]} loses weight {leak:.3g}; "
            "increase the cutoff",
            TruncationWarning,
            stacklevel=3,
        )
    return FockState(amps=raw / np.sqrt(norm_sq), norm_leak=leak)


def coherent_fock(alpha: complex, cutoff: int) -> FockState:
    """Coherent state |alpha>: amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    alpha = complex(alpha)
    if alpha == 0:
        raw = np.zeros(cutoff, dtype=complex)
        raw[0] = 1.0
        return _finalize_family(raw, "coherent_fock")
    n = np.arange(cutoff)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, cutoff)))))
    log_mag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * log_fact
    # cumulative product keeps real alpha exactly real (and alternating for
    # alpha < 0), which exact-parity checks downstream rely on
    unit = alpha / abs(alpha)
    phases = np.concatenate(([1.0 + 0.0j], np.cumprod(np.full(cutoff - 1, unit))))
    raw = np.exp(log_mag) * phases
    return _finalize_family(raw, "coherent_fock")


def squeezed_vacuum_fock(r: float, cutoff: int) -> FockState:
    """Single-mode squeezed vacuum in the number basis.

    Only even photon numbers appear: the amplitude of |2m> is
    (-tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r)).
    """
    raw = np.zeros(cutoff, dtype=complex)
    raw[0] = 1.0 / math.sqrt(math.cosh(r))
    for m in range(1, (cutoff - 1) // 2 + 1):
        # ratio of successive even amplitudes: -tanh(r) sqrt((2m-1)/(2m))
        raw[2 * m] = raw[2 * m - 2] * (-math.tanh(r)) * math.sqrt((2 * m - 1) / (2 * m))
    return _finalize_family(raw, "squeezed_vacuum_fock")


def tmsv_fock(r: float, cutoff: int) -> FockState:
    """Two-mode squeezed vacuum: amplitudes tanh^n(r)/cosh(r) on |nn>."""
    raw = np.zeros((cutoff, cutoff), dtype=complex)
    diag = np.tanh(r) ** np.arange(cutoff) / np.cosh(r)
    raw[np.arange(cutoff), np.arange(cutoff)] = diag
    return _finalize_family(raw, "tmsv_fock")


def suggest_cutoff(kind: str, value, tail_mass: float = 1e-8) -> int:
    """Smallest cutoff keeping the analytic tail mass below tail_mass.

    kind is one of 'coherent' (value = alpha), 'squeezed' or 'tmsv'
    (value = r); for 'tmsv' the suggestion is per mode.
    """
    if kind == "coherent":
        mean = abs(complex(value)) ** 2
        p, total, n = math.exp(-mean), math.exp(-mean), 0
        while 1.0 - total > tail_mass and n < 10 * MAX_CUTOFF:
            n += 1
            p *= mean / n
            total += p
        return min(MAX_CUTOFF, n + 1)
    if kind == "tmsv":
        t2 = math.tanh(float(value)) ** 2
        if t2 == 0.0:
            return 1
        # geometric tail: sum_{n>=d} (1-t2) t2^n = t2^d
        return min(MAX_CUTOFF, max(1, math.ceil(math.log(tail_mass) / math.log(t2))))
    if kind == "squeezed":
        t2 = math.tanh(float(value)) ** 2
        if t2 == 0.0:
            return 1
        total, term, m = 0.0, 1.0 / math.cosh(float(value)), 0
        total += term
        while 1.0 - total > tail_mass and 2 * m < 10 * MAX_CUTOFF:
            m += 1
            term *= t2 * (2 * m - 1) / (2 * m)
            total += term
        return min(MAX_CUTOFF, 2 * m + 1)
    raise ValueError(f"unknown family {kind!r}")


def annihilation_matrix(cutoff: int) -> np.ndarray:
    """Matrix of the annihilation operator: a|n> = sqrt(n)|n-1>."""
    a = np.zeros((cutoff, cutoff))
    ns = np.arange(1, cutoff)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def quadrature_matrices(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """X and P operator matrices in the truncated basis."""
    a = annihilation_matrix(cutoff)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    return x, p


def _apply_single_mode(amps: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, amps, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _check_mode(state: FockState, mode: int):
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")


def apply_annihilation(state: FockState, mode: int) -> tuple[FockState, float]:
    """Apply the annihilation operator to one mode.

    Returns the normalized result together with the squared norm of the
    un-normalized vector a|psi> (the success weight of the subtraction).
    Raises ZeroStateError if the input has no photons in that mode.
    """
    _check_mode(state, mode)
    new = _apply_single_mode(np.asarray(state.amps), annihilation_matrix(state.cutoff), mode)
    weight = float(np.vdot(new, new).real)
    if weight <= 1e-300:
        raise ZeroStateError("annihilation produced the zero state (no photons)")
    return FockState(amps=new / np.sqrt(weight)), weight


@lru_cache(maxsize=8)
def _beam_splitter_blocks(cutoff: int, theta: float) -> tuple:
    """exp(theta (a b^dag - a^dag b)) as one block per total photon number N.

    The generator conserves N = n_a + n_b, so truncation keeps it unitary.
    On n_a = max(0, N - d + 1) .. min(N, d - 1) it is tridiagonal with
    theta sqrt((n_a + 1) n_b) above the diagonal and its negative below
    (Miatto & Quesada, Quantum 4, 366 (2020)). Returns (n_a, n_b, block).
    """
    blocks = []
    for total in range(2 * cutoff - 1):
        na = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
        couple = theta * np.sqrt((na[:-1] + 1.0) * (total - na[:-1]))
        blocks.append((na, total - na, expm(np.diag(couple, 1) - np.diag(couple, -1))))
    return tuple(blocks)


def beam_splitter_fock(
    state: FockState, modes: tuple[int, int], tau: float, rho: float
) -> FockState:
    """Beam splitter on a pair of modes: a' = tau a - rho b, b' = tau b + rho a."""
    i, j = modes
    _check_mode(state, i)
    _check_mode(state, j)
    if i == j:
        raise ValueError("the two modes must be distinct")
    if not abs(tau * tau + rho * rho - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"beam splitter requires tau^2 + rho^2 = 1, got tau={tau}, rho={rho}")
    amps = np.moveaxis(np.asarray(state.amps), (i, j), (0, 1))
    out = np.empty_like(amps)
    for na, nb, block in _beam_splitter_blocks(state.cutoff, float(np.arctan2(rho, tau))):
        out[na, nb] = block @ amps[na, nb]
    out = np.moveaxis(out, (0, 1), (i, j))
    return FockState(amps=out, norm_leak=state.norm_leak)


@lru_cache(maxsize=8)
def _displacement_eig(cutoff: int):
    # eigendecomposition of i(a^dag - a); reused for every displacement
    a = annihilation_matrix(cutoff)
    herm = 1j * (a.T - a)
    vals, vecs = np.linalg.eigh(herm)
    return vals, vecs


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated matrix exponential of alpha a^dag - alpha* a.

    Exactly unitary on the retained space for any cutoff.
    """
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"displacement alpha must be finite, got {alpha}")
    vals, vecs = _displacement_eig(cutoff)
    radial = (vecs * np.exp(-1j * abs(alpha) * vals)) @ vecs.conj().T
    rot = np.exp(1j * np.angle(alpha) * np.arange(cutoff))
    return radial * rot[:, None] * rot.conj()[None, :]


def displace_fock(state: FockState, mode: int, alpha: complex) -> FockState:
    """Displace one mode by alpha via the truncated displacement unitary.

    Warns when the displaced state piles weight onto the top Fock level,
    a sign the cutoff is too small for this amplitude.
    """
    _check_mode(state, mode)
    out = _apply_single_mode(
        np.asarray(state.amps), displacement_matrix(alpha, state.cutoff), mode
    )
    top = np.moveaxis(out, mode, 0)[-1]
    top_weight = float(np.vdot(top, top).real)
    if top_weight > LEAK_TOLERANCE:
        warnings.warn(
            f"displace_fock: weight {top_weight:.3g} at the cutoff level; "
            "result is clipped",
            TruncationWarning,
            stacklevel=2,
        )
    return FockState(amps=out, norm_leak=state.norm_leak)


def _padded(state: FockState, cutoff: int) -> np.ndarray:
    out = np.zeros((cutoff,) * state.n_modes, dtype=complex)
    out[tuple(slice(0, s) for s in state.amps.shape)] = state.amps
    return out


def _padded_pair(a: FockState, b: FockState) -> tuple[np.ndarray, np.ndarray]:
    if a.n_modes != b.n_modes:
        raise ValueError("states have different mode counts")
    d = max(a.cutoff, b.cutoff)
    return _padded(a, d), _padded(b, d)


def fidelity(a: FockState, b: FockState) -> float:
    """Pure-state fidelity |<a|b>|^2; cutoffs are reconciled by zero padding."""
    pa, pb = _padded_pair(a, b)
    na = np.linalg.norm(pa.ravel())
    nb = np.linalg.norm(pb.ravel())
    return float(abs(np.vdot(pa, pb)) ** 2 / (na * nb) ** 2)


def overlap(a: FockState, b: FockState) -> complex:
    """Complex inner product <a|b> of the normalized states."""
    pa, pb = _padded_pair(a, b)
    na = np.linalg.norm(pa.ravel())
    nb = np.linalg.norm(pb.ravel())
    return complex(np.vdot(pa, pb) / (na * nb))


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product of two states (common cutoff via zero padding)."""
    if a.n_modes + b.n_modes > MAX_MODES:
        raise ValueError(f"product would exceed {MAX_MODES} modes")
    d = max(a.cutoff, b.cutoff)
    joint = np.tensordot(_padded(a, d), _padded(b, d), axes=0)
    return FockState(amps=joint, norm_leak=max(a.norm_leak, b.norm_leak))


def branch_probabilities(state: FockState, mode: int) -> np.ndarray:
    """Probability of finding n photons in one mode, for n = 0..d-1."""
    _check_mode(state, mode)
    amps = np.moveaxis(np.asarray(state.amps), mode, 0)
    flat = amps.reshape(state.cutoff, -1)
    return np.einsum("nk,nk->n", flat, flat.conj()).real


def project_number(state: FockState, mode: int, n: int) -> tuple[FockState, float]:
    """Photon-number-resolving projection of one mode onto |n>.

    Returns the renormalized remaining state (that mode removed) and the
    outcome probability.
    """
    _check_mode(state, mode)
    if state.n_modes == 1:
        raise ValueError("cannot project away the only mode")
    if not 0 <= n < state.cutoff:
        raise ValueError("photon number outside the cutoff")
    amps = np.moveaxis(np.asarray(state.amps), mode, 0)[n]
    prob = float(np.vdot(amps, amps).real)
    if prob <= 1e-300:
        raise ZeroStateError(f"projection onto |{n}> has zero probability")
    return FockState(amps=amps / np.sqrt(prob), norm_leak=state.norm_leak), prob


def herald_click(
    state: FockState, mode: int, n_resolved: int | None = None
) -> tuple[FockState, float]:
    """Condition on a click of a non-number-resolving detector on one mode.

    The click projects the heralding mode onto "at least one photon". For
    pure inputs whose heralding-mode photon number is correlated with the
    rest (heralded photons, tapped kittens), the conditional state is
    approximated by its dominant photon-number branch, which is returned
    renormalized with the heralding mode removed. The returned probability
    is the total click probability (all branches n >= 1).

    Pass n_resolved to model a photon-number-resolving detector instead;
    the probability is then that of the exact outcome.
    """
    if n_resolved is not None:
        return project_number(state, mode, n_resolved)
    probs = branch_probabilities(state, mode)
    p_click = float(np.sum(probs[1:]))
    if p_click <= 1e-300:
        raise ZeroStateError("click probability is zero")
    dominant = int(np.argmax(probs[1:])) + 1
    conditioned, _ = project_number(state, mode, dominant)
    return conditioned, p_click


def reduce_to_dominant_branch(state: FockState, mode: int) -> FockState:
    """Drop an unmonitored mode by keeping its most likely number branch.

    Valid when that mode is nearly a number-basis product factor (weak
    ancilla arms); the branch weight should be close to 1.
    """
    probs = branch_probabilities(state, mode)
    reduced, _ = project_number(state, mode, int(np.argmax(probs)))
    return reduced


def reduced_density_matrix(state: FockState, mode: int) -> np.ndarray:
    """Single-mode reduced density matrix (d x d), trace-normalized."""
    _check_mode(state, mode)
    amps = np.moveaxis(np.asarray(state.amps), mode, 0).reshape(state.cutoff, -1)
    rho = amps @ amps.conj().T
    return rho / np.trace(rho).real


def mean_photon_number(state: FockState, mode: int) -> float:
    probs = branch_probabilities(state, mode)
    return float(np.sum(np.arange(state.cutoff) * probs) / np.sum(probs))


def photon_parity(state: FockState, mode: int) -> float:
    """Expectation of (-1)^n in one mode."""
    probs = branch_probabilities(state, mode)
    signs = (-1.0) ** np.arange(state.cutoff)
    return float(np.sum(signs * probs) / np.sum(probs))


def quadrature_mean_and_cov(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """First and (symmetrized) second quadrature moments of a Fock state.

    Returns (mean, cov) in the same (X1, P1, X2, P2, ...) ordering as the
    Gaussian engine, enabling direct cross-engine comparisons.
    """
    d, n = state.cutoff, state.n_modes
    x_mat, p_mat = quadrature_matrices(d)
    amps = np.asarray(state.amps)
    norm_sq = float(np.vdot(amps, amps).real)
    vectors = []
    for mode in range(n):
        vectors.append(_apply_single_mode(amps, x_mat, mode))
        vectors.append(_apply_single_mode(amps, p_mat, mode))
    mean = np.array([np.vdot(amps, v).real for v in vectors]) / norm_sq
    cov = np.empty((2 * n, 2 * n))
    for i in range(2 * n):
        for j in range(i, 2 * n):
            second = np.vdot(vectors[i], vectors[j]).real / norm_sq
            cov[i, j] = cov[j, i] = second - mean[i] * mean[j]
    return mean, cov


def _pure_mode_vector(state: FockState, mode: int) -> np.ndarray:
    if state.n_modes == 1:
        v = np.asarray(state.amps)
        return v / np.linalg.norm(v)
    rho = reduced_density_matrix(state, mode)
    vals, vecs = np.linalg.eigh(rho)
    if vals[-1] < 1.0 - 1e-9:
        raise ValueError(
            "mode is entangled with the rest of the state "
            f"(reduced purity {float(np.sum(vals**2)):.6g}); "
            "condition or trace the other modes first"
        )
    return vecs[:, -1]


def wigner_fock(state: FockState, grid, mode: int = 0) -> np.ndarray:
    """Wigner function of one mode via displaced-parity evaluation.

    grid is an (M, 2) array of (x, p) points. The requested mode must be a
    product factor of the state (for multimode inputs). The vacuum peaks
    at 1/pi and the single photon reaches -1/pi at the origin. The
    displacement is the truncated ``displacement_matrix``, which is not exact
    far from the origin: for coherent states with |alpha| <= 1.5, cutoff 32
    on |x|, |p| <= 3 is off by up to 5% of the peak, cutoff 40 on
    |x|, |p| <= 2 by about 2.5e-9.
    """
    _check_mode(state, mode)
    psi = _pure_mode_vector(state, mode)
    points = _phase_space_points(grid, 2)
    # D(-gamma) = R V exp(-i|gamma| lam) V^H R^*, R = diag(e^{i n arg(-gamma)}); |R .| = |.|
    vals, vecs = _displacement_eig(psi.size)
    n = np.arange(psi.size)
    out = np.empty(len(points))
    for start in range(0, len(points), _WIGNER_CHUNK):
        chunk = points[start : start + _WIGNER_CHUNK]
        neg = -(chunk[:, 0] + 1j * chunk[:, 1]) / np.sqrt(2.0)
        inner = (np.exp(-1j * np.angle(neg)[:, None] * n) * psi) @ vecs.conj()
        shifted = (np.exp(-1j * np.abs(neg)[:, None] * vals) * inner) @ vecs.T
        out[start : start + _WIGNER_CHUNK] = np.abs(shifted) ** 2 @ (-1.0) ** n / np.pi
    return out
