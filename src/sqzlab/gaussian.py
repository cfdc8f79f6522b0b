"""Exact Gaussian-state engine.

States are (mean, covariance) pairs over N optical modes, evolved by
symplectic transformations and the pure-loss channel.

Conventions (used throughout the package):

* ``[X, P] = i`` and ``X = (a + a^dag)/sqrt(2)``, ``P = (a - a^dag)/(i sqrt(2))``,
  so the vacuum has ``Var(X) = Var(P) = 1/2``.
* Quadratures are ordered ``(X1, P1, X2, P2, ...)``.
* Mode indices are 0-based.
* A squeezing parameter ``r > 0`` scales ``X -> X exp(-r)`` and
  ``P -> P exp(+r)`` (position squeezing for ``r > 0``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# STRUCTURAL_TOL bounds |tau^2 + rho^2 - 1| (_check_beam_splitter); the
# symmetry and uncertainty checks (see GaussianState) use 1e-12 and 1e-14
# relative to max|cov|; infer_effective_loss uses PHYSICS_TOL absolute.
STRUCTURAL_TOL = 1e-10
PHYSICS_TOL = 1e-9

VACUUM_VARIANCE = 0.5

GSTATE_FORMAT_VERSION = "gstate-v1"


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2N x 2N symplectic form Omega, block-diagonal [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _readonly(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianState:
    """An N-mode Gaussian state: quadrature mean vector and covariance matrix.

    The constructor is the trust boundary (caller arrays, ``from_json``,
    ``dataclasses.replace``): it checks finiteness, symmetry and the
    uncertainty principle cov + i Omega/2 >= 0 (Simon, Mukunda & Dutta,
    Phys. Rev. A 49, 1567 (1994)) as one O(N^3) Hermitian eigen-solve. It
    rejects a smallest eigenvalue below -1e-14 * max(1, max|cov|). That
    bound accepts every state within rounding of a physical one, at any
    squeezing, and rejects a symplectic eigenvalue short of 1/2 by a factor
    (1 - 2 delta) for delta >= 1e-8 at r <= 3, delta >= 1e-6 at r = 5 and
    delta = 1e-2 at r = 7 (two-mode squeezed vacuum). From r = 9 on, a 1%
    deficit lies within the rounding of the entries, and is accepted.

    Gates skip that check, because an exact symplectic or pure-loss map
    keeps a physical state physical; they check only the rows they touch,
    for NaN, inf and overflow, in O(N).

    Attributes
    ----------
    mean : (2N,) array
        Quadrature means, ordered (X1, P1, ..., XN, PN).
    cov : (2N, 2N) array
        Symmetric quadrature covariance matrix; the vacuum is I/2.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(self.mean).reshape(-1)
        cov = _readonly(self.cov)
        if mean.size == 0 or mean.size % 2 != 0:
            raise ValueError("mean must have length 2N with N >= 1")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be 2N x 2N, matching the mean vector")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
            raise ValueError("covariance matrix is not symmetric")
        lam = np.linalg.eigvalsh(cov + 0.5j * symplectic_form(mean.size // 2))[0]
        if lam < -1e-14 * scale:
            raise ValueError(
                "covariance violates the uncertainty principle "
                f"(min eigenvalue of cov + i Omega/2 is {lam:.6g} < 0)"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianState":
        """Wrap arrays made from valid states without checks: by a gate, or by
        exact algebra such as conditioning and averaging. Rounding in that
        algebra can leave a strongly squeezed result a hair past the
        uncertainty bound, which the checked constructor would refuse."""
        mean.setflags(write=False)
        cov.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(mean=mean, cov=cov)
        return state

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def to_json(self) -> dict:
        """Serializable dict, format ``gstate-v1`` (cov row-major)."""
        return {
            "version": GSTATE_FORMAT_VERSION,
            "n_modes": self.n_modes,
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict | str) -> "GaussianState":
        if isinstance(data, str):
            data = json.loads(data)
        if data.get("version") != GSTATE_FORMAT_VERSION:
            raise ValueError(f"unsupported state format: {data.get('version')!r}")
        state = cls(mean=np.array(data["mean"]), cov=np.array(data["cov"]))
        if state.n_modes != data["n_modes"]:
            raise ValueError("n_modes field inconsistent with mean length")
        return state


def _check_modes(state, *modes: int):
    """Raise ValueError unless each mode indexes the state and none repeats."""
    for mode in modes:
        if not 0 <= mode < state.n_modes:
            raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")
    if len(set(modes)) != len(modes):
        raise ValueError("the two modes must be distinct")


def _check_beam_splitter(tau: float, rho: float):
    """Raise ValueError unless tau^2 + rho^2 = 1 to STRUCTURAL_TOL; NaN fails too."""
    if not abs(tau * tau + rho * rho - 1.0) <= STRUCTURAL_TOL:
        raise ValueError(f"beam splitter requires tau^2 + rho^2 = 1, got tau={tau}, rho={rho}")


def vacuum(n_modes: int) -> GaussianState:
    """The N-mode vacuum: zero mean, covariance I/2."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(mean=np.zeros(2 * n_modes), cov=VACUUM_VARIANCE * np.eye(2 * n_modes))


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _pair_block(diag, off_ij, off_ji) -> np.ndarray:
    """The 4x4 block [[diag, off_ij], [off_ji, diag]] of a gate on modes (i, j)."""
    s = np.empty((4, 4))
    s[:2, :2] = s[2:, 2:] = diag
    s[:2, 2:], s[2:, :2] = off_ij, off_ji
    return s


def _act(state: GaussianState, modes, block, noise=0.0, shift=0.0, squeezer=None) -> GaussianState:
    """Apply a gate to ``modes`` in O(N): on their quadratures only,
    mean -> block mean + shift and cov -> block cov block^T + noise * I.
    A non-finite result is refused; a squeezer's (name, r) leads the message.
    """
    _check_modes(state, *modes)
    idx = np.array([q for mode in modes for q in (2 * mode, 2 * mode + 1)])
    mean, cov = state.mean.copy(), state.cov.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        mean[idx] = block @ mean[idx] + shift
        cov[idx] = block @ cov[idx]
        cov[:, idx] = cov[:, idx] @ block.T
        cov[idx, idx] += noise
    if not (np.isfinite(mean[idx]).all() and np.isfinite(cov[idx]).all()):
        named = "{} r = {}: ".format(*squeezer) if squeezer else ""
        raise ValueError(f"{named}gate gave a non-finite state (non-finite parameter or overflow)")
    return GaussianState._trusted(mean, cov)


def squeeze(state: GaussianState, mode: int, r: float, phi: float = 0.0) -> GaussianState:
    """Apply a single-mode squeezer to one mode of the state.

    For phi = 0 the X quadrature is scaled by exp(-r) and P by exp(+r), exactly at any r. A
    nonzero phi rotates the squeezed axis to angle phi (rotation conjugation); the squeezed
    variance exp(-2r)/2 then sits among entries of size exp(2r), and its median relative
    error over phi is 2e-7 at r = 6, 5e-4 at r = 8 and O(1) at r = 10.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _act reports a non-finite block
        block = np.diag([np.exp(-r), np.exp(r)])
        if phi != 0.0:
            rot = _rotation(phi)
            block = rot @ block @ rot.T
    return _act(state, (mode,), block, squeezer=("squeeze", r))


def two_mode_squeeze(state: GaussianState, modes: tuple[int, int], r: float) -> GaussianState:
    """Apply a two-mode squeezer to modes (i, j): it correlates positions and
    anticorrelates momenta, (X_i +/- X_j) -> exp(+/- r) and (P_i +/- P_j) -> exp(-/+ r).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _act reports a non-finite block
        ch, sh = np.cosh(r), np.sinh(r)
        off = np.diag([sh, -sh])
        block = _pair_block(ch * np.eye(2), off, off)
    return _act(state, modes, block, squeezer=("two_mode_squeeze", r))


def beam_splitter(
    state: GaussianState, modes: tuple[int, int], tau: float, rho: float
) -> GaussianState:
    """Mix modes (i, j) on a beam splitter: a' = tau a - rho b, b' = tau b + rho a.

    Both X and P pairs mix with the same real (tau, rho); no extra phases.
    """
    _check_beam_splitter(tau, rho)
    return _act(state, modes, _pair_block(tau * np.eye(2), -rho * np.eye(2), rho * np.eye(2)))


def rotate(state: GaussianState, mode: int, theta: float) -> GaussianState:
    """Rotate one mode in phase space by theta (counterclockwise)."""
    return _act(state, (mode,), _rotation(theta))


def displace(state: GaussianState, mode: int, alpha: complex) -> GaussianState:
    """Displace one mode by complex amplitude alpha.

    Shifts the mean by (sqrt(2) Re alpha, sqrt(2) Im alpha); the covariance
    is unchanged.
    """
    alpha = complex(alpha)
    shift = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return _act(state, (mode,), np.eye(2), shift=shift)


def loss_channel(state: GaussianState, mode: int, transmissivity: float) -> GaussianState:
    """Pure-loss channel on one mode (beam splitter with a vacuum ancilla).

    Per-quadrature variance maps as V -> T V + (1 - T)/2, the mean scales
    by sqrt(T), and cross-covariances with other modes scale by sqrt(T).
    """
    t = float(transmissivity)
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    return _act(state, (mode,), np.sqrt(t) * np.eye(2), noise=(1.0 - t) * VACUUM_VARIANCE)


def quadrature_variance(state: GaussianState, mode: int, theta: float) -> float:
    """Variance of the rotated quadrature X_theta = X cos(theta) + P sin(theta)."""
    _check_modes(state, mode)
    c = np.zeros(2 * state.n_modes)
    c[2 * mode] = np.cos(theta)
    c[2 * mode + 1] = np.sin(theta)
    return float(c @ state.cov @ c)


def quadrature_mean(state: GaussianState, mode: int, theta: float) -> float:
    """Mean of the rotated quadrature X_theta."""
    _check_modes(state, mode)
    return float(
        state.mean[2 * mode] * np.cos(theta) + state.mean[2 * mode + 1] * np.sin(theta)
    )


def squeezing_db(variance: float) -> float:
    """Quadrature variance in decibels relative to the vacuum: 10 log10(2V).

    Negative values indicate squeezing below the standard quantum limit.
    """
    if variance <= 0.0:
        raise ValueError("variance must be positive")
    return float(10.0 * np.log10(2.0 * variance))


def infer_effective_loss(v_min: float, v_max: float) -> tuple[float, float]:
    """Explain a measured (min, max) quadrature-variance pair as an ideal
    squeezed state degraded by loss.

    Returns (T, r) such that v_min = T exp(-2r)/2 + (1-T)/2 and
    v_max = T exp(+2r)/2 + (1-T)/2.

    Raises ValueError when v_min * v_max < 1/4 (an uncertainty-principle
    violation) or when the pair cannot come from a lossy pure squeezed
    state (thermal, not squeezed). The degenerate vacuum pair
    v_min = v_max = 1/2 returns (1, 0) by convention.
    """
    if not 0.0 < v_min <= v_max:
        raise ValueError("require 0 < v_min <= v_max")
    product = v_min * v_max
    if product < 0.25 - PHYSICS_TOL:
        raise ValueError(
            f"v_min*v_max = {product:.6g} < 1/4: violation of the uncertainty principle"
        )
    if v_max - v_min <= PHYSICS_TOL:
        # The 2x2 system is rank-deficient at v_min = v_max.
        if abs(v_min - VACUUM_VARIANCE) <= PHYSICS_TOL:
            return 1.0, 0.0
        raise ValueError("equal variances above 1/2: thermal, not squeezed")
    s = v_min + v_max
    t = (0.5 - s + 2.0 * product) / (1.0 - s)
    if t <= 0.0 or t > 1.0 + PHYSICS_TOL:
        raise ValueError("no loss channel on a pure squeezed state fits: thermal, not squeezed")
    t = min(t, 1.0)
    exp_m2r = 2.0 * (v_min - (1.0 - t) * VACUUM_VARIANCE) / t
    if exp_m2r <= 0.0:
        raise ValueError("inferred squeezed variance not positive; inconsistent pair")
    r = -0.5 * np.log(exp_m2r)
    return float(t), float(r)


def _phase_space_points(grid, dim: int) -> np.ndarray:
    """grid as an (M, dim) float array; raises ValueError unless every point is finite."""
    points = np.atleast_2d(np.asarray(grid, dtype=float))
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"grid points must have dimension {dim}, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("grid points must be finite")
    return points


def wigner_gaussian(state: GaussianState, grid) -> np.ndarray:
    """Wigner function of a Gaussian state on the given phase-space points.

    grid is an (M, 2N) array of points ordered like the mean vector; the
    result integrates to 1 over phase space (single-mode vacuum peaks at
    1/pi).
    """
    points = _phase_space_points(grid, 2 * state.n_modes)
    det = np.linalg.det(state.cov)
    if det <= 0 or np.linalg.cond(state.cov) > 1e14:
        raise ValueError("singular covariance matrix")
    prec = np.linalg.inv(state.cov)
    delta = points - state.mean
    quad = np.einsum("mi,ij,mj->m", delta, prec, delta)
    norm = (2.0 * np.pi) ** state.n_modes * np.sqrt(det)
    return np.exp(-0.5 * quad) / norm
