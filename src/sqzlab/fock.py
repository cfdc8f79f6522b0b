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
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _check_beam_splitter, _check_modes, _phase_space_points, _readonly
from .gaussian import displace, squeeze, symplectic_form, two_mode_squeeze, vacuum

MAX_MODES = 3
MAX_CUTOFF = 64

# wigner_fock evaluates this many grid points per pass, which bounds its
# working memory to a few _WIGNER_CHUNK x cutoff arrays.
_WIGNER_CHUNK = 4096

#: The state constructors warn when the cutoff loses more weight than this.
LEAK_TOLERANCE = 1e-6

FSTATE_FORMAT_VERSION = "fstate-v1"


class TruncationWarning(UserWarning):
    """Raised as a warning when a cutoff visibly clips a state."""


class ZeroStateError(ValueError):
    """A state builder or a conditional operation left the zero vector (norm^2 <= 1e-300)."""


@dataclass(frozen=True)
class FockState:
    """A pure state in the truncated photon-number basis.

    Attributes
    ----------
    amps : complex ndarray, shape (d,) * n_modes
        Normalized amplitudes (the constructor refuses |norm^2 - 1| > 1e-9,
        so readers need not divide by the norm); amps[n1, ..., nN]
        multiplies |n1 ... nN>.
    norm_leak : float
        Weight lost to truncation by the cutoff the state was built at (0
        for explicit amplitudes); tensor combines its factors' leaks by
        _carry, and every other operation passes it through.
    """

    amps: np.ndarray
    norm_leak: float = 0.0

    def __post_init__(self):
        amps = _readonly(self.amps, complex)
        if amps.ndim < 1 or amps.ndim > MAX_MODES:
            raise ValueError(f"n_modes must be between 1 and {MAX_MODES}")
        d = amps.shape[0]
        if any(dim != d for dim in amps.shape):
            raise ValueError("all modes must share the same cutoff")
        _check_cutoff(d)
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"state norm^2 = {norm_sq:.8g}, not normalized to within 1e-9")
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


def from_amplitudes(amps) -> FockState:
    """Build a state from explicit amplitudes, normalized."""
    return FockState(amps=_unit(np.asarray(amps, dtype=complex), "from_amplitudes: the input")[0])


def _unit(vec: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """(vec / |vec|, |vec|^2); raises ZeroStateError when |vec|^2 <= 1e-300."""
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq <= 1e-300:
        raise ZeroStateError(f"{what} is the zero vector")
    return vec / np.sqrt(norm_sq), norm_sq


def _carry(old: float, lost: float) -> float:
    """1 - (1 - old)(1 - lost) without its cancellation, so exactly lost when old = 0."""
    return old + lost * (1.0 - old)


def _check_cutoff(cutoff: int) -> None:
    if not 1 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must be between 1 and {MAX_CUTOFF}, got {cutoff}")


def _finalize(raw: np.ndarray, label: str, source) -> FockState:
    """Normalize amplitudes built below a cutoff and record the lost weight. From LEAK_TOLERANCE on it
    warns, naming the cutoff that suggest_cutoff finds for the Gaussian state source() returns, or
    saying that none up to MAX_CUTOFF holds it. When the kept weight is the zero state (see _unit),
    the same words are a ZeroStateError."""
    norm_sq = float(np.vdot(raw, raw).real)
    leak = max(0.0, 1.0 - norm_sq)
    if leak >= LEAK_TOLERANCE:
        hint = f"; no cutoff up to {MAX_CUTOFF} holds it"
        if raw.shape[0] < MAX_CUTOFF:  # at MAX_CUTOFF, suggest_cutoff would build this state again
            try:
                hint = f"; cutoff {suggest_cutoff(source(), LEAK_TOLERANCE)} holds it"
            except ValueError:
                pass
        message = f"{label}: cutoff {raw.shape[0]} loses weight {leak:.3g}{hint}"
        if norm_sq <= 1e-300:
            raise ZeroStateError(message)
        warnings.warn(message, TruncationWarning, stacklevel=3)
    return FockState(amps=raw / np.sqrt(norm_sq), norm_leak=leak)


def _gaussian_amplitudes(state: GaussianState, cutoff: int) -> np.ndarray:
    """<n|psi>, every n_i < cutoff, of a pure Gaussian state: exact, so sum |psi|^2 = 1 - leak.

    sqrt(n_i + 1) psi[n + e_i] = gamma_i psi[n] + sum_j B_ij sqrt(n_j) psi[n - e_j] (Miatto & Quesada,
    Quantum 4, 366 (2020)): B = M (I + N)^-1, M_ij = <da_i da_j>, N_ij = <da_i^dag da_j>, gamma = alpha
    - B alpha*, alpha = <a>, psi[0] = exp(-|alpha|^2/2 + alpha^T* B alpha*/2) det(I + N)^(-1/4). I + N is
    inverted by eigenvalue (each >= 1); one below 1e-12 of the largest is a mode lost to rounding (r ~ 20
    behind a beam splitter), taken as vacuum. Refuses a mixed state, and a sigma beyond float64's reach.
    """
    _check_cutoff(cutoff)
    n, cov = state.n_modes, state.cov
    if n > MAX_MODES:
        raise ValueError(f"n_modes must be between 1 and {MAX_MODES}")
    impurity = np.linalg.eigvalsh(cov + 0.5j * symplectic_form(n))[n - 1]
    if impurity > 1e-10 * max(1.0, float(np.max(np.abs(cov)))):
        raise ValueError(f"from_gaussian: the state is mixed (sigma + i Omega/2 has eigenvalue {impurity:.3g} > 0)")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rows = cov[0::2] + 1j * cov[1::2]  # row i: the covariances of x_i + i p_i
        m = 0.5 * (rows[:, 0::2] + 1j * rows[:, 1::2])
        one_plus_n = 0.5 * (rows.conj()[:, 0::2] + 1j * rows.conj()[:, 1::2] + np.eye(n))
        if not (np.isfinite(m).all() and np.isfinite(one_plus_n).all()):
            raise ValueError("from_gaussian: sigma is beyond float64's reach")
        q, vecs = np.linalg.eigh(one_plus_n)
        q = np.where(q > 1e-12 * q[-1], np.maximum(q, 1.0), np.inf)
        b = m @ (vecs / q) @ vecs.conj().T
        alpha = (state.mean[0::2] + 1j * state.mean[1::2]) / np.sqrt(2.0)
        gamma = alpha - b @ alpha.conj()
        root, psi = np.sqrt(np.arange(cutoff)), np.zeros((cutoff,) * n, dtype=complex)
        log_vacuum = 0.5 * (alpha.conj() @ b @ alpha.conj() - np.vdot(alpha, alpha))
        psi[(0,) * n] = np.exp(log_vacuum - 0.25 * np.sum(np.log(q[q < np.inf])))
        for i in reversed(range(n)):
            line = psi[(0,) * i]  # n_i along axis 0, the modes after i beyond it
            # per later mode j: the slab axes before j's, and B_ij sqrt(n_j) shaped along j's
            later = [((slice(None),) * (j - i - 1), b[i, j] * root[1:].reshape((-1,) + (1,) * (n - j - 1)))
                     for j in range(i + 1, n)]
            for k in range(cutoff - 1):
                # at k = 0 root[0] = 0 meets line[-1], which is still zero
                step = gamma[i] * line[k] + (b[i, i] * root[k]) * line[k - 1]
                for lead, coupling in later:
                    step[lead + (slice(1, None),)] += line[k][lead + (slice(None, -1),)] * coupling
                line[k + 1] = step / root[k + 1]
        norm_sq = float(np.vdot(psi, psi).real)
    if not norm_sq <= 1.0 + 1e-9:  # NaN fails too
        raise ValueError(f"from_gaussian: amplitudes sum to {norm_sq:.3g} > 1; sigma is beyond float64's reach")
    return psi


def from_gaussian(state: GaussianState, cutoff: int) -> FockState:
    """A pure Gaussian state of up to MAX_MODES modes in the number basis, exact below the cutoff and
    independent of it; norm_leak is the exact lost weight (a TruncationWarning from LEAK_TOLERANCE on).
    A mixed state is refused by name."""
    return _finalize(_gaussian_amplitudes(state, cutoff), "from_gaussian", lambda: state)


def coherent_fock(alpha: complex, cutoff: int) -> FockState:
    """Coherent state |alpha> = D(alpha)|0>, column 0 of the displacement kernel: amplitudes
    exp(-|alpha|^2/2) alpha^n / sqrt(n!), exactly real (and alternating for alpha < 0) for real
    alpha, which exact-parity checks downstream rely on."""
    _check_cutoff(cutoff)
    alpha = complex(alpha)
    row = next(_laguerre_rows(np.array([abs(alpha) ** 2]), cutoff))
    return _finalize(row[:, 0] * _phases(alpha, cutoff), "coherent_fock", lambda: displace(vacuum(1), 0, alpha))


def squeezed_vacuum_fock(r: float, cutoff: int) -> FockState:
    """Squeezed vacuum squeeze(vacuum(1), 0, r): amplitude (-tanh r)^m sqrt((2m)!) / (2^m m! sqrt(cosh r)) on |2m>."""
    state = squeeze(vacuum(1), 0, r)
    return _finalize(_gaussian_amplitudes(state, cutoff), "squeezed_vacuum_fock", lambda: state)


def tmsv_fock(r: float, cutoff: int) -> FockState:
    """Two-mode squeezed vacuum two_mode_squeeze(vacuum(2), (0, 1), r): amplitudes tanh^n(r)/cosh(r) on |nn>."""
    state = two_mode_squeeze(vacuum(2), (0, 1), r)
    return _finalize(_gaussian_amplitudes(state, cutoff), "tmsv_fock", lambda: state)


def suggest_cutoff(state: GaussianState, tail_mass: float = 1e-8) -> int:
    """Smallest per-mode cutoff at which from_gaussian(state, cutoff) loses at most tail_mass.

    Cutoff d keeps the amplitudes whose largest photon number is below d, and those do not depend
    on the cutoff, so one conversion at MAX_CUTOFF, binned by that number, gives the kept weight at
    every d. Raises ValueError for a mixed state (by name), and when even MAX_CUTOFF loses more than
    tail_mass.
    """
    weight = np.abs(_gaussian_amplitudes(state, MAX_CUTOFF)) ** 2
    top = np.indices(weight.shape).max(axis=0)
    kept = np.cumsum(np.bincount(top.ravel(), weights=weight.ravel(), minlength=MAX_CUTOFF))
    holds = np.flatnonzero(1.0 - kept <= tail_mass)
    if holds.size == 0:
        raise ValueError(f"suggest_cutoff: no cutoff up to {MAX_CUTOFF} loses at most {tail_mass:.3g}")
    return int(holds[0]) + 1


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


def _beam_splitter_blocks(cutoff: int, theta: float):
    """Yield exp(theta (a b^dag - a^dag b)) as (n_a, n_b, block), one block per total photon number N,
    which the generator conserves, so truncation keeps it unitary. Each block is a real antisymmetric
    tridiagonal K = i theta D C_N D^-1 (Miatto & Quesada, Quantum 4, 366 (2020)), C_N real symmetric with
    sqrt((n_a + 1) n_b) beside the diagonal and D = diag(i^k): exp(K) = Re(D V e^{i theta lambda} (D V)^H)
    from C_N = V diag(lambda) V^T. Orthogonal to 4.4e-15 at d = 64."""
    for total in range(2 * cutoff - 1):
        na = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
        couple = np.sqrt((na[:-1] + 1.0) * (total - na[:-1]))
        vals, vecs = np.linalg.eigh(np.diag(couple, 1) + np.diag(couple, -1))
        # i^k exactly, so the similarity adds no rounding
        dv = np.array([1.0, 1j, -1.0, -1j])[np.arange(na.size) % 4, None] * vecs
        yield na, total - na, ((dv * np.exp(1j * theta * vals)) @ dv.conj().T).real


def beam_splitter_fock(
    state: FockState, modes: tuple[int, int], tau: float, rho: float
) -> FockState:
    """Beam splitter on a pair of modes: a' = tau a - rho b, b' = tau b + rho a.

    Exactly orthogonal on the kept states, but a block of total photon
    number N >= d keeps only 2d - 1 - N of its N + 1 states. The weight the
    untruncated beam splitter would move into the dropped states is not
    added to norm_leak, which passes through unchanged (a Gaussian circuit
    converts exactly by from_gaussian).
    """
    i, j = modes
    _check_modes(state, i, j)
    _check_beam_splitter(tau, rho)
    amps = np.moveaxis(np.asarray(state.amps), (i, j), (0, 1))
    out = np.empty_like(amps)
    for na, nb, block in _beam_splitter_blocks(state.cutoff, float(np.arctan2(rho, tau))):
        out[na, nb] = block @ amps[na, nb]
    out = np.moveaxis(out, (0, 1), (i, j))
    return FockState(amps=out, norm_leak=state.norm_leak)


def _laguerre_rows(y: np.ndarray, cutoff: int):
    """Yield g_n^k(y) = sqrt(n!/(n+k)!) y^(k/2) e^(-y/2) L_n^k(y), k < d - n, row n = 0..d-1.

    <n+k|D(alpha)|n> = g_n^k(|alpha|^2) e^(ik arg alpha) (Cahill & Glauber, Phys. Rev. 177, 1882
    (1969)). Row 0 is the Poisson amplitude and the three-term Laguerre recurrence in n gives the
    rest in place (a yielded row is overwritten two rows on); each is a unitary's element: no overflow.
    """
    k = np.arange(cutoff)[:, None]
    prev, work = np.zeros((cutoff, y.size)), np.empty((cutoff, y.size))
    cur = np.cumprod(np.vstack([np.exp(-0.5 * y), np.sqrt(y) / np.sqrt(k[1:])]), axis=0)
    yield cur
    for n in range(1, cutoff):
        kn, nxt, step = k[: cutoff - n], prev[: cutoff - n], work[: cutoff - n]
        nxt *= -np.sqrt((n - 1) * (n - 1 + kn))
        nxt += np.multiply(np.subtract(2 * n - 1 + kn, y, out=step), cur[: cutoff - n], out=step)
        prev, cur = cur, np.divide(nxt, np.sqrt(n * (n + kn)), out=nxt)
        yield cur


def _phases(alpha: complex, cutoff: int) -> np.ndarray:
    """e^(in arg alpha) for n < cutoff (1 at alpha = 0); the cumulative product keeps a real
    alpha's phases exactly real."""
    unit = alpha / abs(alpha) if alpha else 1.0
    return np.cumprod(np.concatenate(([1.0 + 0.0j], np.full(cutoff - 1, unit))))


def _padded(state: FockState, cutoff: int) -> np.ndarray:
    out = np.zeros((cutoff,) * state.n_modes, dtype=complex)
    out[tuple(slice(0, s) for s in state.amps.shape)] = state.amps
    return out


def overlap(a: FockState, b: FockState) -> complex:
    """Complex inner product <a|b> of the states as unit vectors (the constructor lets norm^2
    differ from 1 by 1e-9); cutoffs are reconciled by zero padding."""
    if a.n_modes != b.n_modes:
        raise ValueError("states have different mode counts")
    d = max(a.cutoff, b.cutoff)
    pa, pb = _padded(a, d), _padded(b, d)
    return complex(np.vdot(pa, pb) / (np.linalg.norm(pa.ravel()) * np.linalg.norm(pb.ravel())))


def fidelity(a: FockState, b: FockState) -> float:
    """Pure-state fidelity |<a|b>|^2."""
    return abs(overlap(a, b)) ** 2


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product of two states (common cutoff via zero padding); both leaks carry."""
    if a.n_modes + b.n_modes > MAX_MODES:
        raise ValueError(f"product would exceed {MAX_MODES} modes")
    d = max(a.cutoff, b.cutoff)
    joint = np.tensordot(_padded(a, d), _padded(b, d), axes=0)
    return FockState(amps=joint, norm_leak=_carry(a.norm_leak, b.norm_leak))


def _mode_rows(state: FockState, mode: int) -> np.ndarray:
    """The amplitudes as a (d, rest) matrix whose row n is the |n> branch of mode."""
    _check_modes(state, mode)
    return np.moveaxis(np.asarray(state.amps), mode, 0).reshape(state.cutoff, -1)


def branch_probabilities(state: FockState, mode: int) -> np.ndarray:
    """Probability of finding n photons in one mode, for n = 0..d-1."""
    rows = _mode_rows(state, mode)
    return np.einsum("nk,nk->n", rows, rows.conj()).real


def project_number(state: FockState, mode: int, n: int) -> tuple[FockState, float]:
    """Photon-number-resolving projection of one mode onto |n>.

    Returns the renormalized remaining state (that mode removed) and the
    outcome probability.
    """
    rows = _mode_rows(state, mode)
    if state.n_modes == 1:
        raise ValueError("cannot project away the only mode")
    if not 0 <= n < state.cutoff:
        raise ValueError("photon number outside the cutoff")
    rest = rows[n].reshape((state.cutoff,) * (state.n_modes - 1))
    amps, prob = _unit(rest, f"project_number: the |{n}> branch of mode {mode}")
    return FockState(amps=amps, norm_leak=state.norm_leak), prob


def herald_click(state: FockState, mode: int) -> tuple[FockState, float]:
    """Condition on a click of a non-number-resolving detector on one mode.

    The click projects the heralding mode onto "at least one photon". For
    pure inputs whose heralding-mode photon number is correlated with the
    rest (heralded photons, tapped kittens), the conditional state is
    approximated by its dominant photon-number branch, which is returned
    renormalized with the heralding mode removed. The returned probability
    is the total click probability (all branches n >= 1). For a
    photon-number-resolving detector, use project_number instead.
    """
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
    rows = _mode_rows(state, mode)
    return rows @ rows.conj().T


def mean_photon_number(state: FockState, mode: int) -> float:
    return float(np.arange(state.cutoff) @ branch_probabilities(state, mode))


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
    vectors = []
    for mode in range(n):
        vectors.append(_apply_single_mode(amps, x_mat, mode))
        vectors.append(_apply_single_mode(amps, p_mat, mode))
    mean = np.array([np.vdot(amps, v).real for v in vectors])
    cov = np.empty((2 * n, 2 * n))
    for i in range(2 * n):
        for j in range(i, 2 * n):
            second = np.vdot(vectors[i], vectors[j]).real
            cov[i, j] = cov[j, i] = second - mean[i] * mean[j]
    return mean, cov


def wigner_fock(state: FockState, grid, mode: int = 0) -> np.ndarray:
    """Wigner function of one mode, exact for the truncated state, on (M, 2) (x, p) points.

    The vacuum peaks at 1/pi. The mode may be entangled: with rho its reduced density matrix
    and beta = sqrt(2)(x + ip), W = (1/pi) sum_{m,n} rho_nm (-1)^n <m|D(beta)|n>
    = (1/pi) [c_0 + 2 Re sum_k e^(ik arg beta) c_k], c_k = sum_n (-1)^n rho_{n,n+k} g_n^k(|beta|^2)
    (Cahill & Glauber), in real arithmetic where rho is real (kittens, squeezed and number states).
    Points are taken by radius, a chunk at a time, with the kernel run once per distinct radius.
    """
    rho = reduced_density_matrix(state, mode)
    rho = rho if rho.imag.any() else rho.real
    points = _phase_space_points(grid, 2)
    d = state.cutoff
    y = 2.0 * np.sum(points**2, axis=1)
    order = np.argsort(y)  # np.unique would import numpy.ma
    out = np.empty(len(points))
    for start in range(0, len(points), _WIGNER_CHUNK):
        chunk = order[start : start + _WIGNER_CHUNK]
        first = np.concatenate(([True], np.diff(y[chunk]) != 0))
        radius = np.cumsum(first) - 1
        coeff = np.zeros((d, radius[-1] + 1), dtype=rho.dtype)
        for n, g in enumerate(_laguerre_rows(y[chunk][first], d)):
            coeff[: d - n] += (-1.0) ** n * rho[n, n:, None] * g
        unit = np.exp(1j * np.arctan2(points[chunk, 1], points[chunk, 0]))
        acc = np.zeros(len(chunk), dtype=complex)
        for k in range(d - 1, 0, -1):
            acc = (acc + coeff[k, radius]) * unit
        out[chunk] = (coeff[0, radius].real + 2.0 * acc.real) / np.pi
    return out
