"""Gaussian gates as local updates: trust boundary, bad parameters, and a
property test against the dense S sigma S^T product."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqzlab import gaussian
from sqzlab.gaussian import (
    GaussianState,
    beam_splitter,
    displace,
    loss_channel,
    rotate,
    squeeze,
    two_mode_squeeze,
    vacuum,
)

BAD_STATES = {
    "nan-mean": (np.array([np.nan, 0.0]), 0.5 * np.eye(2), "finite"),
    "inf-cov": (np.zeros(2), np.diag([np.inf, 0.5]), "finite"),
    "asymmetric-cov": (np.zeros(2), np.array([[0.5, 0.1], [0.2, 0.5]]), "symmetric"),
    "sub-vacuum-cov": (np.zeros(2), 0.2 * np.eye(2), "uncertainty"),
}

ENTRY_POINTS = {
    "constructor": lambda mean, cov: GaussianState(mean=mean, cov=cov),
    "from_json": lambda mean, cov: GaussianState.from_json(
        json.dumps(
            {"version": "gstate-v1", "n_modes": 1, "mean": mean.tolist(), "cov": cov.tolist()}
        )
    ),
    "replace": lambda mean, cov: dataclasses.replace(vacuum(1), mean=mean, cov=cov),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", BAD_STATES)
def test_trust_boundary_rejects_bad_arrays(entry, bad):
    mean, cov, message = BAD_STATES[bad]
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](mean, cov)


# each gate with one parameter left free; the splitter's rho follows tau
GATES = {
    "squeeze": lambda s, v: squeeze(s, 0, v),
    "rotate": lambda s, v: rotate(s, 1, v),
    "displace": lambda s, v: displace(s, 1, v),
    "loss_channel": lambda s, v: loss_channel(s, 0, v),
    "two_mode_squeeze": lambda s, v: two_mode_squeeze(s, (1, 0), v),
    "beam_splitter": lambda s, v: beam_splitter(s, (0, 1), v, math.sqrt(abs(1.0 - v * v))),
}


# numpy warns about inf arithmetic (cos(inf), inf * 0) before the gate raises
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_gate_rejects_non_finite_parameter(gate, value):
    with pytest.raises(ValueError):
        GATES[gate](vacuum(2), value)


# every parameter of each symplectic block, one at a time, keyed by the block
# the gate builds from it (the gates build their own blocks)
BUILDERS = {
    "rotation_op": lambda v: rotate(vacuum(2), 0, v),
    "squeeze_op-r": lambda v: squeeze(vacuum(2), 0, v),
    "squeeze_op-phi": lambda v: squeeze(vacuum(2), 0, 0.3, v),
    "two_mode_squeeze_op": lambda v: two_mode_squeeze(vacuum(2), (0, 1), v),
    "beam_splitter_op-tau": lambda v: beam_splitter(vacuum(2), (0, 1), v, 0.0),
    "beam_splitter_op-rho": lambda v: beam_splitter(vacuum(2), (0, 1), 1.0, v),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_builder_rejects_non_finite_parameter(builder, value):
    with pytest.raises(ValueError):
        BUILDERS[builder](value)


def test_squeeze_overflow_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        squeeze(vacuum(1), 0, 400.0)


# the uncertainty check is one Hermitian eigen-solve; no gate may run it
@pytest.mark.parametrize("gate", GATES)
def test_gates_skip_spectrum_check(gate, monkeypatch):
    state = GaussianState(mean=np.zeros(4), cov=np.diag([0.6, 0.9, 0.7, 0.5]))

    def spectrum_called(a):
        raise AssertionError("a gate ran the O(N^3) uncertainty check")

    monkeypatch.setattr(np.linalg, "eigvalsh", spectrum_called)
    with pytest.raises(AssertionError, match="uncertainty check"):
        GaussianState(mean=state.mean, cov=state.cov)
    out = GATES[gate](state, 0.5)
    assert not out.cov.flags.writeable and not out.mean.flags.writeable


# gates must not run the constructor's O(N^3) check, whatever that check calls
@pytest.mark.parametrize("gate", GATES)
def test_gates_skip_the_boundary(gate, monkeypatch):
    state = GaussianState(mean=np.zeros(4), cov=np.diag([0.6, 0.9, 0.7, 0.5]))

    def boundary_called(self):
        raise AssertionError("a gate ran the O(N^3) boundary check")

    monkeypatch.setattr(GaussianState, "__post_init__", boundary_called)
    GATES[gate](state, 0.5)


# -- property test: local updates against the dense reference ------------------

_angle = st.floats(-math.pi, math.pi)
_r = st.floats(-0.6, 0.6)


def _gate(n):
    one = st.integers(0, n - 1)
    kinds = [
        st.tuples(st.just("squeeze"), st.tuples(one), st.tuples(_r, _angle)),
        st.tuples(st.just("rotate"), st.tuples(one), st.tuples(_angle)),
        st.tuples(st.just("displace"), st.tuples(one), st.tuples(st.complex_numbers(max_magnitude=3))),
        st.tuples(st.just("loss_channel"), st.tuples(one), st.tuples(st.floats(0.0, 1.0))),
    ]
    if n > 1:
        pair = st.lists(one, min_size=2, max_size=2, unique=True).map(tuple)
        kinds += [
            st.tuples(st.just("two_mode_squeeze"), pair, st.tuples(_r)),
            st.tuples(st.just("beam_splitter"), pair, st.tuples(_angle)),
        ]
    return st.one_of(kinds)


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 6))
    mean = np.array(draw(st.lists(st.floats(-2, 2), min_size=2 * n, max_size=2 * n)))
    variances = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    gates = draw(st.lists(_gate(n), max_size=12))
    return GaussianState(mean=mean, cov=np.diag(np.repeat(variances, 2))), gates


def _local(state, gate):
    name, modes, params = gate
    if name == "beam_splitter":
        return beam_splitter(state, modes, math.cos(params[0]), math.sin(params[0]))
    args = modes if len(modes) == 1 else (modes,)
    return getattr(gaussian, name)(state, *args, *params)


def _rot(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _dense(mean, cov, gate):
    """The same gate as a full 2N x 2N map: S sigma S^T, or X sigma X^T + Y.
    S is built here from the README conventions, not from the gates' code."""
    name, modes, params = gate
    n = mean.size // 2
    q = [2 * modes[0], 2 * modes[0] + 1]
    if name == "displace":
        shift = np.zeros(2 * n)
        shift[q] = math.sqrt(2.0) * np.array([params[0].real, params[0].imag])
        return mean + shift, cov
    if name == "loss_channel":
        t = params[0]
        x, y = np.eye(2 * n), np.zeros((2 * n, 2 * n))
        x[q, q] = math.sqrt(t)
        y[q, q] = (1.0 - t) / 2.0
        return x @ mean, x @ cov @ x.T + y
    s = np.eye(2 * n)
    a, b = (slice(2 * m, 2 * m + 2) for m in (modes[0], modes[-1]))
    if name == "squeeze":
        r, phi = params
        s[a, a] = _rot(phi) @ np.diag([math.exp(-r), math.exp(r)]) @ _rot(phi).T
    elif name == "rotate":
        s[a, a] = _rot(params[0])
    elif name == "two_mode_squeeze":
        ch, sh = math.cosh(params[0]), math.sinh(params[0])
        s[a, a] = s[b, b] = ch * np.eye(2)
        s[a, b] = s[b, a] = np.diag([sh, -sh])
    else:  # beam splitter at angle params[0]: a' = tau a - rho b, b' = tau b + rho a
        tau, rho = math.cos(params[0]), math.sin(params[0])
        s[a, a] = s[b, b] = tau * np.eye(2)
        s[a, b], s[b, a] = -rho * np.eye(2), rho * np.eye(2)
    return s @ mean, s @ cov @ s.T


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_circuits())
def test_gates_match_dense_reference(circuit):
    state, gates = circuit
    mean, cov = state.mean, state.cov
    for gate in gates:
        state = _local(state, gate)
        mean, cov = _dense(mean, cov, gate)
    scale = np.max(np.abs(cov))
    assert np.max(np.abs(state.cov - cov)) <= 1e-12 * scale
    assert np.max(np.abs(state.mean - mean)) <= 1e-12 * max(scale, np.max(np.abs(mean)))


# -- the uncertainty test at strong squeezing --------------------------------------

SQUEEZED_STATES = {
    "tmsv": lambda r: two_mode_squeeze(vacuum(2), (0, 1), r),
    "split-pair": lambda r: beam_splitter(squeeze(squeeze(vacuum(2), 0, r), 1, -r), (0, 1), 0.6, 0.8),
}
# the state's mean with a given cov, through each entry point of the boundary
REWRAP = {
    "constructor": lambda s, cov: GaussianState(mean=s.mean, cov=cov),
    "from_json": lambda s, cov: GaussianState.from_json(
        json.dumps({**s.to_json(), "cov": np.asarray(cov).tolist()})
    ),
    "replace": lambda s, cov: dataclasses.replace(s, cov=cov),
}


@pytest.mark.parametrize("entry", REWRAP)
@pytest.mark.parametrize("r", [3, 5, 7, 9, 11])
@pytest.mark.parametrize("kind", SQUEEZED_STATES)
def test_strongly_squeezed_states_pass_the_boundary(kind, r, entry):
    state = SQUEEZED_STATES[kind](r)
    again = REWRAP[entry](state, state.cov)
    assert np.array_equal(again.cov, state.cov) and np.array_equal(again.mean, state.mean)


def test_pure_100_mode_chain_passes_the_boundary():
    rng = np.random.default_rng(5)
    state = vacuum(100)
    for _ in range(800):
        i, j = (int(m) for m in rng.choice(100, 2, replace=False))
        if rng.random() < 0.5:
            state = squeeze(state, i, rng.normal(0.0, 1.0))
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            state = beam_splitter(state, (i, j), math.cos(angle), math.sin(angle))
    assert np.max(np.abs(state.cov)) > 1e3
    GaussianState(mean=state.mean, cov=state.cov)


# symplectic eigenvalues scaled to (1 - 2 delta)/2, short of 1/2
@pytest.mark.parametrize("entry", REWRAP)
@pytest.mark.parametrize("r, delta", [(3, 1e-6), (5, 1e-4), (7, 1e-2)])
@pytest.mark.parametrize("kind", SQUEEZED_STATES)
def test_sub_vacuum_deficit_rejected_at_strong_squeezing(kind, r, delta, entry):
    state = SQUEEZED_STATES[kind](r)
    with pytest.raises(ValueError, match="uncertainty"):
        REWRAP[entry](state, (1.0 - 2.0 * delta) * state.cov)
