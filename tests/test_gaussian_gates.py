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
    beam_splitter_op,
    displace,
    loss_channel,
    rotate,
    rotation_op,
    squeeze,
    squeeze_op,
    two_mode_squeeze,
    two_mode_squeeze_op,
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


BUILDERS = {
    "rotation_op": lambda v: rotation_op(2, 0, v),
    "squeeze_op-r": lambda v: squeeze_op(2, 0, v),
    "squeeze_op-phi": lambda v: squeeze_op(2, 0, 0.3, v),
    "two_mode_squeeze_op": lambda v: two_mode_squeeze_op(2, (0, 1), v),
    "beam_splitter_op-tau": lambda v: beam_splitter_op(2, (0, 1), v, 0.0),
    "beam_splitter_op-rho": lambda v: beam_splitter_op(2, (0, 1), 1.0, v),
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


@pytest.mark.parametrize("gate", GATES)
def test_gates_skip_spectrum_check(gate, monkeypatch):
    state = GaussianState(mean=np.zeros(4), cov=np.diag([0.6, 0.9, 0.7, 0.5]))

    def spectrum_called(cov):
        raise AssertionError("a gate ran the O(N^3) uncertainty check")

    monkeypatch.setattr(gaussian, "symplectic_eigenvalues", spectrum_called)
    out = GATES[gate](state, 0.5)
    assert not out.cov.flags.writeable and not out.mean.flags.writeable


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


def _dense(mean, cov, gate):
    """The same gate as a full 2N x 2N map: S sigma S^T, or X sigma X^T + Y."""
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
    s = {
        "squeeze": lambda: squeeze_op(n, modes[0], *params),
        "rotate": lambda: rotation_op(n, modes[0], *params),
        "two_mode_squeeze": lambda: two_mode_squeeze_op(n, modes, *params),
        "beam_splitter": lambda: beam_splitter_op(
            n, modes, math.cos(params[0]), math.sin(params[0])
        ),
    }[name]().matrix
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
