"""Gaussian engine: state algebra, channels, and structural invariants."""

import json
import math

import numpy as np
import pytest

from sqzlab.gaussian import (
    GaussianState,
    beam_splitter,
    displace,
    infer_effective_loss,
    loss_channel,
    quadrature_variance,
    rotate,
    squeeze,
    squeezing_db,
    symplectic_form,
    two_mode_squeeze,
    vacuum,
    wigner_gaussian,
)

SYM_BS = 1.0 / math.sqrt(2.0)


def _gate_matrix(gate, n_modes=2):
    """The 2N x 2N matrix S that a gate applies, read off column by column:
    the gate maps a state with unit-vector mean e_k to mean S e_k, exactly."""
    cov = 0.5 * np.eye(2 * n_modes)
    return np.column_stack([gate(GaussianState(mean=e, cov=cov)).mean for e in np.eye(2 * n_modes)])


class TestVacuum:
    def test_single_mode_variances(self):
        v = vacuum(1)
        assert quadrature_variance(v, 0, 0.0) == 0.5
        assert quadrature_variance(v, 0, math.pi / 2) == 0.5

    def test_two_mode_cross_covariances_zero(self):
        v = vacuum(2)
        off = v.cov - np.diag(np.diag(v.cov))
        assert np.all(off == 0.0)

    def test_uncertainty_product(self):
        v = vacuum(1)
        prod = quadrature_variance(v, 0, 0.0) * quadrature_variance(v, 0, math.pi / 2)
        assert prod == pytest.approx(0.25, abs=1e-15)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestSqueeze:
    def test_ln2_squeeze_variances(self):
        s = squeeze(vacuum(1), 0, math.log(2.0))
        assert quadrature_variance(s, 0, 0.0) == pytest.approx(0.125, abs=1e-15)
        assert quadrature_variance(s, 0, math.pi / 2) == pytest.approx(2.0, abs=1e-14)

    def test_zero_squeeze_is_identity(self):
        v = vacuum(1)
        s = squeeze(v, 0, 0.0, phi=0.3)
        np.testing.assert_allclose(s.cov, v.cov, atol=1e-15)

    def test_inverse(self):
        s = squeeze(squeeze(vacuum(1), 0, 0.8), 0, -0.8)
        np.testing.assert_allclose(s.cov, vacuum(1).cov, atol=1e-14)

    @pytest.mark.parametrize("phi", [0.0, 0.4, 1.1, math.pi / 2, 2.5])
    def test_squeezed_axis_at_phi(self, phi):
        s = squeeze(vacuum(1), 0, 0.7, phi=phi)
        thetas = np.linspace(0, math.pi, 721, endpoint=False)
        variances = [quadrature_variance(s, 0, t) for t in thetas]
        best = thetas[int(np.argmin(variances))]
        assert min(abs(best - phi % math.pi), math.pi - abs(best - phi % math.pi)) < 0.01
        assert min(variances) == pytest.approx(math.exp(-1.4) / 2, rel=1e-4)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            squeeze(vacuum(1), 1, 0.5)


class TestTwoModeSqueeze:
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
    def test_per_mode_variance_is_thermal(self, r):
        t = two_mode_squeeze(vacuum(2), (0, 1), r)
        # (1 + R^4) / (4 R^2) with R = e^r, equal to cosh(2r)/2
        big_r = math.exp(r)
        expected = (1.0 + big_r**4) / (4.0 * big_r**2)
        for mode in (0, 1):
            for theta in (0.0, math.pi / 2):
                assert quadrature_variance(t, mode, theta) == pytest.approx(expected, rel=1e-12)

    def test_zero_is_identity(self):
        t = two_mode_squeeze(vacuum(2), (0, 1), 0.0)
        np.testing.assert_allclose(t.cov, vacuum(2).cov, atol=1e-15)

    def test_difference_quadrature_squeezed(self):
        # direct evaluation of the sum/difference transforms at r = 0.5
        t = two_mode_squeeze(vacuum(2), (0, 1), 0.5)
        c = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        var_diff = c @ t.cov @ c
        assert var_diff == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)
        c_p = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert c_p @ t.cov @ c_p == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)

    def test_equal_modes_rejected(self):
        with pytest.raises(ValueError):
            two_mode_squeeze(vacuum(2), (1, 1), 0.3)


class TestBeamSplitter:
    def test_tmsv_splits_into_two_squeezed_vacua(self):
        r = 0.8
        t = two_mode_squeeze(vacuum(2), (0, 1), r)
        out = beam_splitter(t, (0, 1), SYM_BS, SYM_BS)
        expected = np.diag(
            [
                math.exp(-2 * r) / 2,
                math.exp(2 * r) / 2,
                math.exp(2 * r) / 2,
                math.exp(-2 * r) / 2,
            ]
        )
        np.testing.assert_allclose(out.cov, expected, atol=1e-12)

    def test_vacuum_invariance(self):
        out = beam_splitter(vacuum(2), (0, 1), 0.6, 0.8)
        np.testing.assert_allclose(out.cov, vacuum(2).cov, atol=1e-15)

    def test_interconversion_reverse(self):
        # two orthogonally squeezed vacua through a symmetric splitter
        # reproduce the two-mode squeezer's covariance
        r = 0.6
        pair = squeeze(squeeze(vacuum(2), 0, -r), 1, r)
        made = beam_splitter(pair, (0, 1), SYM_BS, SYM_BS)
        direct = two_mode_squeeze(vacuum(2), (0, 1), r)
        np.testing.assert_allclose(made.cov, direct.cov, atol=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter(vacuum(2), (0, 1), 0.9, 0.9)

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            beam_splitter(vacuum(2), (0, 2), SYM_BS, SYM_BS)


class TestDisplace:
    def test_displaced_vacuum(self):
        d = displace(vacuum(1), 0, 1.0 + 0.0j)
        np.testing.assert_allclose(d.mean, [math.sqrt(2.0), 0.0], atol=1e-15)
        np.testing.assert_allclose(d.cov, vacuum(1).cov, atol=1e-15)

    def test_zero_identity(self):
        d = displace(vacuum(1), 0, 0.0)
        assert np.all(d.mean == 0.0)

    def test_group_property(self):
        a1, a2 = 0.3 - 0.7j, -1.2 + 0.4j
        via_two = displace(displace(vacuum(1), 0, a1), 0, a2)
        direct = displace(vacuum(1), 0, a1 + a2)
        np.testing.assert_allclose(via_two.mean, direct.mean, atol=1e-14)


class TestLossChannel:
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.0])
    def test_variance_formula(self, r, t):
        s = loss_channel(squeeze(vacuum(1), 0, r), 0, t)
        expected = t * math.exp(-2 * r) / 2 + (1 - t) / 2
        assert quadrature_variance(s, 0, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_half_loss_example(self):
        r = 0.9
        s = loss_channel(squeeze(vacuum(1), 0, r), 0, 0.5)
        assert quadrature_variance(s, 0, 0.0) == pytest.approx(
            0.25 * math.exp(-2 * r) + 0.25, abs=1e-14
        )

    def test_unit_transmission_identity(self):
        s = squeeze(vacuum(1), 0, 0.7)
        out = loss_channel(s, 0, 1.0)
        np.testing.assert_allclose(out.cov, s.cov, atol=1e-15)

    def test_zero_transmission_gives_vacuum(self):
        s = displace(squeeze(vacuum(1), 0, 0.7), 0, 2.0 + 1.0j)
        out = loss_channel(s, 0, 0.0)
        np.testing.assert_allclose(out.cov, vacuum(1).cov, atol=1e-15)
        np.testing.assert_allclose(out.mean, 0.0, atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            loss_channel(vacuum(1), 0, 1.2)

    @pytest.mark.parametrize("t", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("r", [0.2, 1.0])
    def test_loss_never_kills_squeezing(self, t, r):
        s = loss_channel(squeeze(vacuum(1), 0, r), 0, t)
        assert quadrature_variance(s, 0, 0.0) < 0.5

    def test_mean_scales_with_root_t(self):
        s = displace(vacuum(1), 0, 2.0)
        out = loss_channel(s, 0, 0.36)
        np.testing.assert_allclose(out.mean, 0.6 * s.mean, atol=1e-14)

    def test_cross_covariance_scales_with_root_t(self):
        r, t = 0.8, 0.49
        pair = two_mode_squeeze(vacuum(2), (0, 1), r)
        lossy = loss_channel(pair, 0, t)
        assert lossy.cov[0, 2] == pytest.approx(
            0.7 * math.sinh(2 * r) / 2, rel=1e-12
        )
        # the untouched mode keeps its thermal variance
        assert lossy.cov[2, 2] == pytest.approx(math.cosh(2 * r) / 2, rel=1e-12)


class TestRotate:
    def test_quarter_turn_swaps_quadratures(self):
        s = squeeze(vacuum(1), 0, 0.6)
        turned = rotate(s, 0, math.pi / 2)
        assert quadrature_variance(turned, 0, 0.0) == pytest.approx(
            quadrature_variance(s, 0, math.pi / 2), rel=1e-12
        )

    def test_mean_rotates(self):
        from sqzlab.gaussian import quadrature_mean

        d = displace(vacuum(1), 0, 1.0)  # mean along +X
        turned = rotate(d, 0, math.pi / 2)
        assert quadrature_mean(turned, 0, math.pi / 2) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )
        assert quadrature_mean(turned, 0, 0.0) == pytest.approx(0.0, abs=1e-12)


class TestQuadratureVariance:
    def test_vacuum_phase_independent(self):
        v = vacuum(1)
        for theta in np.linspace(0, 2 * math.pi, 17):
            assert quadrature_variance(v, 0, theta) == pytest.approx(0.5, abs=1e-15)

    def test_antisqueezed_quadrature(self):
        r = 0.85
        s = squeeze(vacuum(1), 0, r)
        assert quadrature_variance(s, 0, math.pi / 2) == pytest.approx(
            math.exp(2 * r) / 2, rel=1e-13
        )

    def test_pi_symmetry(self):
        s = squeeze(vacuum(1), 0, 0.5, phi=0.3)
        for theta in (0.1, 0.9, 2.2):
            assert quadrature_variance(s, 0, theta) == pytest.approx(
                quadrature_variance(s, 0, theta + math.pi), rel=1e-13
            )


class TestSqueezingDb:
    def test_reference_points(self):
        assert squeezing_db(0.5) == pytest.approx(0.0, abs=1e-12)
        assert squeezing_db(0.25) == pytest.approx(-3.0103, abs=1e-3)
        assert squeezing_db(0.05) == pytest.approx(-10.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squeezing_db(0.0)


class TestInferEffectiveLoss:
    def test_minimum_uncertainty_pair_is_lossless(self):
        r = 0.7
        t, r_out = infer_effective_loss(math.exp(-2 * r) / 2, math.exp(2 * r) / 2)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert r_out == pytest.approx(r, abs=1e-12)

    def test_vacuum_degenerate_convention(self):
        assert infer_effective_loss(0.5, 0.5) == (1.0, 0.0)

    @pytest.mark.parametrize("t_true", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("r_true", [0.25, 1.0])
    def test_round_trip(self, t_true, r_true):
        s = loss_channel(squeeze(vacuum(1), 0, r_true), 0, t_true)
        v_min = quadrature_variance(s, 0, 0.0)
        v_max = quadrature_variance(s, 0, math.pi / 2)
        t, r = infer_effective_loss(v_min, v_max)
        assert t == pytest.approx(t_true, abs=1e-9)
        assert r == pytest.approx(r_true, abs=1e-9)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            infer_effective_loss(0.1, 0.5)

    def test_thermal_pair_rejected(self):
        with pytest.raises(ValueError, match="thermal"):
            infer_effective_loss(0.8, 0.8)
        with pytest.raises(ValueError, match="thermal"):
            infer_effective_loss(0.6, 0.9)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            infer_effective_loss(0.9, 0.4)


class TestWignerGaussian:
    def test_vacuum_peak(self):
        w = wigner_gaussian(vacuum(1), [[0.0, 0.0]])
        assert w[0] == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_displaced_peak_location(self):
        alpha = 0.9 + 0.4j
        d = displace(vacuum(1), 0, alpha)
        peak_at = [math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag]
        w_peak = wigner_gaussian(d, [peak_at])
        w_off = wigner_gaussian(d, [[0.0, 0.0]])
        assert w_peak[0] == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert w_off[0] < w_peak[0]

    def test_everywhere_nonnegative(self):
        s = squeeze(displace(vacuum(1), 0, 1.0), 0, 1.2)
        xs = np.linspace(-6, 6, 31)
        pts = np.column_stack([np.repeat(xs, 31), np.tile(xs, 31)])
        assert np.all(wigner_gaussian(s, pts) >= 0.0)

    def test_normalization(self):
        s = squeeze(vacuum(1), 0, 0.5)
        xs = np.linspace(-8, 8, 161)
        pts = np.column_stack([np.repeat(xs, 161), np.tile(xs, 161)])
        w = wigner_gaussian(s, pts).reshape(161, 161)
        dx = xs[1] - xs[0]
        assert np.sum(w) * dx * dx == pytest.approx(1.0, abs=1e-6)

    def test_near_singular_covariance_rejected(self):
        # an extreme valid state whose covariance is numerically singular
        state = GaussianState(mean=np.zeros(2), cov=np.diag([1e-8, 2.5e7]))
        with pytest.raises(ValueError, match="singular"):
            wigner_gaussian(state, [[0.0, 0.0]])


class TestSymplecticStructure:
    @pytest.mark.parametrize(
        "op",
        [
            (squeeze, 0, 0.7, 0.0),
            (squeeze, 1, 1.3, 0.9),
            (two_mode_squeeze, (0, 1), 1.1),
            (beam_splitter, (0, 1), 0.6, 0.8),
            (beam_splitter, (0, 1), SYM_BS, SYM_BS),
            (rotate, 1, 2.1),
        ],
    )
    def test_closure(self, op):
        gate, *params = op
        s = _gate_matrix(lambda state: gate(state, *params))
        omega = symplectic_form(2)
        defect = s.T @ omega @ s - omega
        assert np.max(np.abs(defect)) < 1e-10

    def test_composition_stays_symplectic(self):
        a = _gate_matrix(lambda s: squeeze(s, 0, 0.9, 0.4))
        b = _gate_matrix(lambda s: beam_splitter(s, (0, 1), 0.6, 0.8))
        c = _gate_matrix(lambda s: two_mode_squeeze(s, (0, 1), 0.5))
        composed = a @ b @ c
        omega = symplectic_form(2)
        defect = composed.T @ omega @ composed - omega
        assert np.max(np.abs(defect)) < 1e-10

    @pytest.mark.parametrize("r", [0.2, 0.8, 1.5])
    def test_unitaries_preserve_symplectic_eigenvalues(self, r):
        s = two_mode_squeeze(squeeze(vacuum(2), 0, 0.4), (0, 1), r)
        mixed = beam_splitter(s, (0, 1), 0.8, 0.6)
        # the moduli of the eigenvalues of Omega sigma come in pairs (nu, nu)
        omega = symplectic_form(2)
        before = np.sort(np.abs(np.linalg.eigvals(omega @ s.cov)))[::2]
        after = np.sort(np.abs(np.linalg.eigvals(omega @ mixed.cov)))[::2]
        np.testing.assert_allclose(before, after, atol=1e-9)

    @pytest.mark.parametrize("t", [0.0, 0.4, 0.9, 1.0])
    def test_loss_respects_uncertainty(self, t):
        s = loss_channel(squeeze(vacuum(1), 0, 1.5), 0, t)
        nu = np.abs(np.linalg.eigvals(symplectic_form(1) @ s.cov))
        assert np.min(nu) >= 0.5 - 1e-9

    def test_interconversion_round_trip(self):
        # two-mode squeezer equals splitter . (squeeze x antisqueeze) . inverse splitter
        r = 0.75
        inverse_bs = _gate_matrix(lambda s: beam_splitter(s, (0, 1), SYM_BS, -SYM_BS))
        local = _gate_matrix(lambda s: squeeze(s, 0, -r)) @ _gate_matrix(lambda s: squeeze(s, 1, r))
        forward_bs = _gate_matrix(lambda s: beam_splitter(s, (0, 1), SYM_BS, SYM_BS))
        composed = forward_bs @ local @ inverse_bs
        direct = _gate_matrix(lambda s: two_mode_squeeze(s, (0, 1), r))
        np.testing.assert_allclose(composed, direct, atol=1e-10)

    def test_rotation_conjugation_matches_phi_squeeze(self):
        s1 = squeeze(vacuum(1), 0, 0.6, phi=0.8)
        s2 = rotate(squeeze(rotate(vacuum(1), 0, -0.8), 0, 0.6), 0, 0.8)
        np.testing.assert_allclose(s1.cov, s2.cov, atol=1e-13)


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        cov = np.array([[0.5, 0.1], [0.2, 0.5]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(mean=np.zeros(2), cov=cov)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValueError, match="uncertainty"):
            GaussianState(mean=np.zeros(2), cov=0.2 * np.eye(2))

    def test_states_are_immutable(self):
        v = vacuum(1)
        with pytest.raises(ValueError):
            v.cov[0, 0] = 3.0


class TestSerialization:
    def test_round_trip(self):
        s = displace(squeeze(vacuum(2), 0, 0.6, phi=0.2), 1, 1.0 - 0.5j)
        blob = json.dumps(s.to_json())
        back = GaussianState.from_json(json.loads(blob))
        np.testing.assert_allclose(back.mean, s.mean, atol=1e-15)
        np.testing.assert_allclose(back.cov, s.cov, atol=1e-15)

    def test_format_fields(self):
        data = vacuum(1).to_json()
        assert data["version"] == "gstate-v1"
        assert data["n_modes"] == 1
        assert data["cov"] == [[0.5, 0.0], [0.0, 0.5]]

    def test_bad_version_rejected(self):
        data = vacuum(1).to_json()
        data["version"] = "gstate-v9"
        with pytest.raises(ValueError, match="format"):
            GaussianState.from_json(data)
