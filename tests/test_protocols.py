"""Protocol pipelines: teleportation, phase readout, state engineering."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from sqzlab import fock, protocols
from sqzlab.fock import fidelity, from_amplitudes, overlap
from sqzlab.gaussian import GaussianState, displace, squeeze, vacuum, wigner_gaussian
from sqzlab.homodyne import wigner_grid
from sqzlab.protocols import (
    detection_efficiency_for_improvement,
    engineer_kitten_superposition,
    gw_phase_readout,
    ideal_even_kitten,
    ideal_odd_kitten,
    make_heralded_photon,
    make_kitten,
    teleport_gaussian,
    teleport_wigner_check,
)


def single_photon(cutoff):
    amps = np.zeros(cutoff)
    amps[1] = 1.0
    return from_amplitudes(amps)


class TestTeleportation:
    def test_classical_benchmark(self):
        assert teleport_gaussian(vacuum(1), 0.0).coherent_fidelity == 0.5

    def test_no_cloning_threshold(self):
        r_star = math.log(2.0) / 2.0
        assert teleport_gaussian(vacuum(1), r_star).coherent_fidelity == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )
        crossing = brentq(
            lambda r: teleport_gaussian(vacuum(1), r).coherent_fidelity - 2.0 / 3.0,
            0.0,
            2.0,
            xtol=1e-12,
        )
        assert crossing == pytest.approx(r_star, abs=1e-9)

    def test_strong_resource_limit(self):
        result = teleport_gaussian(vacuum(1), 10.0)
        assert result.coherent_fidelity > 0.9999
        np.testing.assert_allclose(result.output_state.cov, vacuum(1).cov, atol=1e-8)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.0, 300.0))
    def test_unit_gain_noise_is_exp_minus_2r_to_a_few_ulp(self, r):
        # 0.5(1+g^2)cosh 2r - g sinh 2r cancels to 0 at g = 1 from r = 10 on
        exact = math.exp(-2.0 * r)
        result = teleport_gaussian(vacuum(1), r)
        assert abs(result.added_noise_per_quadrature - exact) <= 4 * math.ulp(exact)
        assert result.coherent_fidelity == pytest.approx(1.0 / (1.0 + exact), rel=1e-15)

    def test_fidelity_monotone_in_resource(self):
        rs = np.linspace(0.0, 3.0, 31)
        fids = [teleport_gaussian(vacuum(1), r).coherent_fidelity for r in rs]
        assert np.all(np.diff(fids) > 0)

    def test_mean_preserved_at_unit_gain(self):
        state = displace(vacuum(1), 0, 1.3 - 0.8j)
        result = teleport_gaussian(state, 0.7)
        np.testing.assert_allclose(result.output_state.mean, state.mean, atol=1e-15)

    def test_fidelity_amplitude_independent(self):
        fids = {
            teleport_gaussian(displace(vacuum(1), 0, alpha), 0.5).coherent_fidelity
            for alpha in (0.0, 1.0, 2.0j)
        }
        assert len(fids) == 1

    def test_added_noise_at_zero_resource(self):
        result = teleport_gaussian(vacuum(1), 0.0)
        assert result.added_noise_per_quadrature == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(result.output_state.cov, 1.5 * np.eye(2), atol=1e-14)

    def test_reported_experiment_inversion(self):
        # fidelity 0.58 corresponds to r about 0.161
        # closed-form unit-gain coherent-state fidelity 1/(1 + exp(-2r))
        r = brentq(lambda x: 1.0 / (1.0 + math.exp(-2.0 * x)) - 0.58, 0.0, 2.0, xtol=1e-12)
        assert r == pytest.approx(-0.5 * math.log(1.0 / 0.58 - 1.0), abs=1e-10)
        assert teleport_gaussian(vacuum(1), r).coherent_fidelity == pytest.approx(0.58, abs=1e-10)

    def test_negative_resource_rejected(self):
        with pytest.raises(ValueError):
            teleport_gaussian(vacuum(1), -0.1)

    def test_multimode_input_rejected(self):
        with pytest.raises(ValueError):
            teleport_gaussian(vacuum(2), 1.0)

    def test_resource_whose_e2r_overflows_rejected(self):
        # ln(DBL_MAX)/2 is the largest r whose e^(2r) is finite
        reach = math.log(np.finfo(float).max) / 2
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as run_scenario runs it
            assert teleport_gaussian(vacuum(1), reach).added_noise_per_quadrature == math.exp(-2.0 * reach)
        for r in (float(np.nextafter(reach, np.inf)), math.nan):
            with pytest.raises(ValueError, match=r"^resource squeezing r = .* is outside \[0, 354\.9\]: e\^\(2r\) overflows"):
                teleport_gaussian(vacuum(1), r)


class TestTeleportWignerCheck:
    def test_coherent_input_agreement(self):
        points, _, _ = wigner_grid(4.0, 21)
        state = displace(vacuum(1), 0, 1.0)
        assert teleport_wigner_check(state, 1.0, points) < 1e-6

    def test_strong_resource_output_matches_input(self):
        points, _, _ = wigner_grid(4.0, 21)
        state = displace(vacuum(1), 0, 0.5 + 0.5j)
        assert teleport_wigner_check(state, 8.0, points) < 1e-4
        out = teleport_gaussian(state, 8.0).output_state
        diff = np.abs(wigner_gaussian(out, points) - wigner_gaussian(state, points))
        assert np.max(diff) < 1e-4

    def test_squeezed_input_agreement(self):
        points, _, _ = wigner_grid(4.0, 21)
        state = squeeze(vacuum(1), 0, 0.6)
        assert teleport_wigner_check(state, 0.5, points) < 1e-6

    def test_coarse_grid_reported(self):
        with pytest.warns(UserWarning, match="coarse"):
            teleport_wigner_check(vacuum(1), 1.0, [[0.0, 0.0]])

    def test_grid_coarser_than_the_output_reported(self):
        # 3 x 3 points over +-4 repeat each x three times, 4 apart
        points, _, _ = wigner_grid(4.0, 3)
        with pytest.warns(UserWarning, match="coarser than the output state's width"):
            teleport_wigner_check(vacuum(1), 1.0, points)

    def test_wrong_channel_detected(self, monkeypatch):
        # a closed form with 1e-3 of extra variance per quadrature must show
        def noisier(state, r, gain=1.0):
            result = teleport_gaussian(state, r, gain)
            out = result.output_state
            wrong = GaussianState(mean=out.mean, cov=out.cov + 1e-3 * np.eye(2))
            return dataclasses.replace(result, output_state=wrong)

        monkeypatch.setattr(protocols, "teleport_gaussian", noisier)
        points, _, _ = wigner_grid(4.0, 21)
        state = displace(vacuum(1), 0, 1.0)
        assert teleport_wigner_check(state, 1.0, points) > 1e-4


class TestGwPhaseReadout:
    def test_zero_phase(self):
        est = gw_phase_readout(0.0, 500.0, 0.5)
        assert est.snr == 0.0
        assert est.signal_displacement == 0.0

    def test_vacuum_dark_port_scaling(self):
        alpha = 1234.0
        est = gw_phase_readout(1e-6, alpha, 0.0, 1.0)
        assert est.readout_variance == pytest.approx(0.5, abs=1e-15)
        assert est.phi_min_detectable == pytest.approx(1.0 / (2.0 * alpha), rel=1e-12)

    def test_ten_db_squeezing_boost(self):
        r = math.log(10.0) / 2.0
        vac = gw_phase_readout(1e-6, 1e3, 0.0, 1.0)
        sqz = gw_phase_readout(1e-6, 1e3, r, 1.0)
        assert sqz.snr / vac.snr == pytest.approx(math.exp(r), abs=1e-6)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.floats(0.0, 300.0), st.floats(0.0, 1.0))
    def test_readout_variance_is_closed_form_to_a_few_ulp(self, r, eta):
        # eta e^(-2r)/2 + (1 - eta)/2, read on the squeezed axis itself, so no
        # e^(2r) times a rounded cos(pi/2) swamps it
        exact = eta * math.exp(-2.0 * r) / 2.0 + (1.0 - eta) / 2.0
        est = gw_phase_readout(1e-6, 1e3, r, eta)
        assert abs(est.readout_variance - exact) <= 4 * math.ulp(exact)
        assert est.snr == pytest.approx(math.sqrt(2.0) * 1e-3 / math.sqrt(exact), rel=1e-14)

    def test_snr_linear_in_alpha_and_phi(self):
        base = gw_phase_readout(1e-6, 1e3, 0.3)
        assert gw_phase_readout(1e-6, 3e3, 0.3).snr == pytest.approx(3 * base.snr, rel=1e-12)
        assert gw_phase_readout(3e-6, 1e3, 0.3).snr == pytest.approx(3 * base.snr, rel=1e-12)

    def test_detection_loss_solver_round_trip(self):
        r = math.log(10.0) / 2.0
        eta = detection_efficiency_for_improvement(r, 2.2)
        assert 0.0 < eta < 1.0
        est = gw_phase_readout(1e-6, 1e3, r, eta)
        improvement = -10.0 * math.log10(2.0 * est.readout_variance)
        assert improvement == pytest.approx(2.2, abs=1e-9)

    def test_solver_rejects_unreachable_improvement(self):
        with pytest.raises(ValueError):
            detection_efficiency_for_improvement(0.1, 3.0)

    def test_nonlinear_phase_warns(self):
        with pytest.warns(UserWarning, match="linearized"):
            gw_phase_readout(0.5, 100.0, 0.0)


class TestHeraldedPhoton:
    def test_high_fidelity_at_small_r(self):
        state, prob = make_heralded_photon(0.05, 12)
        assert fidelity(state, single_photon(12)) > 0.997
        assert prob == pytest.approx(math.tanh(0.05) ** 2, abs=1e-9)

    def test_zero_squeezing_raises(self):
        with pytest.raises(fock.ZeroStateError):
            make_heralded_photon(0.0, 10)

    # the r = 2 end of the sweep cannot hold a 1e-8 tail inside the cutoff
    # wall; the truncation warning is expected and the claim still holds
    @pytest.mark.filterwarnings("ignore::sqzlab.fock.TruncationWarning")
    def test_click_probability_monotone_in_r(self):
        probs = [make_heralded_photon(r, 64)[1] for r in np.linspace(0.1, 2.0, 8)]
        assert np.all(np.diff(probs) > 0)


class TestKitten:
    def test_fidelity_against_ideal_odd_kitten(self):
        state, prob, fid = make_kitten(0.2, 20, 0.05)
        assert fid > 0.95
        assert 0.0 < prob < 1.0

    def test_weak_tap_limit_is_pure_subtraction(self):
        state, _, _ = make_kitten(0.2, 20, 0.01)
        resource = fock.squeezed_vacuum_fock(-0.2, 20)
        subtracted = from_amplitudes(fock.annihilation_matrix(20) @ resource.amps)
        assert fidelity(state, subtracted) > 0.999

    def test_zero_squeezing_raises(self):
        with pytest.raises(ValueError):
            make_kitten(0.0, 10, 0.05)

    def test_click_probability_scales_with_tap(self):
        probs = [make_kitten(0.3, 16, rho)[1] for rho in np.linspace(0.02, 0.1, 5)]
        assert np.all(np.diff(probs) > 0)
        # leading order: probability proportional to rho^2
        assert probs[-1] / probs[0] == pytest.approx(25.0, rel=0.05)

    def test_odd_photon_content(self):
        state, _, _ = make_kitten(0.25, 20, 0.05)
        probs = fock.branch_probabilities(state, 0)
        assert np.sum(probs[0::2]) < 1e-20


class TestKittenSuperposition:
    def test_no_ancilla_reduces_to_kitten(self):
        kitten, _, _ = make_kitten(0.2, 20, 0.05)
        sup = engineer_kitten_superposition(0.2, 0.0, 0.05, 0.05, 20)
        assert fidelity(sup, kitten) == pytest.approx(1.0, abs=1e-12)

    def test_strong_ancilla_keeps_even_kitten(self):
        # ancilla leak (rho_mix * alpha) well above the tap amplitude
        sup = engineer_kitten_superposition(0.2, 0.35, 0.05, 0.2, 20)
        assert fidelity(sup, ideal_even_kitten(math.sqrt(0.2), 20)) > 0.95

    def test_ancilla_phase_flips_relative_sign(self):
        odd = ideal_odd_kitten(math.sqrt(0.2), 20)
        even = ideal_even_kitten(math.sqrt(0.2), 20)
        plus = engineer_kitten_superposition(0.2, 0.05, 0.05, 0.05, 20)
        minus = engineer_kitten_superposition(0.2, -0.05, 0.05, 0.05, 20)
        ratio_plus = overlap(odd, plus) / overlap(even, plus)
        ratio_minus = overlap(odd, minus) / overlap(even, minus)
        assert ratio_plus.real * ratio_minus.real < 0
        assert abs(ratio_plus) == pytest.approx(abs(ratio_minus), rel=1e-9)

    def test_weights_move_with_ancilla_amplitude(self):
        even = ideal_even_kitten(math.sqrt(0.2), 20)
        weights = [
            fidelity(engineer_kitten_superposition(0.2, a, 0.05, 0.1, 20), even)
            for a in (0.0, 0.1, 0.25, 0.45)
        ]
        assert np.all(np.diff(weights) > 0)

    def test_strong_ancilla_warns(self):
        with pytest.warns(UserWarning, match="weak"):
            engineer_kitten_superposition(0.2, 1.0, 0.05, 0.05, 16)


class TestIdealKittens:
    def test_parity_structure(self):
        even = ideal_even_kitten(0.6, 16)
        odd = ideal_odd_kitten(0.6, 16)
        assert np.all(np.asarray(even.amps)[1::2] == 0.0)
        assert np.all(np.asarray(odd.amps)[0::2] == 0.0)

    def test_kittens_orthogonal(self):
        assert fidelity(ideal_even_kitten(0.7, 20), ideal_odd_kitten(0.7, 20)) == 0.0
