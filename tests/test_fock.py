"""Truncated Fock engine: constructors, operators, cross-engine agreement."""

import json
import math

import numpy as np
import pytest

from sqzlab import fock
from sqzlab.fock import (
    FockState,
    TruncationWarning,
    ZeroStateError,
    apply_annihilation,
    beam_splitter_fock,
    coherent_fock,
    displace_fock,
    fidelity,
    from_amplitudes,
    herald_click,
    project_number,
    quadrature_mean_and_cov,
    squeezed_vacuum_fock,
    suggest_cutoff,
    tensor,
    tmsv_fock,
    wigner_fock,
)
from sqzlab.gaussian import (
    displace,
    loss_channel,
    squeeze,
    two_mode_squeeze,
    vacuum,
    wigner_gaussian,
)

SYM = 1.0 / math.sqrt(2.0)


def number_state(n, cutoff):
    amps = np.zeros(cutoff)
    amps[n] = 1.0
    return from_amplitudes(amps)


class TestCoherent:
    def test_zero_is_vacuum(self):
        c = coherent_fock(0.0, 8)
        assert c.amps[0] == 1.0
        assert np.all(c.amps[1:] == 0.0)

    def test_mean_photon_number(self):
        # direct sum over the number distribution
        c = coherent_fock(1.0, 20)
        probs = np.abs(np.asarray(c.amps)) ** 2
        mean_n = np.sum(np.arange(20) * probs)
        assert mean_n == pytest.approx(1.0, abs=1e-9)

    def test_real_positive_amplitudes_for_real_alpha(self):
        c = coherent_fock(0.7, 15)
        amps = np.asarray(c.amps)
        assert np.all(amps.imag == 0.0)
        assert np.all(amps.real > 0.0)

    def test_amplitude_formula(self):
        alpha = 0.9 - 0.3j
        c = coherent_fock(alpha, 25)
        expected = np.array(
            [
                math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
                for n in range(25)
            ]
        )
        np.testing.assert_allclose(np.asarray(c.amps), expected, atol=1e-12)

    def test_small_cutoff_warns(self):
        with pytest.warns(TruncationWarning):
            coherent_fock(2.0, 4)


class TestSqueezedVacuum:
    def test_matches_closed_form_coefficients(self):
        r = 0.5
        s = squeezed_vacuum_fock(r, 64)
        for m in range(16):
            expected = (
                (-math.tanh(r)) ** m
                * math.sqrt(math.factorial(2 * m))
                / (2**m * math.factorial(m) * math.sqrt(math.cosh(r)))
            )
            assert s.amps[2 * m] == pytest.approx(expected, rel=1e-12)

    def test_odd_amplitudes_exactly_zero(self):
        s = squeezed_vacuum_fock(0.9, 40)
        assert np.all(np.asarray(s.amps)[1::2] == 0.0)

    def test_small_r_expansion(self):
        r = 1e-3
        s = squeezed_vacuum_fock(r, 10)
        assert s.amps[0] == pytest.approx(1.0, abs=1e-5)
        assert s.amps[2] == pytest.approx(-r / math.sqrt(2.0), rel=1e-5)

    def test_quadrature_variance_from_amplitudes(self):
        s = squeezed_vacuum_fock(0.5, 40)
        _, cov = quadrature_mean_and_cov(s)
        assert cov[0, 0] == pytest.approx(math.exp(-1.0) / 2, abs=1e-8)
        assert cov[1, 1] == pytest.approx(math.exp(1.0) / 2, abs=1e-8)

    def test_parity_superselection(self):
        assert fock.photon_parity(squeezed_vacuum_fock(1.1, 60), 0) == 1.0


class TestTmsv:
    def test_mean_photon_number(self):
        r = 0.8
        t = tmsv_fock(r, 40)
        for mode in (0, 1):
            assert fock.mean_photon_number(t, mode) == pytest.approx(
                math.sinh(r) ** 2, abs=1e-8
            )

    def test_boltzmann_ratio(self):
        r = 0.7
        t = tmsv_fock(r, 30)
        amps = np.asarray(t.amps)
        diag = amps[np.arange(30), np.arange(30)]
        ratios = np.abs(diag[1:15] / diag[:14]) ** 2
        np.testing.assert_allclose(ratios, math.tanh(r) ** 2, rtol=1e-10)

    def test_off_diagonal_zero(self):
        t = tmsv_fock(0.6, 12)
        amps = np.asarray(t.amps).copy()
        amps[np.arange(12), np.arange(12)] = 0.0
        assert np.all(amps == 0.0)

    def test_small_r_pair_amplitude(self):
        r = 1e-3
        t = tmsv_fock(r, 8)
        assert t.amps[1, 1] / t.amps[0, 0] == pytest.approx(r, rel=1e-6)


class TestSuggestCutoff:
    def test_tail_mass_respected(self):
        for kind, value in (("coherent", 1.2), ("squeezed", 0.8), ("tmsv", 0.8)):
            d = suggest_cutoff(kind, value, tail_mass=1e-8)
            build = {
                "coherent": coherent_fock,
                "squeezed": squeezed_vacuum_fock,
                "tmsv": tmsv_fock,
            }[kind]
            state = build(value, d)
            assert state.norm_leak < 1e-6

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_squeezed_is_smallest(self, r):
        # |2m> carries weight tanh^2m(r) (2m)! / (4^m m!^2 cosh r)
        d = suggest_cutoff("squeezed", r, tail_mass=1e-8)
        assert squeezed_vacuum_fock(r, d).norm_leak <= 1e-8
        assert squeezed_vacuum_fock(r, d - 1).norm_leak > 1e-8

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            suggest_cutoff("thermal", 1.0)


class TestAnnihilation:
    def test_single_photon(self):
        out, weight = apply_annihilation(number_state(1, 6), 0)
        assert weight == pytest.approx(1.0)
        assert out.amps[0] == pytest.approx(1.0)

    def test_even_kitten_becomes_odd_kitten(self):
        alpha = 0.7
        plus = np.asarray(coherent_fock(alpha, 25).amps)
        minus = np.asarray(coherent_fock(-alpha, 25).amps)
        even = from_amplitudes(plus + minus)
        odd = from_amplitudes(plus - minus)
        subtracted, _ = apply_annihilation(even, 0)
        assert fidelity(subtracted, odd) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_raises(self):
        with pytest.raises(ZeroStateError):
            apply_annihilation(number_state(0, 5), 0)

    def test_weight_is_mean_photon_number(self):
        c = coherent_fock(0.9, 30)
        _, weight = apply_annihilation(c, 0)
        assert weight == pytest.approx(0.81, abs=1e-9)


class TestBeamSplitterFock:
    def test_single_photon_block(self):
        # the one-photon subspace transforms by ((tau, -rho), (rho, tau))
        tau, rho = 0.8, 0.6
        st10 = tensor(number_state(1, 4), number_state(0, 4))
        st01 = tensor(number_state(0, 4), number_state(1, 4))
        out10 = np.asarray(beam_splitter_fock(st10, (0, 1), tau, rho).amps)
        out01 = np.asarray(beam_splitter_fock(st01, (0, 1), tau, rho).amps)
        assert out10[1, 0] == pytest.approx(tau, abs=1e-12)
        assert out10[0, 1] == pytest.approx(rho, abs=1e-12)
        assert out01[1, 0] == pytest.approx(-rho, abs=1e-12)
        assert out01[0, 1] == pytest.approx(tau, abs=1e-12)

    def test_hong_ou_mandel(self):
        st = tensor(number_state(1, 5), number_state(1, 5))
        out = np.asarray(beam_splitter_fock(st, (0, 1), SYM, SYM).amps)
        assert abs(out[1, 1]) < 1e-12
        assert out[2, 0] == pytest.approx(-SYM, abs=1e-12)
        assert out[0, 2] == pytest.approx(SYM, abs=1e-12)

    def test_vacuum_fixed_point(self):
        st = tensor(number_state(0, 4), number_state(0, 4))
        out = beam_splitter_fock(st, (0, 1), 0.6, 0.8)
        assert out.amps[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_norm_and_total_photon_number_preserved(self):
        st = tensor(coherent_fock(0.8, 16), squeezed_vacuum_fock(0.4, 16))
        out = beam_splitter_fock(st, (0, 1), SYM, SYM)
        assert np.vdot(out.amps, out.amps).real == pytest.approx(1.0, abs=1e-12)
        totals_in = np.zeros(31)
        totals_out = np.zeros(31)
        amps_in = np.abs(np.asarray(st.amps)) ** 2
        amps_out = np.abs(np.asarray(out.amps)) ** 2
        for i in range(16):
            for j in range(16):
                totals_in[i + j] += amps_in[i, j]
                totals_out[i + j] += amps_out[i, j]
        np.testing.assert_allclose(totals_in, totals_out, atol=1e-12)

    def test_non_unitary_rejected(self):
        st = tensor(number_state(0, 3), number_state(0, 3))
        with pytest.raises(ValueError):
            beam_splitter_fock(st, (0, 1), 0.9, 0.5)


class TestDisplaceFock:
    def test_matches_coherent_constructor(self):
        alpha = 0.8 + 0.3j
        d = displace_fock(number_state(0, 30), 0, alpha)
        assert fidelity(d, coherent_fock(alpha, 30)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_identity(self):
        st = squeezed_vacuum_fock(0.5, 20)
        out = displace_fock(st, 0, 0.0)
        np.testing.assert_allclose(np.asarray(out.amps), np.asarray(st.amps), atol=1e-14)

    def test_inverse(self):
        st = squeezed_vacuum_fock(0.4, 30)
        back = displace_fock(displace_fock(st, 0, 0.9), 0, -0.9)
        assert fidelity(back, st) == pytest.approx(1.0, abs=1e-8)

    def test_unitary_on_truncated_space(self):
        d = fock.displacement_matrix(1.3 - 0.4j, 18)
        np.testing.assert_allclose(d @ d.conj().T, np.eye(18), atol=1e-12)

    def test_cutoff_overflow_warns(self):
        with pytest.warns(TruncationWarning):
            displace_fock(number_state(0, 6), 0, 2.5)


class TestFidelity:
    def test_self_fidelity(self):
        s = squeezed_vacuum_fock(0.7, 30)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(number_state(0, 5), number_state(1, 5)) == 0.0

    def test_even_kitten_close_to_squeezed_vacuum(self):
        alpha = 0.5
        plus = np.asarray(coherent_fock(alpha, 30).amps)
        minus = np.asarray(coherent_fock(-alpha, 30).amps)
        even = from_amplitudes(plus + minus)
        # the matching orientation squeezes the momentum quadrature
        assert fidelity(squeezed_vacuum_fock(-alpha**2, 30), even) > 0.99

    def test_cutoff_padding(self):
        a = coherent_fock(0.5, 10)
        b = coherent_fock(0.5, 25)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-8)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(number_state(0, 4), tmsv_fock(0.1, 4))


class TestHerald:
    def test_tmsv_click_gives_single_photon(self):
        r = 0.1
        signal, p_click = herald_click(tmsv_fock(r, 20), mode=1)
        bound = 1.0 - math.tanh(r) ** 2
        assert fidelity(signal, number_state(1, 20)) >= bound

    def test_click_probability_matches_amplitude_sum(self):
        r = 0.4
        t = tmsv_fock(r, 30)
        _, p_click = herald_click(t, mode=1)
        diag = np.abs(np.asarray(t.amps)[np.arange(30), np.arange(30)]) ** 2
        assert p_click == pytest.approx(np.sum(diag[1:]), abs=1e-12)
        assert p_click == pytest.approx(1.0 - 1.0 / math.cosh(r) ** 2, abs=1e-9)

    def test_vacuum_input_raises(self):
        st = tensor(number_state(0, 5), number_state(0, 5))
        with pytest.raises(ZeroStateError):
            herald_click(st, mode=1)

    def test_number_resolved_projection(self):
        t = tmsv_fock(0.5, 25)
        signal, p2 = herald_click(t, mode=1, n_resolved=2)
        assert fidelity(signal, number_state(2, 25)) == pytest.approx(1.0, abs=1e-12)
        diag = np.abs(np.asarray(t.amps)[np.arange(25), np.arange(25)]) ** 2
        assert p2 == pytest.approx(diag[2], abs=1e-12)

    def test_project_number_probability_conservation(self):
        t = tmsv_fock(0.6, 20)
        total = 0.0
        for n in range(20):
            try:
                _, p = project_number(t, 1, n)
            except ZeroStateError:
                continue
            total += p
        assert total == pytest.approx(1.0, abs=1e-9)


class TestWignerFock:
    def test_vacuum_origin(self):
        w = wigner_fock(number_state(0, 10), [[0.0, 0.0]])
        assert w[0] == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_single_photon_negative_origin(self):
        w = wigner_fock(number_state(1, 10), [[0.0, 0.0]])
        assert w[0] == pytest.approx(-1.0 / math.pi, abs=1e-9)

    def test_matches_gaussian_engine_for_squeezed_vacuum(self):
        r = 0.4
        s_fock = squeezed_vacuum_fock(r, 64)
        s_gauss = squeeze(vacuum(1), 0, r)
        axis = np.linspace(-3.0, 3.0, 21)
        pts = np.column_stack([np.repeat(axis, 21), np.tile(axis, 21)])
        np.testing.assert_allclose(
            wigner_fock(s_fock, pts), wigner_gaussian(s_gauss, pts), atol=1e-6
        )

    def test_entangled_mode_rejected(self):
        with pytest.raises(ValueError, match="entangled"):
            wigner_fock(tmsv_fock(0.5, 10), [[0.0, 0.0]], mode=0)

    def test_product_state_mode_extraction(self):
        st = tensor(number_state(1, 10), coherent_fock(0.4, 10))
        w = wigner_fock(st, [[0.0, 0.0]], mode=0)
        assert w[0] == pytest.approx(-1.0 / math.pi, abs=1e-9)


class TestPerturbativeVarianceChecks:
    def test_two_photon_admixture_variance(self):
        # |0> - (s/sqrt 2)|2>, normalized: Var(X) = 1/2 - s + O(s^2)
        s = 0.01
        amps = np.zeros(12)
        amps[0] = 1.0
        amps[2] = -s / math.sqrt(2.0)
        state = from_amplitudes(amps)
        _, cov = quadrature_mean_and_cov(state)
        # the quadratic remainder is exactly +s^2 for this state
        assert abs(cov[0, 0] - (0.5 - s)) <= 1.5 * s**2
        assert cov[0, 0] == pytest.approx(0.5 - s, abs=2e-4)

    def test_pair_admixture_two_mode_correlation(self):
        # |00> + s|11>: Var((X_a - X_b)/sqrt 2) = 1/2 - s + O(s^2)
        s = 0.01
        amps = np.zeros((8, 8))
        amps[0, 0] = 1.0
        amps[1, 1] = s
        state = from_amplitudes(amps)
        _, cov = quadrature_mean_and_cov(state)
        c = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
        corr = c @ cov @ c
        assert abs(corr - (0.5 - s)) <= 1.5 * s**2
        assert corr == pytest.approx(0.5 - s, abs=2e-4)


class TestCrossEngineMoments:
    def test_coherent(self):
        alpha = 0.8 + 0.2j
        mean_f, cov_f = quadrature_mean_and_cov(coherent_fock(alpha, 40))
        g = displace(vacuum(1), 0, alpha)
        np.testing.assert_allclose(mean_f, g.mean, atol=1e-6)
        np.testing.assert_allclose(cov_f, g.cov, atol=1e-6)

    def test_squeezed(self):
        mean_f, cov_f = quadrature_mean_and_cov(squeezed_vacuum_fock(0.7, 40))
        g = squeeze(vacuum(1), 0, 0.7)
        np.testing.assert_allclose(mean_f, g.mean, atol=1e-6)
        np.testing.assert_allclose(cov_f, g.cov, atol=1e-6)

    def test_tmsv(self):
        mean_f, cov_f = quadrature_mean_and_cov(tmsv_fock(0.6, 40))
        g = two_mode_squeeze(vacuum(2), (0, 1), 0.6)
        np.testing.assert_allclose(mean_f, g.mean, atol=1e-6)
        np.testing.assert_allclose(cov_f, g.cov, atol=1e-6)

    @pytest.mark.parametrize("transmission", [0.35, 0.8])
    def test_loss_via_ancilla_splitter(self, transmission):
        # loss = beam splitter to a vacuum ancilla, ancilla left untraced;
        # signal-mode moments agree with the Gaussian loss channel
        r = 0.5
        st = tensor(squeezed_vacuum_fock(r, 24), number_state(0, 24))
        tau = math.sqrt(transmission)
        rho = math.sqrt(1.0 - transmission)
        mixed = beam_splitter_fock(st, (0, 1), tau, rho)
        _, cov_f = quadrature_mean_and_cov(mixed)
        g = loss_channel(squeeze(vacuum(1), 0, r), 0, transmission)
        np.testing.assert_allclose(cov_f[:2, :2], g.cov, atol=1e-6)


class TestLossyPhotonStatistics:
    def test_loss_breaks_parity_but_pairs_still_dominate(self):
        # a squeezed vacuum after loss: odd photon numbers appear (a pair
        # can lose one member) but stay below their even neighbours at
        # low n, the hallmark shape of measured squeezed-vacuum statistics
        st = tensor(squeezed_vacuum_fock(0.8, 32), number_state(0, 32))
        mixed = beam_splitter_fock(st, (0, 1), math.sqrt(0.7), math.sqrt(0.3))
        probs = np.real(np.diag(fock.reduced_density_matrix(mixed, 0)))
        assert probs[1] > 1e-4 and probs[3] > 1e-5
        assert probs[0] > probs[1]
        assert probs[2] > probs[1] and probs[2] > probs[3]


class TestValidationAndSerialization:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            FockState(amps=np.zeros(4))

    def test_mode_limit(self):
        with pytest.raises(ValueError):
            FockState(amps=np.zeros((2, 2, 2, 2)))

    def test_cutoff_limit(self):
        with pytest.raises(ValueError):
            from_amplitudes(np.ones(100))

    def test_round_trip(self):
        st = tmsv_fock(0.5, 12)
        blob = json.dumps(st.to_json())
        back = FockState.from_json(json.loads(blob))
        np.testing.assert_allclose(np.asarray(back.amps), np.asarray(st.amps), atol=1e-15)

    def test_format_fields(self):
        data = coherent_fock(0.3, 5).to_json()
        assert data["version"] == "fstate-v1"
        assert data["n_modes"] == 1 and data["cutoff"] == 5
        assert len(data["amps_re"]) == 5

    def test_bad_version(self):
        data = coherent_fock(0.3, 5).to_json()
        data["version"] = "other"
        with pytest.raises(ValueError, match="format"):
            FockState.from_json(data)
