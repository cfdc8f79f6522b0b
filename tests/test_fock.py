"""Truncated Fock engine: constructors, operators, cross-engine agreement."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from sqzlab import fock
from sqzlab.fock import (
    FockState,
    TruncationWarning,
    ZeroStateError,
    beam_splitter_fock,
    coherent_fock,
    fidelity,
    from_amplitudes,
    from_gaussian,
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
    beam_splitter,
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


def kitten_superposition_modes():
    """The three modes engineer_kitten_superposition converts, at r = 0.2, ancilla 0.3 + 0.1i and
    both reflectivities 0.1."""
    tau = math.sqrt(1.0 - 0.1**2)
    modes = displace(squeeze(vacuum(3), 0, -0.2), 2, 0.3 + 0.1j)
    return beam_splitter(beam_splitter(modes, (0, 1), tau, 0.1), (1, 2), tau, 0.1)


class TestSuggestCutoff:
    def test_tail_mass_respected(self):
        for state, build in (
            (displace(vacuum(1), 0, 1.2), lambda d: coherent_fock(1.2, d)),
            (squeeze(vacuum(1), 0, 0.8), lambda d: squeezed_vacuum_fock(0.8, d)),
            (two_mode_squeeze(vacuum(2), (0, 1), 0.8), lambda d: tmsv_fock(0.8, d)),
        ):
            d = suggest_cutoff(state, tail_mass=1e-8)
            assert build(d).norm_leak < 1e-6

    @pytest.mark.parametrize(
        "state",
        [pytest.param(squeeze(vacuum(1), 0, r), id=str(r)) for r in (0.3, 0.6, 0.9)]
        + [
            pytest.param(displace(vacuum(1), 0, 1.5), id="coherent-1.5"),
            pytest.param(displace(vacuum(1), 0, 4.0), id="coherent-4.0"),
            pytest.param(two_mode_squeeze(vacuum(2), (0, 1), 0.9), id="tmsv-0.9"),
            pytest.param(kitten_superposition_modes(), id="kitten-superposition"),
        ],
    )
    def test_squeezed_is_smallest(self, state):
        d = suggest_cutoff(state, tail_mass=1e-8)
        assert fock.from_gaussian(state, d).norm_leak <= 1e-8
        assert fock.from_gaussian(state, d - 1).norm_leak > 1e-8

    @pytest.mark.parametrize(
        "state",
        [
            pytest.param(squeeze(vacuum(1), 0, 2.5), id="squeezed-2.5"),
            pytest.param(displace(vacuum(1), 0, 9.0), id="coherent-9.0"),
            pytest.param(two_mode_squeeze(vacuum(2), (0, 1), 2.5), id="tmsv-2.5"),
        ],
    )
    def test_past_the_limit_raises(self, state):
        with pytest.raises(ValueError, match=f"no cutoff up to {fock.MAX_CUTOFF}"):
            suggest_cutoff(state, tail_mass=1e-8)

    def test_mixed_state_is_refused(self):
        with pytest.raises(ValueError, match="from_gaussian: the state is mixed"):
            suggest_cutoff(loss_channel(two_mode_squeeze(vacuum(2), (0, 1), 0.5), 1, 0.5))


class TestTensor:
    def test_carries_both_leaks(self):
        with pytest.warns(TruncationWarning):
            a, b = squeezed_vacuum_fock(0.9, 12), coherent_fock(2.0, 8)
        assert min(a.norm_leak, b.norm_leak) > 1e-3
        kept = (1.0 - a.norm_leak) * (1.0 - b.norm_leak)
        assert tensor(a, b).norm_leak == pytest.approx(1.0 - kept, rel=1e-15)
        # a leak-free factor carries the other leak exactly
        assert tensor(number_state(0, 12), a).norm_leak == a.norm_leak


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
        signal, p2 = project_number(t, 1, 2)
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

    def test_entangled_mode_is_thermal(self):
        # each mode of a two-mode squeezed vacuum is thermal with variance
        # cosh(2r)/2; at cutoff 40 the lost weight tanh(r)^80 is 1.4e-27
        r = 0.5
        pair = tmsv_fock(r, 40)
        axis = np.linspace(-4.0, 4.0, 17)
        pts = np.column_stack([np.repeat(axis, 17), np.tile(axis, 17)])
        var = math.cosh(2.0 * r) / 2.0
        thermal = np.exp(-np.sum(pts**2, axis=1) / (2.0 * var)) / (2.0 * math.pi * var)
        for mode in (0, 1):
            assert np.max(np.abs(wigner_fock(pair, pts, mode=mode) - thermal)) <= 1e-10

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
        tau = math.sqrt(transmission)
        rho = math.sqrt(1.0 - transmission)
        mixed = from_gaussian(beam_splitter(squeeze(vacuum(2), 0, r), (0, 1), tau, rho), 24)
        _, cov_f = quadrature_mean_and_cov(mixed)
        g = loss_channel(squeeze(vacuum(1), 0, r), 0, transmission)
        np.testing.assert_allclose(cov_f[:2, :2], g.cov, atol=1e-6)


class TestLossyPhotonStatistics:
    def test_loss_breaks_parity_but_pairs_still_dominate(self):
        # a squeezed vacuum after loss: odd photon numbers appear (a pair
        # can lose one member) but stay below their even neighbours at
        # low n, the hallmark shape of measured squeezed-vacuum statistics
        mixed = from_gaussian(beam_splitter(squeeze(vacuum(2), 0, 0.8), (0, 1), math.sqrt(0.7), math.sqrt(0.3)), 32)
        probs = np.real(np.diag(fock.reduced_density_matrix(mixed, 0)))
        assert probs[1] > 1e-4 and probs[3] > 1e-5
        assert probs[0] > probs[1]
        assert probs[2] > probs[1] and probs[2] > probs[3]


def gate_overflow(build, r):
    """The refusal of the gate that builds a squeezed family at r, which names the gate and r."""
    gate = "squeeze" if build is squeezed_vacuum_fock else "two_mode_squeeze"
    return f"{gate} r = {r}: gate gave a non-finite state (non-finite parameter or overflow)"


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

    @pytest.mark.parametrize("scale", [0.0, 1e-160])
    def test_zero_norm_refused(self, scale):
        # the one zero-state rule: norm^2 <= 1e-300, here 0 and 1e-320
        with pytest.raises(ZeroStateError, match="from_amplitudes: the input is the zero vector"):
            from_amplitudes(scale * np.eye(4)[2])

    @staticmethod
    def stacked_squeezers():
        """Rotated squeezers whose sigma has lost its small directions to rounding."""
        state = squeeze(squeeze(displace(vacuum(1), 0, -1.9 - 0.4j), 0, 13.7, -0.5), 0, 9.3, -2.7)
        return from_gaussian(displace(state, 0, 1.7 - 1.2j), 20)

    @pytest.mark.parametrize(
        "build, where",
        [(lambda: tmsv_fock(350.0, 12), "tmsv_fock: cutoff 12"), (stacked_squeezers, "from_gaussian: cutoff 20")],
        ids=["tmsv-350", "stacked-squeezers"],
    )
    def test_builder_zero_state_names_the_cutoff(self, build, where):
        # the truncation warning's own words, raised: the kept weight is the zero state
        with pytest.raises(ZeroStateError, match=f"^{where} loses weight 1; no cutoff up to 64 holds it$"):
            build()

    @pytest.mark.parametrize("cutoff", [0, -3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda d: coherent_fock(0.0, d),
            lambda d: coherent_fock(1.0, d),
            lambda d: squeezed_vacuum_fock(0.3, d),
            lambda d: tmsv_fock(0.3, d),
        ],
        ids=["coherent-vacuum", "coherent", "squeezed", "tmsv"],
    )
    def test_family_cutoff_out_of_range(self, build, cutoff):
        with pytest.raises(ValueError, match=f"cutoff must be between 1 and 64, got {cutoff}"):
            build(cutoff)

    @pytest.mark.parametrize("r", [711.0, -1e3])
    @pytest.mark.parametrize("build", [squeezed_vacuum_fock, tmsv_fock], ids=["squeezed", "tmsv"])
    def test_family_squeezing_beyond_cosh_overflow(self, build, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on the way
            with pytest.raises(ValueError, match=f"^{re.escape(gate_overflow(build, r))}$"):
                build(r, 12)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [squeezed_vacuum_fock, tmsv_fock], ids=["squeezed", "tmsv"])
    def test_family_non_finite_squeezing_names_r(self, build, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy invalid-value warning on the way
            with pytest.raises(ValueError, match=f"^{re.escape(gate_overflow(build, r))}$"):
                build(r, 6)

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
