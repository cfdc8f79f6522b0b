"""Device models: pump field, single-pass gain, cavity figures, OPA spectrum."""

import math

import numpy as np
import pytest
import scipy.constants

from sqzlab import devices
from sqzlab.devices import (
    CavityConfig,
    CrystalConfig,
    OpaConfig,
    PumpConfig,
    cavity_figures,
    effective_gaussian_state,
    opa_spectrum,
    pump_field_amplitude,
    single_pass_r,
)
from sqzlab.gaussian import infer_effective_loss, quadrature_variance, squeezing_db


def test_constants_equal_scipy_values():
    assert devices.SPEED_OF_LIGHT == scipy.constants.c
    assert devices.VACUUM_PERMITTIVITY == scipy.constants.epsilon_0


@pytest.fixture
def ppktp():
    return CrystalConfig(
        chi_eff=14e-12, refractive_index=1.8, length=5e-3, signal_wavelength=780e-9
    )


@pytest.fixture
def pump_100mw():
    return PumpConfig(power=0.1, waist_radius=50e-6)


class TestPumpField:
    def test_intensity_anchor(self, ppktp, pump_100mw):
        intensity, _ = pump_field_amplitude(pump_100mw, ppktp)
        assert intensity == pytest.approx(1.3e7, rel=0.03)

    def test_amplitude_anchor(self, ppktp, pump_100mw):
        _, amplitude = pump_field_amplitude(pump_100mw, ppktp)
        assert amplitude == pytest.approx(3.6e4, rel=0.05)

    def test_sqrt_power_law(self, ppktp, pump_100mw):
        _, a1 = pump_field_amplitude(pump_100mw, ppktp)
        _, a2 = pump_field_amplitude(PumpConfig(power=0.2, waist_radius=50e-6), ppktp)
        assert a2 / a1 == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestSinglePassGain:
    def test_ppktp_anchor(self, ppktp, pump_100mw):
        assert single_pass_r(ppktp, pump_100mw) == pytest.approx(1.1e-2, rel=0.15)

    def test_length_linearity(self, ppktp, pump_100mw):
        doubled = CrystalConfig(
            chi_eff=14e-12, refractive_index=1.8, length=10e-3, signal_wavelength=780e-9
        )
        assert single_pass_r(doubled, pump_100mw) == pytest.approx(
            2.0 * single_pass_r(ppktp, pump_100mw), rel=1e-12
        )

    def test_quadruple_power_doubles_gain(self, ppktp, pump_100mw):
        x4 = PumpConfig(power=0.4, waist_radius=50e-6)
        assert single_pass_r(ppktp, x4) == pytest.approx(
            2.0 * single_pass_r(ppktp, pump_100mw), rel=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrystalConfig(chi_eff=-1e-12, refractive_index=1.8, length=5e-3, signal_wavelength=780e-9)
        with pytest.raises(ValueError, match="plausible"):
            CrystalConfig(chi_eff=1e-8, refractive_index=1.8, length=5e-3, signal_wavelength=780e-9)


class TestCavityFigures:
    def test_bowtie_anchor(self):
        fig = cavity_figures(CavityConfig(0.3, 0.005, 0.015))
        assert fig.fsr == pytest.approx(1e9, rel=0.01)
        assert fig.finesse == pytest.approx(math.pi / 0.02, rel=1e-12)
        assert fig.finesse == pytest.approx(157.0, rel=0.01)
        assert fig.gamma == pytest.approx(6e6, rel=0.10)
        assert fig.escape_efficiency == 0.75

    def test_weak_coupling_guard(self):
        with pytest.raises(ValueError):
            CavityConfig(0.3, 0.3, 0.3)


class TestOpaSpectrum:
    def test_threshold_squeezing_floor(self):
        opa = OpaConfig(gamma=6.4e6, eta=0.75, pump_ratio=1.0)
        spec = opa_spectrum(opa, [0.0])
        assert spec.v_minus[0] == pytest.approx(0.125, abs=1e-15)
        assert squeezing_db(spec.v_minus[0]) == pytest.approx(-6.02, abs=0.01)

    def test_no_pump_is_vacuum(self):
        opa = OpaConfig(gamma=5e6, eta=0.9, pump_ratio=0.0)
        spec = opa_spectrum(opa, np.linspace(0, 5e7, 11))
        np.testing.assert_allclose(spec.v_plus, 0.5, atol=1e-15)
        np.testing.assert_allclose(spec.v_minus, 0.5, atol=1e-15)

    def test_squeezing_confined_to_linewidth(self):
        opa = OpaConfig(gamma=6.4e6, eta=0.75, pump_ratio=0.9)
        spec = opa_spectrum(opa, [10 * opa.gamma])
        assert spec.v_minus[0] == pytest.approx(0.5, rel=0.04)

    def test_both_curves_approach_sql_at_high_frequency(self):
        opa = OpaConfig(gamma=2e6, eta=0.9, pump_ratio=0.95)
        spec = opa_spectrum(opa, [200 * opa.gamma])
        assert spec.v_minus[0] == pytest.approx(0.5, abs=1e-4)
        assert spec.v_plus[0] == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.99])
    def test_ordering_bounds(self, eta, ratio):
        opa = OpaConfig(gamma=1e6, eta=eta, pump_ratio=ratio)
        spec = opa_spectrum(opa, np.linspace(0, 2e7, 41))
        assert np.all(spec.v_plus >= 0.5 - 1e-14)
        assert np.all(spec.v_minus <= 0.5 + 1e-14)
        assert np.all(spec.v_minus > 0.0)

    def test_monotone_in_frequency(self):
        opa = OpaConfig(gamma=2e6, eta=0.8, pump_ratio=0.8)
        spec = opa_spectrum(opa, np.linspace(0, 2e7, 101))
        assert np.all(np.diff(spec.v_minus) >= -1e-15)

    def test_monotone_in_pump(self):
        floors = [
            opa_spectrum(OpaConfig(2e6, 0.8, ratio), [0.0]).v_minus[0]
            for ratio in np.linspace(0.0, 0.99, 12)
        ]
        assert np.all(np.diff(floors) < 0)

    def test_eta_zero_collapses_to_sql(self):
        spec = opa_spectrum(OpaConfig(2e6, 0.0, 0.9), np.linspace(0, 1e7, 11))
        assert np.all(spec.v_plus == 0.5)
        assert np.all(spec.v_minus == 0.5)

    def test_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            OpaConfig(gamma=1e6, eta=0.5, pump_ratio=1.2)


class TestEffectiveGaussianState:
    def test_no_pump_gives_vacuum(self):
        state = effective_gaussian_state(OpaConfig(1e6, 0.75, 0.0), 0.0)
        np.testing.assert_allclose(state.cov, 0.5 * np.eye(2), atol=1e-15)

    def test_near_singular_flagged(self):
        opa = OpaConfig(gamma=1e6, eta=1.0, pump_ratio=0.999999999)
        with pytest.warns(UserWarning, match="near-singular"):
            effective_gaussian_state(opa, 0.0)

    def test_at_threshold_rejected(self):
        with pytest.raises(ValueError, match="below threshold"):
            effective_gaussian_state(OpaConfig(1e6, 0.75, 1.0), 0.0)

    @pytest.mark.parametrize("nu", [0.0, 5e5, 3e6])
    def test_loss_inference_recovers_eta(self, nu):
        # the OPA output at any sideband is exactly a pure squeezed state
        # degraded by a loss channel of transmissivity eta
        opa = OpaConfig(gamma=2e6, eta=0.75, pump_ratio=0.9)
        state = effective_gaussian_state(opa, nu)
        v_min = quadrature_variance(state, 0, 0.0)
        v_max = quadrature_variance(state, 0, math.pi / 2)
        t, _ = infer_effective_loss(v_min, v_max)
        assert t == pytest.approx(0.75, abs=1e-9)

    def test_uncertainty_product_above_minimum_for_lossy(self):
        state = effective_gaussian_state(OpaConfig(2e6, 0.75, 0.9), 0.0)
        v1 = quadrature_variance(state, 0, 0.0)
        v2 = quadrature_variance(state, 0, math.pi / 2)
        assert v1 * v2 > 0.25

    def test_eta_one_is_minimum_uncertainty(self):
        state = effective_gaussian_state(OpaConfig(2e6, 1.0, 0.7), 1e6)
        v1 = quadrature_variance(state, 0, 0.0)
        v2 = quadrature_variance(state, 0, math.pi / 2)
        assert v1 * v2 == pytest.approx(0.25, rel=1e-10)
