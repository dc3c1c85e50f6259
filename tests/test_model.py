import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawmollow.model import (
    HBAR,
    KB,
    AcousticCavity,
    DomainError,
    DriveConfig,
    EmitterParams,
    Frequency,
    Spectrum,
    thermal_occupation,
)


class TestFrequency:
    def test_cycles_round_trip_is_exact(self):
        for hz in [0.134e9, 3.5299e9, 1.75e9, 0.678e9, 7.0, 1e-3, 2.0 ** 40]:
            f = Frequency.from_hz(hz)
            assert Frequency.from_hz(f.hz).hz == hz
            assert f.hz == hz

    def test_rad_construction_round_trip(self):
        f = Frequency(1.23e10)
        assert Frequency(f.rad).rad == f.rad

    def test_cycles_to_rad_is_single_multiplication(self):
        f = Frequency.from_hz(3.5299e9)
        assert f.rad == 2.0 * math.pi * 3.5299e9

    def test_ghz_accessor(self):
        assert Frequency.from_ghz(3.5299).ghz == pytest.approx(3.5299, rel=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Frequency(float("nan"))
        with pytest.raises(DomainError):
            Frequency.from_hz(float("inf"))

    def test_signed_values_allowed(self):
        assert Frequency.from_ghz(-2.36).rad < 0

    def test_equality_on_rad(self):
        assert Frequency.from_hz(1e9) == Frequency(Frequency.from_hz(1e9).rad)

    def test_numpy_scalars_stored_as_python_floats(self):
        """A grid value from linspace must not carry numpy scalar arithmetic
        into the solvers."""
        x = np.linspace(0.5, 5.5, 11)[3] * 1e9
        for f in (Frequency(x), Frequency(x, np.float64(x / 7.0))):
            assert type(f.rad) is float and type(f.hz) is float
        assert Frequency(x).rad == x


class TestThermalOccupation:
    def test_acoustic_mode_at_1_kelvin(self):
        m = thermal_occupation(Frequency.from_ghz(3.5299), 1.0)
        assert m == pytest.approx(5.4, abs=0.1)

    def test_acoustic_mode_at_100_millikelvin(self):
        m = thermal_occupation(Frequency.from_ghz(3.5299), 0.1)
        assert m == pytest.approx(0.2, abs=0.05)

    def test_vanishes_at_low_temperature(self):
        assert thermal_occupation(Frequency.from_ghz(3.5299), 1e-3) < 1e-60

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            thermal_occupation(Frequency.from_ghz(3.5299), 0.0)
        with pytest.raises(DomainError):
            thermal_occupation(Frequency.from_ghz(3.5299), -1.0)
        with pytest.raises(DomainError):
            thermal_occupation(Frequency(0.0), 1.0)
        # hbar omega / kB T = 1.7e4 overflows exp().
        with pytest.raises(DomainError, match="temperature too low"):
            thermal_occupation(Frequency.from_ghz(3.5299), 1e-5)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=150, deadline=None)
    def test_increasing_in_temperature(self, t1, t2):
        w = Frequency.from_ghz(3.5299)
        lo, hi = sorted([t1, t2])
        if lo == hi:
            return
        assert thermal_occupation(w, lo) < thermal_occupation(w, hi)

    @given(st.floats(0.1, 50.0), st.floats(0.1, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_decreasing_in_frequency(self, g1, g2):
        lo, hi = sorted([g1, g2])
        if lo == hi:
            return
        assert (thermal_occupation(Frequency.from_ghz(hi), 1.0)
                < thermal_occupation(Frequency.from_ghz(lo), 1.0))

    @given(st.floats(0.05, 80.0), st.floats(0.02, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_detailed_balance_identity(self, f_ghz, temp):
        w = Frequency.from_ghz(f_ghz)
        m = thermal_occupation(w, temp)
        boltzmann = math.exp(-HBAR * w.rad / (KB * temp))
        assert boltzmann == pytest.approx(m / (m + 1.0), rel=1e-13)


class TestDriveConfig:
    def test_generalized_rabi_marks_the_resonance_detuning(self):
        cfg = DriveConfig.from_ghz(2.36, 2.625, 1.75, 3.5299)
        assert cfg.rabi_R.ghz == pytest.approx(3.53, abs=0.01)

    def test_generalized_rabi_resonant(self):
        cfg = DriveConfig.from_ghz(0.0, 4.2, 0.0, 3.5299)
        assert cfg.rabi_R.rad == cfg.rabi_L.rad

    def test_generalized_rabi_undriven(self):
        cfg = DriveConfig.from_ghz(-1.3, 0.0, 0.0, 3.5299)
        assert cfg.rabi_R.rad == abs(cfg.delta.rad)

    def test_rejects_negative_rabi(self):
        with pytest.raises(DomainError):
            DriveConfig.from_ghz(0.0, -1.0, 0.0, 3.5299)
        with pytest.raises(DomainError):
            DriveConfig.from_ghz(0.0, 1.0, -0.5, 3.5299)

    def test_rejects_nonpositive_acoustic_frequency(self):
        with pytest.raises(DomainError):
            DriveConfig.from_ghz(0.0, 1.0, 0.5, 0.0)

    def test_replace_delta(self):
        cfg = DriveConfig.from_ghz(0.0, 1.0, 0.5, 3.5)
        cfg2 = cfg.replace_delta(1.0e9)
        assert cfg2.delta.rad == 1.0e9
        assert cfg2.rabi_L == cfg.rabi_L


class TestEmitterAndCavity:
    def test_emitter_invariants(self):
        with pytest.raises(DomainError):
            EmitterParams.from_ghz(0.0)

    def test_cavity_dissipation(self):
        cav = AcousticCavity(Frequency.from_ghz(3.5299), 12562.0,
                             Frequency.from_ghz(1.2e-3))
        assert cav.dissipation.rad == pytest.approx(cav.omega_S.rad / 12562.0)

    def test_cavity_rejects_bad_quality(self):
        with pytest.raises(DomainError):
            AcousticCavity(Frequency.from_ghz(3.5299), 0.0,
                           Frequency.from_ghz(1e-3))


class TestSpectrumType:
    def test_requires_strictly_increasing_grid(self):
        cfg = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5)
        with pytest.raises(ValueError):
            Spectrum([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], cfg)

    def test_rejects_large_negative_intensity(self):
        cfg = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5)
        with pytest.raises(ValueError):
            Spectrum([0.0, 1.0, 2.0], [1.0, -0.5, 1.0], cfg)

    @pytest.mark.parametrize("freqs, intensity", [
        ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
        ([0.0, 1.0, 2.0], [np.nan] * 3),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0]),
        ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0])])
    def test_rejects_non_finite_values(self, freqs, intensity):
        cfg = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5)
        with pytest.raises(ValueError, match="finite"):
            Spectrum(freqs, intensity, cfg)

    def test_normalization_leaves_out_coherent_lines(self):
        cfg = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5)
        freqs = np.linspace(-1.0, 1.0, 201)
        spec = Spectrum(freqs, np.ones_like(freqs), cfg,
                        coherent_freqs=[0.0], coherent_weights=[2.0])
        assert np.trapezoid(spec.intensity, spec.freqs) == pytest.approx(2.0)
        assert spec.coherent_total == 2.0
