import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from sawmollow.bloch import (
    BlochGenerator,
    ConvergenceError,
    floquet_steady_state,
)
from sawmollow.cooling import (
    AcousticCavity,
    LindbladConfig,
    ResolutionWarning,
    _REL_TOL,
    cooling_map,
    cooling_performance_map,
    cooling_rate_closed_form,
    cooling_rate_from_spectrum,
    cooling_rate_from_table,
    lindblad_steady_state,
)
from sawmollow.dressed import _dressing_cosines
from sawmollow.model import (
    DomainError,
    DriveConfig,
    EmitterParams,
    Frequency,
    TWO_PI,
)
from sawmollow.spectrum import spectrum_map

from grids import uniform_grid

GHZ = TWO_PI * 1e9


@pytest.fixture
def cavity():
    return AcousticCavity(Frequency.from_ghz(3.5299), 12562.0,
                          Frequency.from_ghz(1.2e-3))


class TestSemiclassicalRates:
    def test_zero_detuning_gives_zero_rate(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 2.0, 1.75, 3.5299)
        assert cooling_rate_closed_form(cfg, emitter, 0.3) == 0.0

    def test_sign_flips_with_detuning(self, emitter):
        plus = cooling_rate_closed_form(
            DriveConfig.from_ghz(1.2, 2.0, 1.75, 3.5299), emitter, 0.3)
        minus = cooling_rate_closed_form(
            DriveConfig.from_ghz(-1.2, 2.0, 1.75, 3.5299), emitter, 0.3)
        assert plus == pytest.approx(-minus, rel=1e-14)
        assert minus < 0  # red-detuned laser removes phonons

    def test_degenerate_drive_rejected(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 0.0, 1.75, 3.5299)
        with pytest.raises(DomainError):
            cooling_rate_closed_form(cfg, emitter, 0.3)

    def test_no_acoustic_drive_means_no_phonon_exchange(self, emitter):
        cfg = DriveConfig.from_ghz(-1.0, 2.0, 0.0, 3.5299)
        assert cooling_rate_from_table(cfg, emitter, 0.3) == \
            pytest.approx(0.0, abs=1e-30)

    def test_closed_form_equals_table_sum(self, emitter, rng):
        worst = 0.0
        for _ in range(2000):
            cfg = DriveConfig.from_ghz(
                rng.uniform(0.01, 5.0) * rng.choice([-1.0, 1.0]),
                rng.uniform(0.05, 6.5), rng.uniform(0.05, 3.0),
                rng.uniform(1.0, 6.0))
            a = cooling_rate_closed_form(cfg, emitter, 0.31)
            b = cooling_rate_from_table(cfg, emitter, 0.31)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
        assert worst < 1e-10

    def test_rate_bounded_by_photon_rate(self, emitter, rng):
        for _ in range(200):
            rho = rng.uniform(0.0, 0.5)
            cfg = DriveConfig.from_ghz(
                rng.uniform(-5, 5), rng.uniform(0.01, 6.0),
                rng.uniform(0.0, 3.0), rng.uniform(1.0, 6.0))
            rate = cooling_rate_closed_form(cfg, emitter, rho)
            assert abs(rate) <= 2.0 * emitter.gamma.rad * rho + 1e-30

    def test_symmetric_angles_cancel(self, emitter):
        """theta_L = theta_S = pi/4: detuning factor kills the rate even
        though the acoustic mixing is maximal."""
        cfg = DriveConfig.from_ghz(0.0, 3.5299, 1.75, 3.5299)
        assert cooling_rate_from_table(cfg, emitter, 0.4) == 0.0

    def _rate_argmax(self, emitter, rabi_l, rabi_s):
        deltas = np.linspace(-4.25, -0.25, 81)
        rates = []
        for d in deltas:
            cfg = DriveConfig.from_ghz(d, rabi_l, rabi_s, 3.5299)
            rho = floquet_steady_state(BlochGenerator(cfg, emitter)).mean_rho_ee
            rates.append(abs(cooling_rate_closed_form(cfg, emitter, rho)))
        return deltas[int(np.argmax(rates))]

    def test_weak_drive_rate_peaks_on_the_rabi_resonance(self, emitter):
        """With a narrow acoustic resonance the |rate| ridge pins to the
        contour Omega_R = omega_S."""
        rabi_l = 2.625
        target = -math.sqrt(3.5299 ** 2 - rabi_l ** 2)
        best = self._rate_argmax(emitter, rabi_l, rabi_s=0.4)
        assert best == pytest.approx(target, abs=0.1)

    def test_strong_drive_rate_peaks_beyond_the_contour(self, emitter):
        """At strong acoustic drive the broad resonance factor times the
        growing detuning prefactor pushes the column maximum to larger
        |detuning| than the contour point; guard the documented skew."""
        rabi_l = 2.625
        target = -math.sqrt(3.5299 ** 2 - rabi_l ** 2)
        best = self._rate_argmax(emitter, rabi_l, rabi_s=1.75)
        assert best < target  # strictly beyond the contour on the red side
        assert best == pytest.approx(target, abs=0.7)


class TestRateFromSpectrum:
    def test_symmetric_spectrum_gives_zero(self, emitter, drive_resonant):
        spec = spectrum_map([drive_resonant], emitter, uniform_grid())[0]
        rate = cooling_rate_from_spectrum(spec, drive_resonant.omega_S,
                                          Frequency.from_ghz(1.0))
        assert abs(rate) < 1e-3 * np.trapezoid(spec.intensity, spec.freqs)

    def test_sign_matches_closed_form(self, emitter):
        # Window chosen clear of the +-G satellites (G = 1.30 GHz here);
        # a window edge grazing a satellite shoulder corrupts the baseline.
        for delta in (-2.36, 2.36):
            cfg = DriveConfig.from_ghz(delta, 2.625, 1.75, 3.5299)
            spec = spectrum_map([cfg], emitter, uniform_grid())[0]
            extracted = cooling_rate_from_spectrum(
                spec, cfg.omega_S, Frequency.from_ghz(0.8))
            rho = floquet_steady_state(BlochGenerator(cfg, emitter)).mean_rho_ee
            reference = cooling_rate_closed_form(cfg, emitter, rho)
            assert math.copysign(1.0, extracted) == math.copysign(1.0, reference)

    def test_intensity_weighted_identity_on_resolved_spectra(self):
        """The full phonon-weighted line sum equals twice the bare-sideband
        difference, evaluated on simulated spectra whose nine lines are
        resolved by >= 6.5 linewidths (narrow emitter, weak acoustic drive)."""
        emitter = EmitterParams.from_ghz(0.03)
        freqs = uniform_grid(9.0, 12001)

        def windowed(spec, center, half):
            sel = (spec.freqs >= center - half) & (spec.freqs <= center + half)
            f, y = spec.freqs[sel], spec.intensity[sel]
            base = y[0] + (y[-1] - y[0]) * (f - f[0]) / (f[-1] - f[0])
            return float(np.trapezoid(y - base, f))

        for d, wl, rs in [(-2.8, 2.14, 0.4), (-2.6, 2.3, 0.4),
                          (-3.0, 1.8, 0.4), (2.7, 2.2, 0.5)]:
            cfg = DriveConfig.from_ghz(d, wl, rs, 3.5299)
            ws = cfg.omega_S.rad
            _, _, cos2s, _, gap = _dressing_cosines(cfg)
            assert gap > 6.5 * emitter.gamma.rad  # resolution precondition
            cs2 = 0.5 * (1.0 + cos2s)   # cos^2 theta_S
            ss2 = 0.5 * (1.0 - cos2s)   # sin^2 theta_S
            spec = spectrum_map([cfg], emitter, freqs)[0]
            half = 0.4 * gap
            inten = lambda c: windowed(spec, c, half)
            lhs = (inten(-ws) + 2 * ss2 * inten(-ws + gap)
                   + 2 * cs2 * inten(-ws - gap)
                   + (ss2 - cs2) * inten(gap) + (cs2 - ss2) * inten(-gap)
                   - inten(ws) - 2 * cs2 * inten(ws + gap)
                   - 2 * ss2 * inten(ws - gap))
            rhs = 2.0 * (inten(-ws) - inten(ws))
            assert abs(lhs - rhs) <= 0.05 * max(abs(lhs), abs(rhs))

    def test_warns_when_satellite_enters_window(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 3.0, 1.0, 3.5299)
        spec = spectrum_map([cfg], emitter, uniform_grid())[0]
        with pytest.warns(ResolutionWarning):
            cooling_rate_from_spectrum(spec, cfg.omega_S,
                                       Frequency.from_ghz(1.5))

    def test_rejects_uncovered_sidebands(self, emitter, drive_resonant):
        spec = spectrum_map([drive_resonant], emitter, uniform_grid(2.0))[0]
        with pytest.raises(ValueError):
            cooling_rate_from_spectrum(spec, drive_resonant.omega_S,
                                       Frequency.from_ghz(1.0))


class TestCoolingMap:
    def test_zero_width_average_matches_pointwise(self, emitter):
        template = DriveConfig.from_ghz(0.0, 1.0, 1.75, 3.5299)
        deltas = [Frequency.from_ghz(d) for d in (-3.0, -1.0, 2.0)]
        rabis = [Frequency.from_ghz(r) for r in (1.5, 2.5)]
        cmap = cooling_map(deltas, rabis, emitter, template,
                           diffusion_fwhm=Frequency(0.0))
        for i, d in enumerate(deltas):
            for j, r in enumerate(rabis):
                cfg = DriveConfig(d, r, template.rabi_S, template.omega_S)
                rho = floquet_steady_state(BlochGenerator(cfg, emitter)).mean_rho_ee
                ref = cooling_rate_closed_form(cfg, emitter, rho)
                assert cmap.rate[i, j] == pytest.approx(ref, rel=1e-9)
                assert cmap.rho_ee[i, j] == pytest.approx(rho, rel=1e-9)

    def test_linspace_grid_matches_python_float_drives(self, emitter):
        """Grid axes from linspace give the same rho_ee as drives built from
        Python floats: no numpy scalar reaches the continued fraction."""
        template = DriveConfig.from_ghz(0.0, 1.0, 1.75, 3.5299)
        deltas = np.linspace(-5.0, 5.0, 21) * GHZ
        rabis = np.linspace(0.5, 5.5, 11) * GHZ
        cmap = cooling_map(deltas, rabis, emitter, template)
        for i, d in enumerate(deltas):
            for j, r in enumerate(rabis):
                cfg = DriveConfig(Frequency(float(d)), Frequency(float(r)),
                                  template.rabi_S, template.omega_S)
                rho = floquet_steady_state(BlochGenerator(cfg, emitter),
                                           tol=1e-9).mean_rho_ee
                assert abs(cmap.rho_ee[i, j] - rho) <= 1e-15
                assert cmap.rho_ee[i, j] == rho

    def test_gaussian_average_changes_map_smoothly(self, emitter):
        template = DriveConfig.from_ghz(0.0, 1.0, 1.75, 3.5299)
        deltas = [Frequency.from_ghz(-2.4)]
        rabis = [Frequency.from_ghz(2.6)]
        raw = cooling_map(deltas, rabis, emitter, template)
        averaged = cooling_map(deltas, rabis, emitter, template,
                               diffusion_fwhm=Frequency.from_ghz(0.678),
                               n_nodes=9)
        assert averaged.rate[0, 0] != raw.rate[0, 0]
        assert abs(averaged.rate[0, 0] - raw.rate[0, 0]) < \
            0.5 * abs(raw.rate[0, 0]) + 1e-3 * emitter.gamma.rad

    def test_parallel_jobs_match_serial(self, emitter):
        template = DriveConfig.from_ghz(0.0, 1.0, 1.75, 3.5299)
        deltas = [Frequency.from_ghz(d) for d in (-3.0, -1.0, 2.0)]
        rabis = [Frequency.from_ghz(r) for r in (1.5, 2.5)]
        maps = [cooling_map(deltas, rabis, emitter, template,
                            diffusion_fwhm=Frequency.from_ghz(0.678),
                            n_nodes=3, jobs=jobs) for jobs in (1, 2)]
        assert np.array_equal(maps[0].rate, maps[1].rate)
        assert np.array_equal(maps[0].rho_ee, maps[1].rho_ee)

    def test_failures_raise_their_own_class_with_indices(self, emitter):
        template = DriveConfig.from_ghz(0.0, 1.0, 1.75, 3.5299)
        with pytest.raises(ConvergenceError) as err:
            cooling_map([Frequency.from_ghz(-2.0), Frequency.from_ghz(2.0)],
                        [Frequency.from_ghz(2.0)], emitter, template,
                        floquet_tol=1e-20)
        (note,) = err.value.__notes__
        assert note.startswith("2 of 2 sweep point(s) failed")
        assert "index 0" in note and "index 1" in note

    @pytest.mark.parametrize("deltas, tol, message", [
        ([], 1e-9, "grid must be nonempty"),
        ([Frequency.from_ghz(-2.0)], math.nan, "tol must be positive"),
        ([Frequency.from_ghz(-2.0)], 0.0, "tol must be positive")])
    def test_bad_input_rejected_before_any_solve(self, emitter, monkeypatch,
                                                 deltas, tol, message):
        import sawmollow.cooling as cooling
        monkeypatch.setattr(cooling, "floquet_steady_state", None)
        template = DriveConfig.from_ghz(0.0, 1.0, 1.75, 3.5299)
        with pytest.raises(ValueError, match=message) as err:
            cooling_map(deltas, [Frequency.from_ghz(2.0)], emitter, template,
                        diffusion_fwhm=Frequency.from_ghz(0.678), n_nodes=3,
                        floquet_tol=tol)
        assert not hasattr(err.value, "__notes__")


class TestLindbladSteadyState:
    def test_laser_off_reproduces_thermal_occupation(self, emitter, cavity):
        drive = DriveConfig.from_ghz(-2.0, 0.0, 0.0, 3.5299)
        cfg = LindbladConfig(emitter, drive, cavity, temperature=0.1)
        res = lindblad_steady_state(cfg)
        assert res.m_ss == pytest.approx(res.m_th, rel=1e-6)
        assert res.trace_error < 1e-10
        assert res.min_eigenvalue > -1e-8

    def test_decoupled_phonon_mode_stays_thermal(self, emitter):
        cavity = AcousticCavity(Frequency.from_ghz(3.5299), 12562.0,
                                Frequency(0.0))
        drive = DriveConfig.from_ghz(-2.36, 2.625, 0.0, 3.5299)
        cfg = LindbladConfig(emitter, drive, cavity, temperature=0.1)
        res = lindblad_steady_state(cfg)
        # The thermal state on the solved levels 0..m_max_used; the levels
        # beyond them hold 8e-8 of m_th, below the tail share _REL_TOL.
        levels = np.arange(res.m_max_used + 1)
        weights = (res.m_th / (res.m_th + 1.0)) ** levels
        assert res.m_ss == pytest.approx(levels @ weights / weights.sum(),
                                         rel=1e-9)
        assert res.m_ss == pytest.approx(res.m_th, rel=_REL_TOL)

    def test_detailed_balance_phonon_marginal(self, emitter, cavity):
        """With the laser off the phonon marginal is geometric with ratio
        m_th / (m_th + 1), level by level."""
        drive = DriveConfig.from_ghz(0.0, 0.0, 0.0, 3.5299)
        cfg = LindbladConfig(emitter, drive, cavity, temperature=0.1,
                             m_max=20)
        # the full band (K = m_max) gives the marginal directly, read from
        # the diagonal band cells of both spins
        from sawmollow.cooling import _band_cells, _solve_band
        n_fock = 21
        x = _solve_band(cfg, n_fock, n_fock - 1)[0]
        s, m, t, n, _ = _band_cells(n_fock, n_fock - 1)
        on_diagonal = (s == t) & (m == n)
        marginal = np.bincount(m[on_diagonal], x[on_diagonal].real, n_fock)
        ratio = cfg.m_th / (cfg.m_th + 1.0)
        for k in range(10):
            assert marginal[k + 1] / marginal[k] == pytest.approx(ratio,
                                                                  abs=1e-6)

    def test_steady_state_is_physical(self, emitter, cavity):
        drive = DriveConfig.from_ghz(-2.36, 2.625, 0.0, 3.5299)
        cfg = LindbladConfig(emitter, drive, cavity, temperature=0.1)
        res = lindblad_steady_state(cfg)
        assert res.trace_error < 1e-10
        assert res.min_eigenvalue > -1e-8
        assert res.residual_norm < 1e-8 * cavity.omega_S.rad

    @staticmethod
    def _heated(emitter, g0_mhz):
        """Blue-detuned drive that heats a strongly coupled mode at 0.1 K."""
        cavity = AcousticCavity(Frequency.from_ghz(3.5299), 12562.0,
                                Frequency.from_ghz(g0_mhz / 1e3))
        return LindbladConfig(emitter, DriveConfig.from_ghz(
            2.0, 2.6, 0.0, 3.5299), cavity, temperature=0.1)

    def test_heated_point_grows_its_fock_space(self, emitter):
        # m_ss = 5.8 at the thermal-tail truncation m_max = 11; 15.78 in fact
        cfg = self._heated(emitter, 30.0)
        res = lindblad_steady_state(cfg)
        assert res.m_max_used > cfg.initial_m_max()
        fixed = lindblad_steady_state(replace(cfg, m_max=250))
        assert fixed.m_max_used == 250
        assert res.m_ss == pytest.approx(fixed.m_ss, rel=_REL_TOL)

    def test_growth_rounds_resume_the_band_search(self, emitter, monkeypatch):
        """Each Fock growth round starts at the band K the last one reached:
        the heated point factorizes at most 16 times (44 when every round
        restarted at K = 2) and its m_ss is that of a search from K = 2 at
        the final m_max."""
        from sawmollow import cooling
        factorize = cooling.splu
        calls = []
        monkeypatch.setattr(cooling, "splu", lambda *a, **k: calls.append(1)
                            or factorize(*a, **k))
        cfg = self._heated(emitter, 30.0)
        res = lindblad_steady_state(cfg)
        assert len(calls) <= 16
        _, m_ss, _, band = cooling._band_steady_state(cfg, res.m_max_used + 1)
        assert (res.m_ss, res.band) == (m_ss, band)
        assert res.m_ss == pytest.approx(15.779118104672879, rel=1e-9)

    def test_warm_point_allocates_no_dense_state(self, emitter, cavity):
        """One 4 K solve on cached band operators traces 4.2 MB of Python
        allocations at its peak; one dense (2 n_fock)^2 complex rho is
        12 MB, so a dense state in the solve would show."""
        import tracemalloc
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(
            -2.0, 2.0, 0.0, 3.5299), cavity, temperature=4.0)
        lindblad_steady_state(cfg)   # builds and caches the band operators
        detuned = replace(cfg, drive=DriveConfig.from_ghz(-2.5, 2.0, 0.0,
                                                          3.5299))
        tracemalloc.start()
        try:
            res = lindblad_steady_state(detuned)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = (2 * (res.m_max_used + 1)) ** 2 * 16
        assert res.m_max_used == 435
        assert peak <= 5e6 <= 0.5 * dense

    def test_runaway_point_raises(self, emitter):
        with pytest.raises(ConvergenceError, match="Fock tail"):
            lindblad_steady_state(self._heated(emitter, 50.0))

    def test_cooling_on_red_side_heating_on_blue(self, emitter, cavity):
        d_star = math.sqrt(3.5299 ** 2 - 2.0 ** 2)
        red = lindblad_steady_state(LindbladConfig(
            emitter, DriveConfig.from_ghz(-d_star, 2.0, 0.0, 3.5299),
            cavity, 0.1, m_max=15))
        blue = lindblad_steady_state(LindbladConfig(
            emitter, DriveConfig.from_ghz(d_star, 2.0, 0.0, 3.5299),
            cavity, 0.1, m_max=15))
        assert red.cooling_C < 0
        assert blue.cooling_C > 0

    def test_tail_bound_raises_truncation(self, emitter, cavity):
        drive = DriveConfig.from_ghz(0.0, 0.0, 0.0, 3.5299)
        cfg = LindbladConfig(emitter, drive, cavity, temperature=1.0, m_max=5)
        assert cfg.initial_m_max() > 100  # 1 K thermal tail needs ~110 levels

    def test_bad_inputs_rejected(self, emitter, cavity):
        drive = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5299)
        with pytest.raises(DomainError):
            LindbladConfig(emitter, drive, cavity, temperature=0.0)
        with pytest.raises(DomainError):
            LindbladConfig(emitter, drive, cavity, temperature=1.0, m_max=-1)
        with pytest.raises(DomainError, match="temperature too low"):
            LindbladConfig(emitter, drive, cavity, temperature=1e-5)

    def test_acoustic_drive_rejected(self, emitter, cavity):
        """The master equation has no acoustic drive term, so a drive that
        sets one, or a SAW frequency off the cavity's, is refused rather
        than ignored."""
        for rabi_s, omega_s in [(1.75, 3.5299), (0.25, 3.5299), (0.0, 2.0)]:
            drive = DriveConfig.from_ghz(-2.0, 2.909, rabi_s, omega_s)
            with pytest.raises(DomainError, match="rabi_S|omega_S"):
                LindbladConfig(emitter, drive, cavity, temperature=0.1)


def _dense_liouvillian(cfg: LindbladConfig, m_max: int) -> np.ndarray:
    """The master equation's Liouvillian on column-major vec(rho), built
    densely from numpy kron in the commutator form (basis s * (m_max + 1)
    + m, s = 0 excited)."""
    n = m_max + 1
    b = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sm = np.array([[0.0, 0.0], [1.0, 0.0]])
    i2, i_f = np.eye(2), np.eye(n)
    gamma_s, m_th = cfg.cavity.dissipation.rad, cfg.m_th
    h = (0.5 * cfg.drive.rabi_L.rad * np.kron(sx, i_f)
         - 0.5 * cfg.drive.delta.rad * np.kron(sz, i_f)
         + cfg.cavity.omega_S.rad * np.kron(i2, b.T @ b)
         + 0.5 * cfg.cavity.g0.rad * np.kron(sz, b + b.T))
    jumps = [math.sqrt(cfg.emitter.gamma.rad) * np.kron(sm, i_f),
             math.sqrt(gamma_s * m_th) * np.kron(i2, b.T),
             math.sqrt(gamma_s * (m_th + 1.0)) * np.kron(i2, b)]
    ident = np.eye(2 * n)
    liou = -1j * (np.kron(ident, h) - np.kron(h.T, ident))
    for c in jumps:
        cdc = c.conj().T @ c
        liou += (np.kron(c.conj(), c) - 0.5 * np.kron(ident, cdc)
                 - 0.5 * np.kron(cdc.T, ident))
    return liou


def _dense_m_ss(cfg: LindbladConfig, m_max: int) -> float:
    """m_ss of the dense Liouvillian, with the trace condition replacing
    the (0, 0) population equation, solved by dense LU."""
    n = m_max + 1
    b = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    liou = _dense_liouvillian(cfg, m_max)
    scale = np.abs(liou).max()
    liou[0] = scale * np.eye(2 * n).ravel(order="F")
    rhs = np.zeros(liou.shape[0], dtype=complex)
    rhs[0] = scale
    rho = np.linalg.solve(liou, rhs).reshape((2 * n, 2 * n), order="F")
    return float(np.real(np.trace(np.kron(np.eye(2), b.T @ b) @ rho)))


D_STAR = math.sqrt(3.5299 ** 2 - 2.0 ** 2)   # Rabi resonance at rabi_L = 2


class TestLindbladBandOracle:
    """The band-limited solve against a dense Liouvillian built here."""

    @pytest.mark.parametrize("temperature", [0.1, 1.0])
    @pytest.mark.parametrize("delta, rabi_l", [(-2.0, 0.0), (-D_STAR, 2.0),
                                               (D_STAR, 2.0)],
                             ids=["laser-off", "red", "blue"])
    def test_band_solve_matches_dense_liouvillian(self, emitter, cavity,
                                                  temperature, delta, rabi_l):
        from sawmollow.cooling import _band_steady_state, _solve_band
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(
            delta, rabi_l, 0.0, 3.5299), cavity, temperature)
        m_max = 8  # below the thermal-tail bound: the Fock size is forced
        oracle = _dense_m_ss(cfg, m_max)
        full = _solve_band(cfg, m_max + 1, m_max)[1]
        _, adaptive, _, band = _band_steady_state(cfg, m_max + 1)
        assert 1 <= band < m_max
        assert abs(full - oracle) <= 1e-10 * cfg.m_th
        assert abs(adaptive - oracle) <= 1e-10 * cfg.m_th

    @pytest.mark.parametrize("temperature", [0.1, 1.0])
    @pytest.mark.parametrize("n_fock, band", [(3, 1), (3, 2), (9, 1), (9, 2),
                                              (9, 8)])
    def test_band_operator_matches_dense_liouvillian(
            self, emitter, temperature, n_fock, band):
        """The band operator, at a detuning, equals the dense Liouvillian
        restricted to the band cells, entry by entry, including the rows of
        the truncated top Fock level."""
        from sawmollow.cooling import _band_cells, _liouvillian_parts
        cavity = AcousticCavity(Frequency.from_ghz(3.5299), 12562.0,
                                Frequency.from_ghz(0.03))
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(
            -2.9, 2.0, 0.0, 3.5299), cavity, temperature)
        op, diag, detuning, _ = _liouvillian_parts(
            cfg.drive.rabi_L.rad, cfg.cavity.omega_S.rad, cfg.cavity.g0.rad,
            cfg.emitter.gamma.rad, cfg.cavity.dissipation.rad, cfg.m_th,
            n_fock, band)
        band_op = op.copy()
        band_op.data[diag] += cfg.drive.delta.rad * detuning
        # each band cell's place in the column-major vec(rho)
        s, m, t, n, _ = _band_cells(n_fock, band)
        cells = (t * n_fock + n) * 2 * n_fock + s * n_fock + m
        levels = np.tile(np.arange(n_fock), 2)
        in_band = np.abs(levels[:, None] - levels[None, :]) <= band
        expected = np.flatnonzero(in_band.ravel(order="F"))
        assert np.array_equal(np.sort(cells), expected)
        dense = _dense_liouvillian(cfg, n_fock - 1)[np.ix_(cells, cells)]
        worst = np.abs(band_op.toarray() - dense).max()
        assert worst <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("band", [2, 3])
    def test_edge_step_gives_the_narrower_band(self, emitter, cavity, band):
        # m_ss at band - 1, read from the band solve's LU factors, against
        # its own solve; the red drive moves m_ss by 1e-8 m_th from K = 1 to 2.
        from sawmollow.cooling import _solve_band
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(
            -2.9, 2.0, 0.0, 3.5299), cavity, temperature=0.1)
        n_fock = cfg.initial_m_max() + 1
        _, _, m_prev, _ = _solve_band(cfg, n_fock, band)
        narrower = _solve_band(cfg, n_fock, band - 1)[1]
        assert abs(m_prev - narrower) <= 1e-11 * cfg.m_th

    @pytest.mark.parametrize("temperature", [0.1, 1.0])
    def test_band_minimum_eigenvalue_matches_dense_eigvalsh(
            self, emitter, cavity, rng, temperature):
        """The banded eigensolve of the band state's Hermitian part against
        eigvalsh of the dense rho built here from the same cells; measured
        agreement 3e-21, on eigenvalues of 2e-11 to 2e-9."""
        from sawmollow.cooling import (_band_cells, _band_steady_state,
                                       _min_eigenvalue)
        for _ in range(3):
            cfg = LindbladConfig(emitter, DriveConfig.from_ghz(
                rng.uniform(-5.0, 5.0), rng.uniform(0.25, 5.25), 0.0, 3.5299),
                cavity, temperature)
            n_fock = cfg.initial_m_max() + 1
            x, _, _, band = _band_steady_state(cfg, n_fock)
            s, m, t, n, _ = _band_cells(n_fock, band)
            rho = np.zeros((2 * n_fock, 2 * n_fock), dtype=complex)
            rho[s * n_fock + m, t * n_fock + n] = x
            dense = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
            assert abs(_min_eigenvalue(x, n_fock, band) - dense) <= 1e-18

    @pytest.mark.parametrize("n_fock", [5, 12, 40, 110])
    def test_band_order_keeps_the_operator_banded(self, emitter, cavity,
                                                  n_fock):
        """In the band order (m + n, m - n, s, t) every band-K operator has
        half-bandwidth 8 K + 4 (20 at K = 2, 28 at K = 3), whatever the Fock
        size, so the factorization needs no fill-reducing order."""
        from sawmollow.cooling import _liouvillian_parts
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(
            -2.9, 2.0, 0.0, 3.5299), cavity, temperature=1.0)
        for band in range(1, 5):
            op = _liouvillian_parts(
                cfg.drive.rabi_L.rad, cfg.cavity.omega_S.rad,
                cfg.cavity.g0.rad, cfg.emitter.gamma.rad,
                cfg.cavity.dissipation.rad, cfg.m_th, n_fock, band)[0].tocoo()
            assert np.abs(op.row - op.col).max() == 8 * band + 4

    @pytest.mark.slow
    def test_adaptive_band_matches_full_band_at_1k(self, emitter, cavity):
        from sawmollow.cooling import _solve_band
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(
            -D_STAR, 2.0, 0.0, 3.5299), cavity, temperature=1.0)
        res = lindblad_steady_state(cfg)
        assert res.m_max_used > 100 and res.band < 5
        full = _solve_band(cfg, res.m_max_used + 1, res.m_max_used)[1]
        assert abs(res.m_ss - full) <= 1e-10 * res.m_th


class TestPerformanceMap:
    def test_sign_agrees_with_closed_form(self, emitter, cavity):
        deltas = [Frequency.from_ghz(d) for d in (-3.2, -2.0, 2.0, 3.2)]
        rabis = [Frequency.from_ghz(2.0)]
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(0, 2.0, 0, 3.5299),
                             cavity, temperature=0.1, m_max=15)
        lmap = cooling_performance_map(deltas, rabis, cfg)
        template = DriveConfig.from_ghz(0.0, 2.0, 0.05, 3.5299)
        for i, d in enumerate(deltas):
            drive = DriveConfig(d, rabis[0], template.rabi_S, template.omega_S)
            rho = floquet_steady_state(BlochGenerator(drive, emitter)).mean_rho_ee
            semi = cooling_rate_closed_form(drive, emitter, rho)
            assert math.copysign(1.0, lmap.cooling_C[i, 0]) == \
                math.copysign(1.0, semi)

    def test_parallel_jobs_match_serial(self, emitter, cavity, monkeypatch):
        """Four threads (usable CPUs patched to four) on cleared Liouvillian
        caches, switching every microsecond, build the shared cache entries
        concurrently and still give the serial map bit for bit."""
        from sawmollow.cooling import _band_cells, _liouvillian_parts

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        deltas = [Frequency.from_ghz(d) for d in (-3.0, 2.0)]
        rabis = [Frequency.from_ghz(r) for r in (1.5, 2.5)]
        cfg = LindbladConfig(emitter, DriveConfig.from_ghz(0, 2.0, 0, 3.5299),
                             cavity, temperature=0.1, m_max=10)

        def run(jobs):
            return cooling_performance_map(deltas, rabis, cfg,
                                           Frequency.from_ghz(0.678), 3,
                                           jobs=jobs)

        _band_cells.cache_clear()
        _liouvillian_parts.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run(4)
        finally:
            sys.setswitchinterval(interval)
        maps = [run(1), threaded]
        assert np.array_equal(maps[0].cooling_C, maps[1].cooling_C)
        assert np.array_equal(maps[0].m_ss, maps[1].m_ss)
        assert maps[0].worst_trace_error == maps[1].worst_trace_error
        assert maps[0].worst_min_eigenvalue == maps[1].worst_min_eigenvalue
        assert maps[0].max_band == maps[1].max_band
        assert 2 <= maps[0].max_band < 10
