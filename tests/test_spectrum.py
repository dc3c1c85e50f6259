import math
from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

from sawmollow.bloch import (
    BlochGenerator,
    ConvergenceError,
    _sambe_solve,
    floquet_steady_state,
)
from sawmollow.model import DriveConfig, Frequency, Spectrum, TWO_PI
from sawmollow.spectrum import (
    AliasingError,
    GridMismatchError,
    InstrumentModel,
    _diffusion_nodes,
    _node_spectra,
    _node_sweep,
    _outcomes,
    _regression_source,
    _sweep,
    apply_etalon,
    apply_spectral_diffusion,
    spectrum_map,
)

from correlator_oracle import (
    UndecayedCorrelatorError,
    transform_correlator,
    two_time_correlator,
)
from grids import uniform_grid

GHZ = TWO_PI * 1e9


def band_integral(spec, lo, hi):
    """Trapezoid integral of the intensity over the grid points in [lo, hi]
    (rad/s offsets from the laser)."""
    sel = (spec.freqs >= lo) & (spec.freqs <= hi)
    return float(np.trapezoid(spec.intensity[sel], spec.freqs[sel]))


def one_node(drive, emitter, freqs):
    """Pre-instrument spectrum of drive, alone in its resolvent call."""
    return next(_node_spectra([drive], emitter, freqs, 1e-10))


def static_correlator_oracle(drive, emitter, taus):
    """Independent route to the unmodulated steady-state correlator.

    Builds the regression evolution with a matrix exponential of the static
    Bloch matrix, bypassing the Floquet and fundamental-matrix machinery.
    """
    g = emitter.gamma.rad
    d = drive.delta.rad
    wl = drive.rabi_L.rad
    m = np.array([[-1j * d - g / 2, 0.0, -0.5j * wl],
                  [0.0, 1j * d - g / 2, 0.5j * wl],
                  [-1j * wl, 1j * wl, -g]], dtype=complex)
    b = np.array([0.0, 0.0, -g], dtype=complex)
    x_ss = np.linalg.solve(m, -b)
    sp_ss, sm_ss, sz_ss = x_ss
    rho_ee = 0.5 * (1.0 + sz_ss.real)
    u0 = np.array([0.0, rho_ee, -sp_ss], dtype=complex)
    out = np.empty(taus.size, dtype=complex)
    for i, tau in enumerate(taus):
        prop = expm(m * tau)
        # affine part: integral of e^{M s} b ds = M^{-1}(e^{M tau} - 1) b
        affine = np.linalg.solve(m, (prop - np.eye(3)) @ b)
        u = prop @ u0 + sp_ss * affine
        out[i] = u[1]
    return out, x_ss


@pytest.fixture
def mollow_corr(emitter):
    drive = DriveConfig.from_ghz(0.0, 7.9, 0.0, 3.5299)
    gen = BlochGenerator(drive, emitter)
    g = emitter.gamma.rad
    dtau = math.pi / (4.0 * 12.0 * GHZ)
    return two_time_correlator(gen, 30.0 / g, dtau, n_phase=4)


class TestCorrelator:
    def test_zero_delay_value_is_mean_excited_population(self, emitter,
                                                         drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        g = emitter.gamma.rad
        corr = two_time_correlator(gen, 20.0 / g, 2e-12, n_phase=16)
        fs = floquet_steady_state(gen)
        assert corr.values[0].real == pytest.approx(corr.rho_ee_bar, rel=1e-9)
        assert abs(corr.values[0].imag) < 1e-12
        assert corr.rho_ee_bar == pytest.approx(fs.mean_rho_ee, rel=1e-9)

    def test_magnitude_bounded_by_zero_delay(self, emitter, drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        corr = two_time_correlator(gen, 20.0 / emitter.gamma.rad, 2e-12)
        assert np.max(np.abs(corr.values)) <= corr.values[0].real + 1e-10

    def test_matches_matrix_exponential_oracle(self, emitter):
        drive = DriveConfig.from_ghz(0.0, 3.0, 0.0, 3.5299)
        gen = BlochGenerator(drive, emitter)
        g = emitter.gamma.rad
        corr = two_time_correlator(gen, 10.0 / g, 5e-12, n_phase=4)
        idx = np.linspace(0, corr.taus.size - 1, 25).astype(int)
        oracle, _ = static_correlator_oracle(drive, emitter, corr.taus[idx])
        assert np.max(np.abs(corr.values[idx] - oracle)) < 1e-8

    def test_mollow_envelope_rates(self, emitter):
        """The static Bloch matrix at zero detuning decays at gamma/2 and
        3*gamma/4 (twice, as the sideband oscillation pair)."""
        drive = DriveConfig.from_ghz(0.0, 7.9, 0.0, 3.5299)
        g = emitter.gamma.rad
        gen = BlochGenerator(drive, emitter)
        rates = sorted(-np.linalg.eigvals(gen.static_part).real / g)
        assert rates[0] == pytest.approx(0.5, rel=1e-9)
        assert rates[1] == pytest.approx(0.75, rel=1e-6)
        assert rates[2] == pytest.approx(0.75, rel=1e-6)

    def test_plateau_equals_coherent_product(self, emitter):
        """Long-delay limit: the plateau is the phase-averaged product of
        the steady coherences."""
        drive = DriveConfig.from_ghz(0.0, 3.0, 0.0, 3.5299)
        gen = BlochGenerator(drive, emitter)
        g = emitter.gamma.rad
        corr = two_time_correlator(gen, 40.0 / g, 5e-12, n_phase=4)
        _, x_ss = static_correlator_oracle(drive, emitter, np.zeros(1))
        expected = abs(x_ss[0]) ** 2
        assert corr.plateau()[0].real == pytest.approx(expected, rel=1e-9)
        assert abs(corr.values[-1] - corr.plateau()[-1]) < 1e-6 * corr.values[0].real

    def test_phase_average_uses_limit_cycle(self, emitter, drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        corr = two_time_correlator(gen, 10.0 / emitter.gamma.rad, 2e-12,
                                   n_phase=8)
        assert corr.n_phase == 8
        # Dominant plateau coefficients are real and non-negative; discrete
        # phase averaging leaves complex aliasing dust well below them.
        scale = corr.rho_ee_bar
        assert np.all(corr.plateau_coeffs.real > -1e-6 * scale)
        big = np.abs(corr.plateau_coeffs) > 1e-5 * scale
        assert big.any()
        assert np.max(np.abs(corr.plateau_coeffs[big].imag)) < \
            1e-4 * np.max(corr.plateau_coeffs[big].real)

    def test_input_validation(self, emitter, drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        with pytest.raises(ValueError):
            two_time_correlator(gen, -1.0, 1e-12)
        with pytest.raises(ValueError):
            two_time_correlator(gen, 1e-9, -1e-12)
        with pytest.raises(ValueError):
            two_time_correlator(gen, 1e-9, 1e-12, n_phase=0)


class TestEmissionSpectrum:
    def test_mollow_triplet_peaks_and_ratio(self, mollow_corr):
        spec = transform_correlator(mollow_corr, uniform_grid(12.0, 2001))
        g = spec.freqs_ghz
        # three local maxima, at 0 and +-7.9 GHz
        from scipy.signal import find_peaks
        peaks, _ = find_peaks(spec.intensity, height=0.05 * spec.intensity.max())
        positions = sorted(g[peaks])
        assert len(positions) == 3
        assert positions[0] == pytest.approx(-7.9, abs=0.05)
        assert positions[1] == pytest.approx(0.0, abs=0.05)
        assert positions[2] == pytest.approx(7.9, abs=0.05)
        w = 2.0 * GHZ
        central = band_integral(spec, -w, w)
        side = band_integral(spec, -7.9 * GHZ - w, -7.9 * GHZ + w)
        assert central / side == pytest.approx(2.0, rel=0.05)

    @pytest.mark.slow
    def test_incoherent_integral_matches_population(self, emitter):
        """Wide-window integral of the incoherent part plus the coherent
        weight recovers the excited population."""
        drive = DriveConfig.from_ghz(0.0, 7.9, 0.0, 3.5299)
        gen = BlochGenerator(drive, emitter)
        g = emitter.gamma.rad
        dtau = math.pi / (2.0 * 160.0 * GHZ)  # resolves the far wings
        corr = two_time_correlator(gen, 30.0 / g, dtau, n_phase=4)
        core = np.linspace(-16.0, 16.0, 3201) * GHZ
        wing_hi = np.linspace(16.25, 160.0, 576) * GHZ
        grid = np.concatenate([-wing_hi[::-1], core, wing_hi])
        spec = transform_correlator(corr, grid)
        total = spec.normalization + spec.coherent_total
        assert total == pytest.approx(corr.rho_ee_bar, rel=1e-3)

    def test_symmetric_at_zero_detuning(self, emitter, drive_resonant):
        spec = spectrum_map([drive_resonant], emitter, uniform_grid())[0]
        flipped = spec.intensity[::-1]
        assert np.max(np.abs(spec.intensity - flipped)) < 1e-3 * spec.intensity.max()

    def test_central_cancellation_at_rabi_resonance(self, emitter,
                                                    drive_resonant,
                                                    drive_unmodulated):
        g = emitter.gamma.rad
        with_drive, without = spectrum_map([drive_resonant, drive_unmodulated],
                                           emitter, uniform_grid())
        on = band_integral(with_drive, -g, g)
        off = band_integral(without, -g, g)
        assert on < 0.1 * off

    def test_undecayed_correlator_reports_needed_horizon(self, emitter,
                                                         drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        corr = two_time_correlator(gen, 2.0 / emitter.gamma.rad, 2e-12)
        with pytest.raises(UndecayedCorrelatorError) as err:
            transform_correlator(corr, uniform_grid(12.0, 501))
        assert "tau_max" in str(err.value)

    def test_aliasing_guard(self, emitter, drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        corr = two_time_correlator(gen, 30.0 / emitter.gamma.rad, 2e-11)
        with pytest.raises(ValueError, match="alias"):
            transform_correlator(corr, uniform_grid(40.0, 501))

    def test_intensity_clipped_not_negative(self, mollow_corr):
        spec = transform_correlator(mollow_corr, uniform_grid(12.0, 2001))
        assert np.min(spec.intensity) >= -1e-9 * spec.intensity.max()
        # Pre-clip dips are truncation ringing at the decay-tolerance scale;
        # the recorded trough stays well inside that bound.
        assert spec.meta["min_intensity_preclip"] >= \
            -1e-3 * spec.intensity.max()

    def test_grid_convergence(self, emitter, drive_resonant):
        """Halving the tau step and doubling the horizon moves the spectrum
        by less than 1e-3 of its peak."""
        gen = BlochGenerator(drive_resonant, emitter)
        g = emitter.gamma.rad
        freqs = uniform_grid(12.0, 801)
        base = transform_correlator(
            two_time_correlator(gen, 30.0 / g, 1.0417e-11), freqs)
        fine = transform_correlator(
            two_time_correlator(gen, 60.0 / g, 0.52085e-11), freqs)
        dev = np.max(np.abs(base.intensity - fine.intensity))
        assert dev < 1e-3 * base.intensity.max()


# Drives of the equivalence checks: Rabi resonance, both signs of the
# +-1.65 GHz cancellation locus, a weak drive, a detuned strong drive and
# the unmodulated Mollow case.
ORACLE_DRIVES = {
    "rabi_resonance": (0.0, 3.5299, 1.75),
    "locus_red": (-1.65, 2.625, 1.75),
    "locus_blue": (1.65, 2.625, 1.75),
    "weak": (0.0, 0.5, 0.3),
    "detuned_strong": (2.5, 5.0, 1.75),
    "plain_mollow": (0.0, 7.9, 0.0),
}


class TestResolventSpectrum:
    """The resolvent route against the time-domain correlator oracle."""

    @pytest.mark.parametrize("name", sorted(ORACLE_DRIVES))
    def test_matches_time_domain_oracle(self, emitter, name):
        drive = DriveConfig.from_ghz(*ORACLE_DRIVES[name], 3.5299)
        freqs = np.linspace(-12.0, 12.0, 601) * GHZ
        gen = BlochGenerator(drive, emitter)
        corr = two_time_correlator(gen, 30.0 / emitter.gamma.rad,
                                   math.pi / (4.0 * 12.0 * GHZ), n_phase=16)
        oracle = transform_correlator(corr, freqs)
        (spec,) = spectrum_map([drive], emitter, freqs)
        peak = oracle.intensity.max()
        assert np.max(np.abs(spec.intensity - oracle.intensity)) <= 1e-6 * peak
        assert spec.meta["rho_ee_bar"] == pytest.approx(oracle.meta["rho_ee_bar"],
                                                        rel=1e-12)
        lines = dict(zip(oracle.coherent_freqs, oracle.coherent_weights))
        for nu, weight in zip(spec.coherent_freqs, spec.coherent_weights):
            assert abs(weight - lines.pop(nu, 0.0)) <= 1e-10 * corr.rho_ee_bar
        assert all(abs(w) <= 1e-10 * corr.rho_ee_bar for w in lines.values())

    @pytest.mark.parametrize("name", sorted(ORACLE_DRIVES))
    def test_doubling_truncation_leaves_spectrum_unchanged(self, emitter, name):
        drive = DriveConfig.from_ghz(*ORACLE_DRIVES[name], 3.5299)
        freqs = np.linspace(-12.0, 12.0, 601) * GHZ
        gen = BlochGenerator(drive, emitter)
        fs = floquet_steady_state(gen)
        wide = floquet_steady_state(gen, n_harmonics=2 * fs.n_harmonics)
        s = -1j * freqs
        base = _sambe_solve(gen, _regression_source(fs), s)[0][1].real
        doubled = _sambe_solve(gen, _regression_source(wide), s)[0][1].real
        assert np.max(np.abs(base - doubled)) < 1e-9 * base.max()

    def test_truncation_is_the_floquet_order(self, emitter, drive_resonant):
        freqs = np.linspace(-5.0, 5.0, 11) * GHZ
        (spec,) = spectrum_map([drive_resonant], emitter, freqs)
        fs = floquet_steady_state(BlochGenerator(drive_resonant, emitter))
        assert spec.meta["n_harmonics"] == fs.n_harmonics
        assert spec.meta["floquet_residual"] == fs.residual


# Drive and diffusion FWHM (GHz): the oracle drives, and one whose nodes
# converge at two truncation orders.
NODE_DRIVES = {**{name: (drive, 0.678) for name, drive in ORACLE_DRIVES.items()},
               "mixed_orders": ((0.0, 3.5299, 2.5), 1.5)}


class TestBatchedNodes:
    """All diffusion nodes of one drive in one continued-fraction call per
    truncation order."""

    freqs = np.linspace(-9.0, 9.0, 201) * GHZ

    @staticmethod
    def node_drives(name):
        drive, fwhm = NODE_DRIVES[name]
        drive = DriveConfig.from_ghz(*drive, 3.5299)
        offsets, _ = _diffusion_nodes(fwhm * GHZ, 21)
        return [drive.replace_delta(drive.delta.rad + off) for off in offsets]

    @pytest.mark.parametrize("name", sorted(NODE_DRIVES))
    def test_one_call_equals_a_call_per_node_bitwise(self, emitter, name):
        nodes = self.node_drives(name)
        gens = [BlochGenerator(drive, emitter) for drive in nodes]
        sources = [_regression_source(floquet_steady_state(gen))
                   for gen in gens]
        orders = sorted({len(d) // 2 for d in sources})
        if name == "mixed_orders":
            assert len(orders) == 2
        s = -1j * self.freqs
        for n in orders:
            ks = [k for k, d in enumerate(sources) if len(d) // 2 == n]
            d = np.stack([sources[k] for k in ks], axis=-1)[..., None]
            delta = np.array([[nodes[k].delta.rad] for k in ks])
            batch, upper, lower = _sambe_solve(gens[ks[0]], d, s, delta)
            assert upper == [] and lower == []
            for j, k in enumerate(ks):
                single, _, _ = _sambe_solve(gens[k], sources[k], s)
                for a, b in zip(batch, single):
                    assert a[j].tobytes() == b.tobytes()

    @staticmethod
    def assert_same_spectrum(a, b):
        assert a.drive is b.drive
        assert a.intensity.tobytes() == b.intensity.tobytes()
        assert a.coherent_freqs.tobytes() == b.coherent_freqs.tobytes()
        assert a.coherent_weights.tobytes() == b.coherent_weights.tobytes()
        assert a.meta == b.meta

    @pytest.mark.parametrize("name", ["mixed_orders", "rabi_resonance"])
    def test_batched_spectra_equal_one_node_calls(self, emitter, name):
        nodes = self.node_drives(name)
        specs = list(_node_spectra(nodes, emitter, self.freqs, 1e-10))
        assert len(specs) == len(nodes)
        for drive, spec in zip(nodes, specs):
            self.assert_same_spectrum(
                spec, one_node(drive, emitter, self.freqs))

    def test_drives_of_different_rabi_frequencies_batch_apart(self, emitter):
        """Nodes of two drives that differ in rabi_L and rabi_S, interleaved
        in one call, each get their own drive's spectrum."""
        a, b = (self.node_drives(name)[::4]
                for name in ("rabi_resonance", "mixed_orders"))
        nodes = [drive for pair in zip(a, b) for drive in pair]
        specs = _node_spectra(nodes, emitter, self.freqs, 1e-10)
        for drive, spec in zip(nodes, specs):
            self.assert_same_spectrum(
                spec, one_node(drive, emitter, self.freqs))

    def test_batch_is_split_on_large_grids(self, emitter, monkeypatch):
        """Above 2**16 nodes x frequencies a batch is split, one node per
        call on a grid of 2**15 + 1 points, with the same spectra."""
        import sawmollow.spectrum as spectrum
        nodes = self.node_drives("rabi_resonance")[9:12]
        freqs = np.linspace(-9.0, 9.0, 2 ** 15 + 1) * GHZ
        widths = []

        def recording(gen, d, s, delta=None):
            widths.append(d.shape[2])
            return _sambe_solve(gen, d, s, delta)

        monkeypatch.setattr(spectrum, "_sambe_solve", recording)
        specs = list(_node_spectra(nodes, emitter, freqs, 1e-10))
        assert widths == [1, 1, 1]
        monkeypatch.undo()
        for drive, spec in zip(nodes, specs):
            self.assert_same_spectrum(spec, one_node(drive, emitter, freqs))

    def test_failing_node_keeps_its_own_exception(self, emitter, monkeypatch):
        """When a node's limit cycle fails, the sweep reruns the nodes one by
        one: the failing node keeps its exception, the others their
        spectra."""
        import sawmollow.spectrum as spectrum
        nodes = self.node_drives("rabi_resonance")[:3]
        solve = spectrum.floquet_steady_state

        def failing_middle(gen, **kwargs):
            if gen.drive is nodes[1]:
                raise ConvergenceError("forced", residual=1.0)
            return solve(gen, **kwargs)

        monkeypatch.setattr(spectrum, "floquet_steady_state", failing_middle)
        kernel = partial(_node_spectra, emitter=emitter, freqs=self.freqs,
                         floquet_tol=1e-10)
        outcomes = _outcomes(kernel, nodes)
        assert [ok for ok, _ in outcomes] == [True, False, True]
        assert isinstance(outcomes[1][1], ConvergenceError)
        monkeypatch.undo()
        for k in (0, 2):
            self.assert_same_spectrum(
                outcomes[k][1], one_node(nodes[k], emitter, self.freqs))


class TestSpectralDiffusion:
    def test_zero_width_is_identity(self, emitter, drive_resonant):
        """At zero width the single node of weight 1 keeps the intensity,
        so the pipeline without instrument is bit for bit the one drive's
        resolvent spectrum."""
        _, weights = _diffusion_nodes(0.0, 5)
        freqs = uniform_grid(12.0, 101)
        spec = one_node(drive_resonant, emitter, freqs)
        averaged = apply_spectral_diffusion([spec], weights, drive_resonant)
        assert np.array_equal(averaged.intensity, spec.intensity)
        assert np.array_equal(averaged.coherent_weights, spec.coherent_weights)
        assert averaged.drive.delta.rad == 0.0
        (piped,) = spectrum_map([drive_resonant], emitter, freqs)
        assert piped.intensity.tobytes() == spec.intensity.tobytes()
        assert piped.coherent_freqs.tobytes() == spec.coherent_freqs.tobytes()
        assert (piped.coherent_weights.tobytes()
                == spec.coherent_weights.tobytes())
        assert ({k: np.float64(v).tobytes() for k, v in piped.meta.items()}
                == {k: np.float64(v).tobytes() for k, v in spec.meta.items()})
        assert piped.normalization.hex() == spec.normalization.hex()

    def test_narrow_line_broadens_to_gaussian_width(self):
        """A detuning-tracking line much narrower than the diffusion width
        averages to the 678 MHz Gaussian (in quadrature with its own
        natural width; the node comb resolves lines of that scale)."""
        freqs = np.linspace(-3.0, 3.0, 4001) * GHZ
        drive = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5299)
        natural_fwhm = 0.2
        sigma = natural_fwhm * GHZ / (2.0 * math.sqrt(2.0 * math.log(2.0)))

        def line(delta):
            inten = np.exp(-0.5 * ((freqs - delta) / sigma) ** 2)
            inten /= sigma * math.sqrt(2.0 * math.pi)
            return Spectrum(freqs, inten, drive.replace_delta(delta),
                            meta={"rho_ee_bar": 1.0})

        offsets, weights = _diffusion_nodes(0.678 * GHZ, 41)
        spec = apply_spectral_diffusion([line(off) for off in offsets],
                                        weights, drive)
        half = spec.intensity.max() / 2.0
        above = freqs[spec.intensity >= half]
        measured_fwhm = (above[-1] - above[0]) / GHZ
        assert measured_fwhm == pytest.approx(math.hypot(0.678, natural_fwhm),
                                              rel=0.02)

    def test_grid_mismatch_detected(self):
        drive = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5299)
        specs = [Spectrum(np.linspace(-1, 1, n) * GHZ, np.ones(n), drive)
                 for n in (101, 103, 101)]
        with pytest.raises(GridMismatchError):
            apply_spectral_diffusion(specs, np.full(3, 1.0 / 3.0), drive)

    def test_health_reports_the_worst_node(self, emitter):
        """Residual, truncation and pre-clip minimum of an averaged spectrum
        are the worst over its nodes, not node 0's."""
        drive = DriveConfig.from_ghz(0.0, 3.5299, 1.75, 3.5299)
        model = InstrumentModel(diffusion_fwhm=Frequency.from_ghz(0.678))
        (spec,) = spectrum_map([drive], emitter, uniform_grid(9.0, 101),
                               model, n_nodes=21)
        offsets, _ = _diffusion_nodes(model.diffusion_fwhm.rad, 21)
        nodes = [one_node(drive.replace_delta(off), emitter, spec.freqs).meta
                 for off in offsets]
        residuals = [meta["floquet_residual"] for meta in nodes]
        assert spec.meta["floquet_residual"] == max(residuals)
        assert max(residuals) > residuals[0]
        assert spec.meta["n_harmonics"] == max(m["n_harmonics"] for m in nodes)
        assert spec.meta["min_intensity_preclip"] == min(
            m["min_intensity_preclip"] for m in nodes)

    @pytest.mark.slow
    def test_quadrature_converged_by_21_nodes(self, emitter):
        """Central-cancellation operating point: 21 vs 41 nodes differ by
        less than 1e-4 of the peak."""
        drive = DriveConfig.from_ghz(0.0, 3.5299, 1.75, 3.5299)
        model = InstrumentModel(diffusion_fwhm=Frequency.from_ghz(0.678))
        s21, s41 = (spectrum_map([drive], emitter, uniform_grid(12.0, 801),
                                 model, n_nodes=n)[0]
                    for n in (21, 41))
        dev = np.max(np.abs(s21.intensity - s41.intensity))
        assert dev < 1e-4 * s41.intensity.max()


class TestEtalon:
    def _flat_spectrum(self, drive, peak_at=0.0, n=2001, coherent=None):
        freqs = np.linspace(-10, 10, n) * GHZ
        inten = np.zeros(n)
        inten[np.argmin(np.abs(freqs - peak_at))] = 1.0 / (freqs[1] - freqs[0])
        coh_f, coh_w = (np.array([]), np.array([])) if coherent is None else coherent
        return Spectrum(freqs, inten, drive, coherent_freqs=coh_f,
                        coherent_weights=coh_w)

    def test_delta_maps_to_lorentzian_of_etalon_width(self):
        drive = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5299)
        spec = self._flat_spectrum(drive)
        model = InstrumentModel(etalon_fwhm=Frequency.from_ghz(0.525))
        out = apply_etalon(spec, model)
        half = out.intensity.max() / 2.0
        above = out.freqs[out.intensity >= half]
        fwhm = (above[-1] - above[0]) / GHZ
        assert fwhm == pytest.approx(0.525, rel=0.03)

    def test_coherent_line_folds_in_as_lorentzian(self):
        drive = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5299)
        freqs = np.linspace(-10, 10, 2001) * GHZ
        spec = Spectrum(freqs, np.zeros(freqs.size), drive,
                        coherent_freqs=np.array([0.0]),
                        coherent_weights=np.array([0.7]))
        model = InstrumentModel(etalon_fwhm=Frequency.from_ghz(0.525))
        out = apply_etalon(spec, model)
        assert out.coherent_freqs.size == 0
        assert out.normalization == pytest.approx(0.7, rel=1e-6)

    def test_integral_preserved(self, emitter, drive_resonant):
        spec = spectrum_map([drive_resonant], emitter, uniform_grid(9.9))[0]
        model = InstrumentModel(etalon_fwhm=Frequency.from_ghz(0.525))
        out = apply_etalon(spec, model)
        expected = spec.normalization + spec.coherent_total
        assert out.normalization == pytest.approx(expected, rel=1e-6)

    def test_zero_width_is_identity(self, emitter, drive_resonant):
        spec = spectrum_map([drive_resonant], emitter,
                            uniform_grid(9.9, 301))[0]
        model = InstrumentModel(etalon_fwhm=Frequency(0.0))
        out = apply_etalon(spec, model)
        assert np.array_equal(out.intensity, spec.intensity)

    def test_window_beyond_free_spectral_range_rejected(self):
        drive = DriveConfig.from_ghz(0.0, 1.0, 0.0, 3.5299)
        freqs = np.linspace(-15, 15, 301) * GHZ
        spec = Spectrum(freqs, np.ones(301), drive)
        model = InstrumentModel(etalon_fwhm=Frequency.from_ghz(0.525),
                                etalon_fsr=Frequency.from_ghz(20.0))
        with pytest.raises(AliasingError):
            apply_etalon(spec, model)


class TestSpectrumMap:
    def test_unmodulated_sweep_reduces_to_mollow_fan(self, emitter):
        sweep = [DriveConfig.from_ghz(0.0, wl, 0.0, 3.5299)
                 for wl in (3.0, 5.0)]
        specs = spectrum_map(sweep, emitter, uniform_grid(12.0, 1201))
        from scipy.signal import find_peaks
        for wl, spec in zip((3.0, 5.0), specs):
            peaks, _ = find_peaks(spec.intensity,
                                  height=0.05 * spec.intensity.max())
            positions = sorted(spec.freqs_ghz[peaks])
            assert positions[0] == pytest.approx(-wl, abs=0.05)
            assert positions[-1] == pytest.approx(wl, abs=0.05)

    def test_order_preserved_and_drive_recorded(self, emitter):
        sweep = [DriveConfig.from_ghz(d, 2.625, 1.75, 3.5299)
                 for d in (-1.0, 0.0, 1.0)]
        specs = spectrum_map(sweep, emitter, uniform_grid(12.0, 301))
        assert [s.drive.delta.ghz for s in specs] == [-1.0, 0.0, 1.0]

    def test_failures_aggregated_with_indices(self, emitter):
        good = DriveConfig.from_ghz(0.0, 2.0, 0.0, 3.5299)
        # A Floquet tolerance below double-precision rounding is never met,
        # so every config raises ConvergenceError once the truncation cap
        # is reached.
        with pytest.raises(RuntimeError, match="index 0") as err:
            spectrum_map([good], emitter, uniform_grid(12.0, 101),
                         floquet_tol=1e-20)
        assert "harmonic balance not converged" in str(err.value)

    def test_parallel_failure_keeps_class_and_message(self, emitter):
        good = DriveConfig.from_ghz(0.0, 2.0, 0.0, 3.5299)
        raised = []
        for jobs in (1, 2):
            with pytest.raises(ConvergenceError) as err:
                spectrum_map([good, good], emitter, uniform_grid(12.0, 101),
                             floquet_tol=1e-20, jobs=jobs)
            raised.append((str(err.value), err.value.residual,
                           err.value.__notes__))
        assert raised[0] == raised[1]
        assert "harmonic balance not converged" in raised[0][0]
        assert "index 0" in raised[0][2][0] and "index 1" in raised[0][2][0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diffused_failure_note_names_point_and_node(self, emitter, jobs):
        sweep = [DriveConfig.from_ghz(d, 2.0, 0.0, 3.5299) for d in (0.0, 1.0)]
        model = InstrumentModel(diffusion_fwhm=Frequency.from_ghz(0.678))
        with pytest.raises(ConvergenceError) as err:
            spectrum_map(sweep, emitter, uniform_grid(12.0, 101), model,
                         n_nodes=3, floquet_tol=1e-20, jobs=jobs)
        (note,) = err.value.__notes__
        assert note.startswith("6 of 6 sweep point(s) failed: index 0, node 0:")
        for i in (0, 1):
            for k in (0, 1, 2):
                assert f"index {i}, node {k}: harmonic balance" in note

    def test_even_node_count_rejected_before_compute(self, emitter,
                                                     monkeypatch):
        import sawmollow.spectrum as spectrum

        def no_compute(*args, **kwargs):
            raise AssertionError("spectrum computed before the node check")

        monkeypatch.setattr(spectrum, "floquet_steady_state", no_compute)
        model = InstrumentModel(diffusion_fwhm=Frequency.from_ghz(0.678))
        drive = DriveConfig.from_ghz(0.0, 2.0, 1.75, 3.5299)
        with pytest.raises(ValueError, match="n_nodes"):
            spectrum_map([drive], emitter, uniform_grid(12.0, 101), model,
                         n_nodes=4)

    def test_etalon_window_beyond_fsr_rejected_before_compute(
            self, emitter, monkeypatch):
        import sawmollow.spectrum as spectrum

        def no_compute(*args, **kwargs):
            raise AssertionError("spectrum computed before the FSR check")

        monkeypatch.setattr(spectrum, "floquet_steady_state", no_compute)
        model = InstrumentModel(etalon_fwhm=Frequency.from_ghz(0.525),
                                etalon_fsr=Frequency.from_ghz(20.0))
        drive = DriveConfig.from_ghz(0.0, 2.0, 1.75, 3.5299)
        with pytest.raises(AliasingError):
            spectrum_map([drive], emitter, uniform_grid(), model)

    def test_bad_grid_rejected_before_compute(self, emitter, monkeypatch):
        import sawmollow.spectrum as spectrum

        def no_compute(*args, **kwargs):
            raise AssertionError("spectrum computed before the grid check")

        monkeypatch.setattr(spectrum, "floquet_steady_state", no_compute)
        drive = DriveConfig.from_ghz(0.0, 2.0, 1.75, 3.5299)
        for freqs in ([0.0], [1.0, 0.0], [0.0, 0.0], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="strictly increasing"):
                spectrum_map([drive], emitter, np.asarray(freqs) * GHZ)

    def test_empty_sweep_rejected(self, emitter):
        with pytest.raises(ValueError):
            spectrum_map([], emitter, uniform_grid())

    def test_non_uniform_grid_conserves_weight_under_diffusion(self, emitter):
        """Criterion 11's grid (a dense core to +-16 GHz, wings to +-160
        GHz) through the diffusion average: the incoherent integral plus
        the coherent weight is the averaged excited population."""
        rng = np.random.default_rng(777)
        core = np.linspace(-16.0, 16.0, 3201) * GHZ
        wing = np.concatenate([np.linspace(16.25, 60.0, 176),
                               np.linspace(60.5, 160.0, 200)]) * GHZ
        grid = np.concatenate([-wing[::-1], core, wing])
        model = InstrumentModel(diffusion_fwhm=Frequency.from_ghz(0.678))
        sweep = [DriveConfig.from_ghz(rng.uniform(-4.0, 4.0),
                                      rng.uniform(0.3, 4.0),
                                      rng.uniform(0.0, 2.0),
                                      rng.uniform(2.5, 4.5)) for _ in range(5)]
        for spec in spectrum_map(sweep, emitter, grid, model):
            rho_ee_bar = spec.meta["rho_ee_bar"]
            total = spec.normalization + spec.coherent_total
            assert abs(total - rho_ee_bar) < 1e-3 * rho_ee_bar

    def test_parallel_jobs_match_serial(self, emitter):
        sweep = [DriveConfig.from_ghz(d, 2.625, 1.75, 3.5299)
                 for d in (-0.5, 0.5)]
        freqs = uniform_grid(12.0, 201)
        serial = spectrum_map(sweep, emitter, freqs, jobs=1)
        parallel = spectrum_map(sweep, emitter, freqs, jobs=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.intensity, b.intensity)


class TestSweepDriver:
    def test_results_in_item_order(self):
        items = [4.0, 9.0, 16.0, 25.0]
        sqrt = partial(map, math.sqrt)
        assert _sweep(sqrt, items) == [2.0, 3.0, 4.0, 5.0]
        assert _sweep(sqrt, items, jobs=2) == [2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_raised_with_note_listing_all(self, jobs):
        with pytest.raises(ValueError, match="math domain error") as err:
            _sweep(partial(map, math.sqrt), [4.0, -1.0, 9.0, "x"], jobs=jobs)
        (note,) = err.value.__notes__
        assert note.startswith("2 of 4 sweep point(s) failed")
        assert "index 1: math domain error" in note
        assert "index 3:" in note and "index 0" not in note

    def test_node_sweep_hands_the_kernel_every_node(self):
        """A serial sweep makes one kernel call with every drive's node
        drives and returns each drive's node results."""
        drives = [DriveConfig(Frequency(d), Frequency(1.0), Frequency(0.0),
                              Frequency(1.0)) for d in (0.0, 10.0)]
        calls = []

        def kernel(nodes):
            calls.append([drive.delta.rad for drive in nodes])
            return calls[-1]

        results = _node_sweep(kernel, drives, np.array([-1.0, 0.0, 1.0]))
        assert results == [[-1.0, 0.0, 1.0], [9.0, 10.0, 11.0]]
        assert calls == [[-1.0, 0.0, 1.0, 9.0, 10.0, 11.0]]

    def test_node_sweep_names_each_failing_node(self):
        drives = [DriveConfig(Frequency(d), Frequency(1.0), Frequency(0.0),
                              Frequency(1.0)) for d in (0.0, 10.0)]
        kernel = partial(map, lambda drive: math.sqrt(drive.delta.rad))
        with pytest.raises(ValueError, match="math domain error") as err:
            _node_sweep(kernel, drives, np.array([-11.0, 0.0, 1.0]))
        (note,) = err.value.__notes__
        assert note == ("2 of 6 sweep point(s) failed: index 0, node 0: "
                        "math domain error; index 1, node 0: math domain error")

    def test_zero_width_is_one_node(self):
        offsets, weights = _diffusion_nodes(0.0, 21)
        assert offsets.tolist() == [0.0] and weights.tolist() == [1.0]

    @pytest.mark.parametrize("n_nodes", [3, 5, 9, 21])
    def test_weights_sum_to_one(self, n_nodes):
        offsets, weights = _diffusion_nodes(0.678 * GHZ, n_nodes)
        assert offsets.size == n_nodes
        assert abs(weights.sum() - 1.0) < 1e-15

    @pytest.mark.parametrize("fwhm", [0.0, 0.678 * GHZ])
    @pytest.mark.parametrize("n_nodes", [-1, 0, 1, 2, 4])
    def test_bad_node_count_rejected_at_any_width(self, fwhm, n_nodes):
        with pytest.raises(ValueError, match="n_nodes"):
            _diffusion_nodes(fwhm, n_nodes)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _diffusion_nodes(-1.0, 5)
