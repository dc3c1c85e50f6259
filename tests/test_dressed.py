import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawmollow.dressed import (
    _dressing_cosines,
    overlay_lines,
    table_from_angles,
    transition_table,
)
from sawmollow.model import DriveConfig

angle = st.floats(0.0, math.pi / 2, allow_nan=False)


def mixing_angles(config):
    """(theta_L, theta_S) from the double-angle cosines that the transition
    table reads: theta_L = atan2(rabi_L, delta)/2 and
    theta_S = atan2(rabi_S sin 2theta_L, omega_S - Omega_R)/2."""
    cos2l, sin2l, cos2s, sin2s, _ = _dressing_cosines(config)
    return 0.5 * math.atan2(sin2l, cos2l), 0.5 * math.atan2(sin2s, cos2s)


def gap(config):
    """Acoustic anti-crossing gap G in rad/s."""
    return _dressing_cosines(config)[4]


def eigensystem_check(config, m_ref, m_window=10):
    """Quantized-ladder oracle for the gap G: diagonalize the
    atom-photon-phonon block around the phonon number m_ref.

    The optical coupling conserves the polariton number, so the block
    spanned by {|g, n+1, m>, |e, n, m>} is exact in the photon sector; only
    the phonon ladder is truncated (m_ref +- m_window).  The couplings are
    fixed by g_L sqrt(n + 1) = rabi_L and g0 sqrt(m_ref) = rabi_S, so the
    classical substitution is exact at the reference occupation.  The
    analytic levels (m' + 1/2) omega_S +- G/2 are perturbative, accurate to
    O((g0 sqrt(m))^2 / omega_S).
    """
    d = config.delta.rad
    wl = config.rabi_L.rad
    ws = config.omega_S.rad
    g0 = config.rabi_S.rad / math.sqrt(m_ref)
    m_lo = max(0, m_ref - m_window)
    m_hi = m_ref + m_window
    ms = np.arange(m_lo, m_hi + 1)
    nm = ms.size
    # Basis (|g, n+1, m>, |e, n, m>) for each m; energies relative to the
    # polariton midpoint.  sigma_z (b + b^dag): +1 on |e>, -1 on |g>.
    h = np.zeros((2 * nm, 2 * nm))
    for j, m in enumerate(ms):
        gi, ei = 2 * j, 2 * j + 1
        h[gi, gi] = 0.5 * d + m * ws
        h[ei, ei] = -0.5 * d + m * ws
        h[gi, ei] = h[ei, gi] = 0.5 * wl
        if j + 1 < nm:
            amp = 0.5 * g0 * math.sqrt(m + 1)
            h[gi, gi + 2] = h[gi + 2, gi] = -amp
            h[ei, ei + 2] = h[ei + 2, ei] = amp
    evals = np.linalg.eigvalsh(h)

    analytic = gap(config)
    predicted = [(mp + 0.5) * ws + sign * 0.5 * analytic
                 for mp in range(max(m_lo, m_ref - m_window // 2),
                                 min(m_hi - 1, m_ref + m_window // 2))
                 for sign in (1, -1)]
    max_dev = max(np.min(np.abs(evals - p)) for p in predicted)
    # Numeric gap: the eigenvalues closest to the pair at m' = m_ref.
    base = (m_ref + 0.5) * ws
    lo = evals[np.argmin(np.abs(evals - (base - 0.5 * analytic)))]
    hi = evals[np.argmin(np.abs(evals - (base + 0.5 * analytic)))]
    wr = config.rabi_R.rad
    coupling = g0 * math.sqrt(m_ref)
    bound = coupling ** 2 / ws + 1e-9 * max(ws, wr, wl, abs(d))
    return SimpleNamespace(
        numeric_gap=float(hi - lo), analytic_gap=analytic,
        max_deviation=float(max_dev), perturbative_bound=bound,
        truncation_warning=m_ref - m_window < 0 or nm < 5)


class TestMixingAngles:
    def test_resonant_drive_gives_pi_over_4(self):
        cfg = DriveConfig.from_ghz(0.0, 2.0, 1.0, 3.5299)
        assert mixing_angles(cfg)[0] == pytest.approx(math.pi / 4)

    def test_rabi_resonance_gives_equal_weights(self):
        cfg = DriveConfig.from_ghz(0.0, 3.5299, 1.75, 3.5299)
        _, theta_s = mixing_angles(cfg)
        assert math.cos(theta_s) == pytest.approx(1.0 / math.sqrt(2.0))
        assert math.sin(theta_s) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_acoustic_angle_vanishes_above_resonance(self):
        cfg = DriveConfig.from_ghz(0.0, 1.0, 1e-9, 3.5299)  # omega_S > Omega_R
        assert mixing_angles(cfg)[1] == pytest.approx(0.0, abs=1e-8)

    def test_acoustic_angle_reaches_pi_over_2_below_resonance(self):
        cfg = DriveConfig.from_ghz(0.0, 5.0, 1e-9, 3.5299)  # omega_S < Omega_R
        assert mixing_angles(cfg)[1] == pytest.approx(math.pi / 2, abs=1e-8)

    def test_continuous_through_rabi_resonance(self):
        thetas = []
        for wl in np.linspace(3.52, 3.54, 41):
            cfg = DriveConfig.from_ghz(0.0, wl, 1.75, 3.5299)
            thetas.append(mixing_angles(cfg)[1])
        steps = np.abs(np.diff(thetas))
        assert np.max(steps) < 0.01

    def test_undriven_limits(self):
        above = DriveConfig.from_ghz(2.0, 0.0, 1.0, 3.5299)
        below = DriveConfig.from_ghz(-2.0, 0.0, 1.0, 3.5299)
        assert mixing_angles(above)[0] == pytest.approx(0.0)
        assert mixing_angles(below)[0] == pytest.approx(math.pi / 2)

    def test_doubly_degenerate_corner_is_pi_over_4(self):
        """Undriven and resonant, theta_L is arbitrary; it is set to pi/4."""
        cfg = DriveConfig.from_ghz(0.0, 0.0, 1.0, 3.5299)
        assert mixing_angles(cfg)[0] == pytest.approx(math.pi / 4)


class TestDressedSplitting:
    def test_minimum_gap_at_rabi_resonance(self):
        cfg = DriveConfig.from_ghz(0.0, 3.5299, 1.75, 3.5299)
        assert gap(cfg) == pytest.approx(cfg.rabi_S.rad, rel=1e-12)

    def test_reduces_to_detuning_mismatch_without_drive(self):
        cfg = DriveConfig.from_ghz(0.0, 2.0, 0.0, 3.5299)
        expected = abs(cfg.omega_S.rad - cfg.rabi_R.rad)
        assert gap(cfg) == pytest.approx(expected)

    def test_formula_at_detuned_operating_point(self):
        cfg = DriveConfig.from_ghz(2.36, 2.625, 1.75, 3.5299)
        theta_l, _ = mixing_angles(cfg)
        ws, wr = cfg.omega_S.rad, cfg.rabi_R.rad
        expected = math.hypot(ws - wr, cfg.rabi_S.rad * math.sin(2.0 * theta_l))
        assert gap(cfg) == pytest.approx(expected, rel=1e-12)


class TestTransitionTable:
    def test_structure(self):
        cfg = DriveConfig.from_ghz(1.0, 2.0, 1.2, 3.5299)
        rows = transition_table(cfg)
        assert [r.index for r in rows] == list(range(1, 13))
        ws = cfg.omega_S.rad
        g = gap(cfg)
        offsets = {r.index: r.offset.rad for r in rows}
        assert offsets[1] == offsets[4] == -ws
        assert offsets[9] == offsets[12] == ws
        assert offsets[5] == offsets[8] == 0.0
        assert offsets[2] == pytest.approx(-ws + g)
        assert offsets[3] == pytest.approx(-ws - g)
        assert offsets[6] == pytest.approx(g)
        assert offsets[7] == pytest.approx(-g)
        assert offsets[10] == pytest.approx(ws + g)
        assert offsets[11] == pytest.approx(ws - g)

    def test_first_row_closed_form(self):
        cfg = DriveConfig.from_ghz(1.3, 2.2, 0.9, 3.5299)
        theta_l, theta_s = mixing_angles(cfg)
        r1 = transition_table(cfg)[0]
        expected = (math.cos(theta_l) ** 4
                    * math.cos(theta_s) ** 2 * math.sin(theta_s) ** 2)
        assert r1.dipole_weight == pytest.approx(expected, rel=1e-12)
        assert r1.delta_n_phonon == 1.0
        assert r1.offset.rad == -cfg.omega_S.rad

    def test_central_lines_vanish_at_rabi_resonance(self):
        # Exact-resonance drive: the Cartesian form makes the weights
        # identically zero, not merely rounding-small.
        cfg = DriveConfig.from_ghz(0.0, 3.5299, 1.75, 3.5299)
        by_index = {r.index: r for r in transition_table(cfg)}
        assert by_index[5].dipole_weight == 0.0
        assert by_index[8].dipole_weight == 0.0
        # The angle-parameterized form lands within double-precision dust.
        rows = table_from_angles(math.pi / 5, math.pi / 4, 1.0, 0.3)
        assert all(r.dipole_weight < 1e-30 for r in rows
                   if r.index in (5, 8))

    @given(angle, angle)
    @settings(max_examples=300, deadline=None)
    def test_weight_sum_rule(self, tl, ts):
        rows = table_from_angles(tl, ts, 1.0, 0.3)
        assert sum(r.dipole_weight for r in rows) == pytest.approx(1.0,
                                                                   abs=1e-12)

    @given(angle, angle)
    @settings(max_examples=300, deadline=None)
    def test_sideband_pair_identity(self, tl, ts):
        """The full phonon-weighted sum equals twice the contribution of the
        four transitions at the bare sideband frequencies."""
        rows = table_from_angles(tl, ts, 1.0, 0.3)
        total = sum(r.delta_n_phonon * r.dipole_weight for r in rows)
        partial = 2.0 * sum(r.delta_n_phonon * r.dipole_weight for r in rows
                            if r.index in (1, 4, 9, 12))
        assert total == pytest.approx(partial, abs=1e-12)

    @given(angle, angle)
    @settings(max_examples=200, deadline=None)
    def test_mean_phonon_change_closed_form(self, tl, ts):
        """The mean phonon change per emitted photon, summed over the table,
        closes to cos(2 theta_L) sin^2(2 theta_S)."""
        rows = table_from_angles(tl, ts, 1.0, 0.5)
        mean = sum(r.delta_n_phonon * r.dipole_weight for r in rows)
        expected = math.cos(2.0 * tl) * math.sin(2.0 * ts) ** 2
        assert mean == pytest.approx(expected, abs=1e-12)

    def test_detuning_antisymmetry_swaps_outer_triplets(self):
        plus = transition_table(DriveConfig.from_ghz(1.7, 2.0, 1.2, 3.5299))
        minus = transition_table(DriveConfig.from_ghz(-1.7, 2.0, 1.2, 3.5299))
        wp = {r.index: r.dipole_weight for r in plus}
        wm = {r.index: r.dipole_weight for r in minus}
        # The lower triplet of +delta matches the upper triplet of -delta,
        # with mirrored frequencies: -omega_S + G maps to +omega_S - G.
        for lo, hi in ((1, 9), (4, 12), (2, 11), (3, 10)):
            assert wp[lo] == pytest.approx(wm[hi], rel=1e-10)
            assert wp[hi] == pytest.approx(wm[lo], rel=1e-10)
        for center in (5, 6, 7, 8):
            assert wp[center] == pytest.approx(wm[center], rel=1e-10)

    def test_group_centroids_exact(self):
        cfg = DriveConfig.from_ghz(-0.8, 3.0, 1.75, 3.5299)
        for r in transition_table(cfg):
            centroid = {-1: -cfg.omega_S.rad, 0: 0.0, 1: cfg.omega_S.rad}
            assert r.sideband in centroid
        rows = transition_table(cfg)
        assert rows[0].offset.rad == -cfg.omega_S.rad


class TestOverlayLines:
    def test_nine_lines_with_merged_centers(self):
        cfg = DriveConfig.from_ghz(0.5, 2.3, 1.75, 3.5299)
        (_, lines), = overlay_lines([cfg])
        assert len(lines) == 9
        rows = {r.index: r for r in transition_table(cfg)}
        centers = {line.group: line for line in lines if line.branch == 0}
        assert centers[-1].weight == pytest.approx(
            rows[1].dipole_weight + rows[4].dipole_weight)
        assert centers[0].weight == pytest.approx(
            rows[5].dipole_weight + rows[8].dipole_weight)
        assert centers[1].weight == pytest.approx(
            rows[9].dipole_weight + rows[12].dipole_weight)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            overlay_lines([])

    def test_anticrossing_gap_minimum_is_twice_drive(self):
        rabi_s = 1.75
        sweep = [DriveConfig.from_ghz(0.0, wl, rabi_s, 3.5299)
                 for wl in np.linspace(2.0, 5.0, 61)]
        gaps = []
        for _, lines in overlay_lines(sweep):
            gray = [line for line in lines if line.group == 0
                    and line.branch != 0]
            gaps.append(abs(gray[1].offset.rad - gray[0].offset.rad))
        assert min(gaps) >= 2.0 * rabi_s * 2 * math.pi * 1e9 * (1 - 1e-12)

    def test_unmodulated_sweep_collapses_to_mollow_lines(self):
        cfg = DriveConfig.from_ghz(0.0, 5.0, 0.0, 3.5299)
        (_, lines), = overlay_lines([cfg])
        wr = cfg.rabi_R.rad
        for line in lines:
            if line.weight > 1e-12:
                assert min(abs(line.offset.rad - x)
                           for x in (-wr, 0.0, wr)) < 1e-6 * wr
        total = sum(line.weight for line in lines)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestEigensystemCheck:
    def test_no_optical_coupling_gives_bare_ladder(self):
        cfg = DriveConfig.from_ghz(1.1, 0.0, 0.3, 3.5299)
        report = eigensystem_check(cfg, m_ref=200, m_window=6)
        # With rabi_L = 0 the doublet splitting is the bare detuning and
        # the acoustic coupling is diagonal in the atomic sector.
        assert report.analytic_gap == pytest.approx(
            abs(cfg.omega_S.rad - abs(cfg.delta.rad)), rel=1e-12)

    def test_off_resonant_perturbative_agreement(self):
        cfg = DriveConfig.from_ghz(0.7, 2.0, 0.12, 3.5299)
        report = eigensystem_check(cfg, m_ref=400, m_window=10)
        assert report.max_deviation < 3.0 * report.perturbative_bound
        assert not report.truncation_warning

    def test_rabi_resonance_splitting_matches_gap(self):
        cfg = DriveConfig.from_ghz(0.0, 3.5299, 0.1, 3.5299)
        report = eigensystem_check(cfg, m_ref=400, m_window=10)
        assert report.numeric_gap == pytest.approx(report.analytic_gap,
                                                   rel=2e-2)

    def test_small_reference_flagged(self):
        cfg = DriveConfig.from_ghz(0.0, 2.0, 0.1, 3.5299)
        report = eigensystem_check(cfg, m_ref=3, m_window=10)
        assert report.truncation_warning
