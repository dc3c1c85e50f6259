"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure of merit.

Criteria 3 and 7 are implemented exactly as stated and are expected to
fail: both operationalize the first-order dressed-state geometry (the
Omega_R = omega_S circle) in a regime where the exact model provably
deviates from it.  Each carries a companion test demonstrating what the
exact pipeline does satisfy (the weak-drive locus; the global optimum on
the contour).  The quantitative analysis lives in the project notes.
"""

import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from sawmollow.cli import main as cli_main
from sawmollow.cooling import (
    AcousticCavity,
    LindbladConfig,
    cooling_map,
    cooling_performance_map,
    cooling_rate_closed_form,
    cooling_rate_from_table,
    lindblad_steady_state,
)
from sawmollow.dressed import overlay_lines, table_from_angles, transition_table
from sawmollow.fitting import (
    AbsorptionModel,
    absorption_spectrum,
    fit_absorption,
    fit_linear_through_origin,
    fit_lorentzian,
)
from sawmollow.model import (
    DriveConfig,
    EmitterParams,
    Frequency,
    TWO_PI,
    thermal_occupation,
)
from sawmollow.spectrum import spectrum_map

from grids import uniform_grid

GHZ = TWO_PI * 1e9
OMEGA_S_GHZ = 3.5299
GAMMA_GHZ = 0.134

EMITTER = EmitterParams.from_ghz(GAMMA_GHZ)


def report(num, ok, detail):
    print(f"CRITERION {num:>2} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def band_integral(spec, lo, hi):
    """Trapezoid integral of the intensity over the grid points in [lo, hi]
    (rad/s offsets from the laser)."""
    sel = (spec.freqs >= lo) & (spec.freqs <= hi)
    return float(np.trapezoid(spec.intensity[sel], spec.freqs[sel]))


# ---------------------------------------------------------------------------
# 1. Mollow reduction
# ---------------------------------------------------------------------------

def test_criterion_01_mollow_reduction():
    drive = DriveConfig.from_ghz(0.0, 7.9, 0.0, OMEGA_S_GHZ)
    spec = spectrum_map([drive], EMITTER, uniform_grid())[0]
    peaks, _ = find_peaks(spec.intensity, height=0.05 * spec.intensity.max())
    positions = np.sort(spec.freqs_ghz[peaks])
    w = 2.0 * GHZ
    central = band_integral(spec, -w, w)
    side_lo = band_integral(spec, -7.9 * GHZ - w, -7.9 * GHZ + w)
    side_hi = band_integral(spec, 7.9 * GHZ - w, 7.9 * GHZ + w)
    ratio_lo = central / side_lo
    ratio_hi = central / side_hi
    ok = (positions.size == 3
          and abs(positions[0] + 7.9) < 0.05
          and abs(positions[1]) < 0.05
          and abs(positions[2] - 7.9) < 0.05
          and abs(ratio_lo - 2.0) < 0.1
          and abs(ratio_hi - 2.0) < 0.1)
    assert report(1, ok,
                  f"Mollow peaks at {np.round(positions, 3)} GHz, "
                  f"central:sideband = {ratio_lo:.4f} / {ratio_hi:.4f} "
                  f"(2.0 within 5%)")


# ---------------------------------------------------------------------------
# 2. Central-line cancellation at the Rabi resonance
# ---------------------------------------------------------------------------

def test_criterion_02_central_cancellation():
    g = EMITTER.gamma.rad
    modulated, baseline = spectrum_map(
        [DriveConfig.from_ghz(0.0, OMEGA_S_GHZ, rabi_s, OMEGA_S_GHZ)
         for rabi_s in (1.75, 0.0)], EMITTER, uniform_grid())
    on = band_integral(modulated, -g, g)
    off = band_integral(baseline, -g, g)
    ok = on <= 0.1 * off
    assert report(2, ok,
                  f"central window {on:.3e} vs unmodulated {off:.3e}; "
                  f"suppression x{off / on:.1f} (need >= 10)")


# ---------------------------------------------------------------------------
# 3. Detuned cancellation loci (expected FAIL at Omega_S = 1.75 GHz; see
#    notes: the exact locus sits at +-1.65 GHz, confirmed by two
#    independent routes; the first-order value +-2.36 GHz is recovered
#    only for weak acoustic drive, demonstrated by the companion test)
# ---------------------------------------------------------------------------

def _cancellation_loci(rabi_s, span=4.25, n=35):
    g = EMITTER.gamma.rad
    freqs = uniform_grid(8.0, 1201)
    deltas = np.linspace(-span, span, n)
    vals = np.empty(n)
    for i, d in enumerate(deltas):
        cfg = DriveConfig.from_ghz(d, 2.625, rabi_s, OMEGA_S_GHZ)
        vals[i] = band_integral(spectrum_map([cfg], EMITTER, freqs)[0], -g, g)

    def refine(side):
        sel = np.where(side)[0][1:-1]
        interior = [k for k in sel
                    if vals[k] <= vals[k - 1] and vals[k] <= vals[k + 1]]
        k = min(interior, key=lambda k: vals[k])
        a, b, c = vals[k - 1], vals[k], vals[k + 1]
        return deltas[k] + 0.5 * (a - c) / (a - 2 * b + c) * (deltas[1] - deltas[0])

    return refine(deltas < 0), refine(deltas > 0)


def test_criterion_03_detuned_cancellation_loci():
    target = math.sqrt(OMEGA_S_GHZ ** 2 - 2.625 ** 2)
    assert abs(target - 2.36) < 5e-4  # analytic cross-check of the loci
    lo, hi = _cancellation_loci(1.75)
    ok = abs(abs(lo) - 2.36) <= 0.1 and abs(abs(hi) - 2.36) <= 0.1
    assert report(3, ok,
                  f"central-intensity minima at {lo:+.3f} / {hi:+.3f} GHz "
                  f"(stated +-2.36 +- 0.1; exact-model locus is +-1.65)")


def test_criterion_03_companion_weak_drive_locus():
    """In the weak-acoustic-drive regime the first-order locus is exact."""
    lo, hi = _cancellation_loci(0.4, span=3.2, n=33)
    ok = abs(abs(lo) - 2.36) <= 0.1 and abs(abs(hi) - 2.36) <= 0.1
    assert report(3, ok,
                  f"companion (rabi_S = 0.4 GHz): minima at {lo:+.3f} / "
                  f"{hi:+.3f} GHz vs first-order +-2.36")


# ---------------------------------------------------------------------------
# 4. Dressed-line algebra
# ---------------------------------------------------------------------------

def test_criterion_04_dressed_line_algebra():
    rng = np.random.default_rng(20260808)
    worst_sum = worst_id = 0.0
    for tl, ts in rng.uniform(0.0, math.pi / 2.0, size=(10_000, 2)):
        rows = table_from_angles(tl, ts, 1.0, 0.3)
        weights = [r.dipole_weight for r in rows]
        worst_sum = max(worst_sum, abs(sum(weights) - 1.0))
        total = sum(r.delta_n_phonon * r.dipole_weight for r in rows)
        part = 2.0 * sum(r.delta_n_phonon * r.dipole_weight for r in rows
                         if r.index in (1, 4, 9, 12))
        worst_id = max(worst_id, abs(total - part))
    resonant = DriveConfig.from_ghz(0.0, OMEGA_S_GHZ, 1.75, OMEGA_S_GHZ)
    central = {r.index: r.dipole_weight for r in transition_table(resonant)}
    ok = (worst_sum < 1e-12 and worst_id < 1e-12
          and central[5] == 0.0 and central[8] == 0.0)
    assert report(4, ok,
                  f"sum rule dev {worst_sum:.2e}, sideband identity dev "
                  f"{worst_id:.2e} over 10^4 draws; central weights at "
                  f"resonance = ({central[5]}, {central[8]})")


# ---------------------------------------------------------------------------
# 5. Anti-crossing gap
# ---------------------------------------------------------------------------

def test_criterion_05_anticrossing_gap():
    rabi_s = 1.75
    sweep = [DriveConfig.from_ghz(0.0, wl, rabi_s, OMEGA_S_GHZ)
             for wl in np.concatenate([np.linspace(2.0, 5.0, 121),
                                       [OMEGA_S_GHZ]])]
    min_split = math.inf
    for _, lines in overlay_lines(sweep):
        gray = sorted((ln for ln in lines if ln.group == 0 and ln.branch != 0),
                      key=lambda ln: ln.offset.rad)
        min_split = min(min_split, gray[1].offset.rad - gray[0].offset.rad)
    expected = 2.0 * rabi_s * GHZ
    rel = abs(min_split - expected) / expected
    ok = rel < 1e-9
    assert report(5, ok,
                  f"minimum gray-triplet splitting {min_split / GHZ:.9f} GHz "
                  f"vs 2*rabi_S = {expected / GHZ:.9f} GHz (rel dev {rel:.1e})")


# ---------------------------------------------------------------------------
# 6. Closed-form / table cooling equality
# ---------------------------------------------------------------------------

def test_criterion_06_closed_form_equals_table():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(10_000):
        cfg = DriveConfig.from_ghz(
            rng.uniform(0.01, 5.0) * rng.choice([-1.0, 1.0]),
            rng.uniform(0.05, 6.5), rng.uniform(0.05, 3.0),
            rng.uniform(1.0, 6.0))
        a = cooling_rate_closed_form(cfg, EMITTER, 0.37)
        b = cooling_rate_from_table(cfg, EMITTER, 0.37)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    ok = worst < 1e-10
    assert report(6, ok, f"worst relative deviation {worst:.2e} over 10^4 "
                         f"random drives (tolerance 1e-10)")


# ---------------------------------------------------------------------------
# 7. Optimal-cooling contour (per-column clause expected FAIL; the rate's
#    detuning prefactor pushes each column maximum beyond the contour --
#    see notes.  The companion global-optimum check passes for every drive.)
# ---------------------------------------------------------------------------

DELTA_GRID = np.linspace(-5.0, 5.0, 41)
RABI_GRID = np.linspace(0.25, 5.25, 41)


@pytest.fixture(scope="module")
def cooling_maps():
    maps = {}
    for rabi_s in (1.75, 0.25, 0.75, 1.25):
        template = DriveConfig.from_ghz(0.0, 1.0, rabi_s, OMEGA_S_GHZ)
        maps[rabi_s] = cooling_map(
            [Frequency.from_ghz(d) for d in DELTA_GRID],
            [Frequency.from_ghz(r) for r in RABI_GRID], EMITTER, template,
            diffusion_fwhm=Frequency.from_ghz(0.678), n_nodes=9)
    return maps


def test_criterion_07_optimal_cooling_contour(cooling_maps):
    cell = DELTA_GRID[1] - DELTA_GRID[0]
    worst = {}
    for rabi_s, cmap in cooling_maps.items():
        dev_cells = 0.0
        for j, wl in enumerate(RABI_GRID):
            if wl >= OMEGA_S_GHZ:
                continue  # the contour does not cross this column
            target = math.sqrt(OMEGA_S_GHZ ** 2 - wl ** 2)
            if target > abs(DELTA_GRID).max():
                continue
            col = np.abs(cmap.rate[:, j])
            neg = DELTA_GRID[DELTA_GRID < 0]
            d_best = neg[int(np.argmax(col[DELTA_GRID < 0]))]
            dev_cells = max(dev_cells, abs(abs(d_best) - target) / cell)
        worst[rabi_s] = dev_cells
    ok = all(v <= 1.0 for v in worst.values())
    detail = ", ".join(f"rabi_S={k}: {v:.2f} cells" for k, v in worst.items())
    assert report(7, ok, f"per-column argmax offset from the contour: {detail} "
                         f"(stated <= 1 cell)")


def test_criterion_07_companion_global_optimum_on_contour(cooling_maps):
    devs = {}
    for rabi_s, cmap in cooling_maps.items():
        i, j = np.unravel_index(np.argmax(np.abs(cmap.rate)), cmap.rate.shape)
        radius = math.hypot(DELTA_GRID[i], RABI_GRID[j])
        devs[rabi_s] = abs(radius - OMEGA_S_GHZ)
    cell = math.hypot(DELTA_GRID[1] - DELTA_GRID[0], RABI_GRID[1] - RABI_GRID[0])
    ok = all(v <= cell for v in devs.values())
    detail = ", ".join(f"rabi_S={k}: {v:.3f} GHz" for k, v in devs.items())
    assert report(7, ok, f"companion: global |rate| optimum off the contour "
                         f"by {detail} (one diagonal cell = {cell:.3f} GHz)")


# ---------------------------------------------------------------------------
# 8. Thermal occupations
# ---------------------------------------------------------------------------

def test_criterion_08_thermal_occupations():
    m_hot = thermal_occupation(Frequency.from_ghz(OMEGA_S_GHZ), 1.0)
    m_cold = thermal_occupation(Frequency.from_ghz(OMEGA_S_GHZ), 0.1)
    ok = abs(m_hot - 5.4) <= 0.1 and abs(m_cold - 0.2) <= 0.05
    assert report(8, ok, f"m_th(1 K) = {m_hot:.4f} (5.4 +- 0.1), "
                         f"m_th(0.1 K) = {m_cold:.4f} (0.2 +- 0.05)")


# ---------------------------------------------------------------------------
# 9. Lindblad sanity and cooling-performance maps
# ---------------------------------------------------------------------------

CAVITY = AcousticCavity(Frequency.from_ghz(OMEGA_S_GHZ), 12562.0,
                        Frequency.from_ghz(1.2e-3))


def test_criterion_09a_laser_off_thermal_state():
    cfg = LindbladConfig(EMITTER, DriveConfig.from_ghz(-2.0, 0.0, 0.0,
                                                       OMEGA_S_GHZ),
                         CAVITY, temperature=0.1)
    res = lindblad_steady_state(cfg)
    rel = abs(res.m_ss - res.m_th) / res.m_th
    ok = (rel < 1e-6 and res.trace_error < 1e-10
          and res.min_eigenvalue > -1e-8)
    assert report(9, ok,
                  f"laser off: |m_ss - m_th|/m_th = {rel:.2e} (< 1e-6), "
                  f"trace err {res.trace_error:.1e}, min eig "
                  f"{res.min_eigenvalue:.1e}")


def test_criterion_09b_cold_map_argmin_on_contour():
    deltas = np.linspace(-5.0, 5.0, 21)
    rabis = np.linspace(0.25, 5.25, 21)
    cfg = LindbladConfig(EMITTER, DriveConfig.from_ghz(0.0, 1.0, 0.0,
                                                       OMEGA_S_GHZ),
                         CAVITY, temperature=0.1, m_max=15)
    lmap = cooling_performance_map(
        [Frequency.from_ghz(d) for d in deltas],
        [Frequency.from_ghz(r) for r in rabis], cfg,
        diffusion_fwhm=Frequency.from_ghz(0.678), n_nodes=5)
    i, j = np.unravel_index(np.argmin(lmap.cooling_C), lmap.cooling_C.shape)
    radius = math.hypot(deltas[i], rabis[j])
    dev = abs(radius - OMEGA_S_GHZ)
    cell = max(deltas[1] - deltas[0], rabis[1] - rabis[0])
    ok = (dev <= cell and deltas[i] < 0 and lmap.cooling_C[i, j] < 0
          and lmap.worst_trace_error < 1e-10
          and lmap.worst_min_eigenvalue > -1e-8)
    assert report(9, ok,
                  f"0.1 K map argmin C = {lmap.cooling_C[i, j]:.4f} at "
                  f"({deltas[i]:+.2f}, {rabis[j]:.2f}) GHz; |Omega_R - "
                  f"omega_S| = {dev:.3f} GHz (cell {cell:.2f})")


def test_criterion_09c_warm_map_same_contour():
    deltas = np.linspace(-4.5, 4.5, 5)
    rabis = np.linspace(0.9, 3.3, 5)
    cfg = LindbladConfig(EMITTER, DriveConfig.from_ghz(0.0, 1.0, 0.0,
                                                       OMEGA_S_GHZ),
                         CAVITY, temperature=1.0)
    lmap = cooling_performance_map(
        [Frequency.from_ghz(d) for d in deltas],
        [Frequency.from_ghz(r) for r in rabis], cfg,
        diffusion_fwhm=Frequency.from_ghz(0.678), n_nodes=3)
    i, j = np.unravel_index(np.argmin(lmap.cooling_C), lmap.cooling_C.shape)
    radius = math.hypot(deltas[i], rabis[j])
    dev = abs(radius - OMEGA_S_GHZ)
    half_diag = 0.5 * math.hypot(deltas[1] - deltas[0], rabis[1] - rabis[0])
    ok = dev <= half_diag and deltas[i] < 0 and lmap.cooling_C[i, j] < 0
    assert report(9, ok,
                  f"1 K coarse map argmin C = {lmap.cooling_C[i, j]:.4f} at "
                  f"({deltas[i]:+.2f}, {rabis[j]:.2f}) GHz; contour dev "
                  f"{dev:.3f} GHz (within {half_diag:.2f})")


# ---------------------------------------------------------------------------
# 10. Fit round-trips
# ---------------------------------------------------------------------------

def test_criterion_10_fit_round_trips():
    rng = np.random.default_rng(1234)
    omega_s = Frequency.from_ghz(OMEGA_S_GHZ)

    truth = AbsorptionModel(omega_s, Frequency.from_ghz(1.75),
                            Frequency.from_ghz(0.678))
    deltas = np.linspace(-10, 10, 401) * GHZ
    counts = absorption_spectrum(truth, deltas)
    counts = counts * (1.0 + 0.01 * rng.standard_normal(counts.size))
    rep_a = fit_absorption(np.column_stack([deltas, counts]), omega_s,
                           AbsorptionModel(omega_s, Frequency.from_ghz(1.2),
                                           Frequency.from_ghz(0.5)))
    err_a = abs(rep_a.params["rabi_s_ghz"] - 1.75) / 1.75

    center, q = OMEGA_S_GHZ, 12562.0
    fwhm = center / q
    freqs = np.linspace(center - 10 * fwhm, center + 10 * fwhm, 1001)
    refl = 1.0 - 0.8 * (fwhm / 2) ** 2 / ((freqs - center) ** 2 + (fwhm / 2) ** 2)
    refl = refl + 0.01 * 0.8 * rng.standard_normal(freqs.size)
    rep_l = fit_lorentzian(np.column_stack([freqs, refl]))
    err_c = abs(rep_l.params["center"] - center) / center
    err_q = abs(rep_l.params["q"] - q) / q

    vpp = np.linspace(0.05, 0.5, 10)
    rep_s = fit_linear_through_origin(np.column_stack([vpp, 4.77 * vpp]))
    err_s = abs(rep_s.params["slope"] - 4.77)

    ok = (rep_a.converged and err_a < 0.01
          and rep_l.converged and err_c < 0.005 and err_q < 0.005
          and err_s < 1e-12)
    assert report(10, ok,
                  f"drive strength rel err {err_a:.4f} (< 0.01); cavity "
                  f"center/Q rel err {err_c:.2e}/{err_q:.4f} (< 0.005); "
                  f"slope abs err {err_s:.1e} (exact)")


# ---------------------------------------------------------------------------
# 11. Spectrum normalization property
# ---------------------------------------------------------------------------

def test_criterion_11_normalization_property():
    rng = np.random.default_rng(777)
    core = np.linspace(-16.0, 16.0, 3201) * GHZ
    wing = np.concatenate([np.linspace(16.25, 60.0, 176),
                           np.linspace(60.5, 160.0, 200)]) * GHZ
    grid = np.concatenate([-wing[::-1], core, wing])
    worst = 0.0
    for _ in range(20):
        cfg = DriveConfig.from_ghz(rng.uniform(-4.0, 4.0),
                                   rng.uniform(0.3, 4.0),
                                   rng.uniform(0.0, 2.0),
                                   rng.uniform(2.5, 4.5))
        (spec,) = spectrum_map([cfg], EMITTER, grid)
        rho_ee_bar = spec.meta["rho_ee_bar"]
        total = spec.normalization + spec.coherent_total
        worst = max(worst, abs(total - rho_ee_bar) / max(rho_ee_bar, 1e-300))
    ok = worst < 1e-3
    assert report(11, ok, f"worst |integral + coherent - rho_ee| / rho_ee = "
                          f"{worst:.2e} over 20 random drives (< 1e-3)")


# ---------------------------------------------------------------------------
# 12. Determinism of the CLI pipeline
# ---------------------------------------------------------------------------

def test_criterion_12_cli_determinism(tmp_path):
    args = ["spectrum", "--delta-ghz", "0", "--rabi-l-ghz", str(OMEGA_S_GHZ),
            "--rabi-s-ghz", "1.75", "--omega-s-ghz", str(OMEGA_S_GHZ),
            "--window-ghz", "12", "--points", "2001"]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    assert report(12, identical,
                  f"two runs of the cancellation config produce "
                  f"{'byte-identical' if identical else 'DIFFERING'} files "
                  f"({first.stat().st_size} bytes)")
