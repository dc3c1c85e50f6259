"""Doubly dressed-state algebra for the optically driven, acoustically
modulated two-level emitter.

The optical field dresses |g,n+1,m> with |e,n,m> (mixing angle theta_L,
splitting = generalized Rabi frequency).  The acoustic field then dresses
|-,n',m+1> with |+,n',m> (mixing angle theta_S, splitting G).  Twelve
dipole-allowed transitions follow, grouped into three triplets centered at
offsets -omega_S, 0, +omega_S from the laser.  Everything here uses the
classical substitutions g_L sqrt(n) -> rabi_L and g0 sqrt(m) -> rabi_S, so
the table is parameterized by laboratory knobs; the quantized ladder is
kept only in :func:`eigensystem_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DriveConfig, Frequency


@dataclass(frozen=True)
class MixingAngles:
    """Optical and acoustic dressing angles, in radians.

    theta_L in [0, pi/2]; theta_L = pi/4 at zero detuning.  theta_S is on
    the continuous branch [0, pi/2): it passes through pi/4 at the Rabi
    resonance omega_S = Omega_R instead of jumping, so eigenvectors vary
    continuously across the anti-crossing.  degenerate marks the undriven,
    resonant corner (rabi_L = 0 and delta = 0) where theta_L is arbitrary.
    """

    theta_L: float
    theta_S: float
    degenerate: bool = False


def mixing_angles(config: DriveConfig) -> MixingAngles:
    """Dressing angles of a drive condition, from :func:`_dressing_cosines`.

    theta_L = atan2(rabi_L, delta)/2 and
    theta_S = atan2(rabi_S*sin(2 theta_L), omega_S - Omega_R)/2.
    The atan2 half-angle form keeps both angles continuous; below the Rabi
    resonance theta_S continues toward pi/2, which is the branch on which
    the transition table reduces to the plain Mollow triplet as rabi_S -> 0.
    """
    cos2l, sin2l, cos2s, sin2s, _ = _dressing_cosines(config)
    return MixingAngles(0.5 * math.atan2(sin2l, cos2l),
                        0.5 * math.atan2(sin2s, cos2s),
                        degenerate=config.rabi_R.rad == 0.0)


def dressed_splitting(config: DriveConfig) -> Frequency:
    """Acoustic anti-crossing gap G = sqrt((omega_S - Omega_R)^2 +
    (rabi_S sin 2 theta_L)^2); the side peaks of each triplet split by 2G,
    with minimum 2*rabi_S at the Rabi resonance."""
    return Frequency(_dressing_cosines(config)[4])


@dataclass(frozen=True)
class TransitionRecord:
    """One dipole-allowed transition between doubly dressed states.

    offset is the emission frequency relative to the laser (rad/s);
    dipole_weight is |<f|sigma_x|i>|^2; delta_n_phonon is the phonon number
    change per emitted photon (real-valued: acoustic dressing makes it an
    expectation-value change, not an integer).  sideband labels the triplet
    the transition belongs to (-1, 0, +1 phonon sideband of the laser).
    """

    index: int
    offset: Frequency
    dipole_weight: float
    delta_n_phonon: float
    sideband: int


def _dressing_cosines(config: DriveConfig):
    """(cos 2theta_L, sin 2theta_L, cos 2theta_S, sin 2theta_S, gap) from
    Cartesian ratios.

    Working with the double-angle cosines directly keeps the special points
    exact: cos 2theta_S = (omega_S - Omega_R)/G is exactly zero at the Rabi
    resonance, so the central gray-line weights vanish identically there
    rather than to rounding error.
    """
    d = config.delta.rad
    wl = config.rabi_L.rad
    wr = config.rabi_R.rad
    if wr == 0.0:  # degenerate undriven resonant corner: theta_L = pi/4
        cos2l, sin2l = 0.0, 1.0
    else:
        cos2l, sin2l = d / wr, wl / wr
    diff = config.omega_S.rad - wr
    coupling = config.rabi_S.rad * sin2l
    gap = math.hypot(diff, coupling)
    if gap == 0.0:  # resonant with vanishing coupling: theta_S = pi/4 limit
        cos2s, sin2s = 0.0, 1.0
    else:
        cos2s, sin2s = diff / gap, coupling / gap
    return cos2l, sin2l, cos2s, sin2s, gap


def transition_table(config: DriveConfig) -> list[TransitionRecord]:
    """The 12 dipole-allowed transitions for a drive condition.

    Weights sum to 1 for any drive.  The two transitions at the bare laser
    frequency (indices 5 and 8) carry weight proportional to
    cos^2(2 theta_S) and vanish exactly at the Rabi resonance; that is the
    dynamical cancellation of the central line.  Note the sign of
    delta_n_phonon for transitions 6 and 7 flips at the Rabi resonance.
    """
    cos2l, _, cos2s, _, gap = _dressing_cosines(config)
    return _table_from_cosines(cos2l, cos2s, config.omega_S.rad, gap)


def table_from_angles(theta_l: float, theta_s: float, omega_s: float,
                      gap: float) -> list[TransitionRecord]:
    """Transition table from explicit mixing angles (algebra entry point)."""
    return _table_from_cosines(math.cos(2.0 * theta_l),
                               math.cos(2.0 * theta_s), omega_s, gap)


def _table_from_cosines(cos2l: float, cos2s: float, omega_s: float,
                        gap: float) -> list[TransitionRecord]:
    cl2 = 0.5 * (1.0 + cos2l)
    sl2 = 0.5 * (1.0 - cos2l)
    cs2 = 0.5 * (1.0 + cos2s)
    ss2 = 0.5 * (1.0 - cos2s)
    cl4, sl4 = cl2 * cl2, sl2 * sl2
    cs4, ss4 = cs2 * cs2, ss2 * ss2
    cross_l = cl2 * sl2
    cross_s = cs2 * ss2
    central = cos2s * cos2s  # (cos^2 - sin^2)^2 of theta_S
    rows = [
        (1, -omega_s, cl4 * cross_s, 1.0, -1),
        (2, -omega_s + gap, cl4 * cs4, 2.0 * ss2, -1),
        (3, -omega_s - gap, cl4 * ss4, 2.0 * cs2, -1),
        (4, -omega_s, cl4 * cross_s, 1.0, -1),
        (5, 0.0, cross_l * central, 0.0, 0),
        (6, gap, 4.0 * cross_l * cross_s, -cos2s, 0),
        (7, -gap, 4.0 * cross_l * cross_s, cos2s, 0),
        (8, 0.0, cross_l * central, 0.0, 0),
        (9, omega_s, sl4 * cross_s, -1.0, 1),
        (10, omega_s + gap, sl4 * ss4, -2.0 * cs2, 1),
        (11, omega_s - gap, sl4 * cs4, -2.0 * ss2, 1),
        (12, omega_s, sl4 * cross_s, -1.0, 1),
    ]
    return [TransitionRecord(i, Frequency(f), w, dn, sb)
            for i, f, w, dn, sb in rows]


def mean_phonon_change(theta_l: float, theta_s: float) -> float:
    """Mean phonon number change per emitted photon, summed over the table.

    Closes to cos(2 theta_L) * sin^2(2 theta_S); equal to twice the partial
    sum over the four first-order sideband transitions (1, 4, 9, 12), which
    is why the two sideband intensities alone determine the cooling rate.
    """
    rows = table_from_angles(theta_l, theta_s, 1.0, 0.5)
    return sum(r.delta_n_phonon * r.dipole_weight for r in rows)


@dataclass(frozen=True)
class OverlayLine:
    """One predicted emission line: offset from the laser, summed weight,
    triplet group (-1, 0, +1 phonon sideband), and branch within the
    triplet (-1 lower side peak, 0 center, +1 upper side peak)."""

    offset: Frequency
    weight: float
    group: int
    branch: int


def overlay_lines(sweep) -> list[tuple[DriveConfig, list[OverlayLine]]]:
    """Nine distinct line predictions per drive config.

    Merges the equal-frequency pairs (1, 4), (5, 8) and (9, 12) by summing
    weights, leaving three triplets of three lines each, ordered by group
    then branch.
    """
    sweep = list(sweep)
    if not sweep:
        raise ValueError("sweep must be nonempty")
    out = []
    for config in sweep:
        records = transition_table(config)
        by_index = {r.index: r for r in records}
        merged = []
        for center_pair, side_lo, side_hi, group in (
                ((1, 4), 3, 2, -1), ((5, 8), 7, 6, 0), ((9, 12), 11, 10, 1)):
            a, b = (by_index[i] for i in center_pair)
            merged.append(OverlayLine(a.offset, a.dipole_weight + b.dipole_weight,
                                      group, 0))
            lo, hi = by_index[side_lo], by_index[side_hi]
            merged.append(OverlayLine(lo.offset, lo.dipole_weight, group, -1))
            merged.append(OverlayLine(hi.offset, hi.dipole_weight, group, 1))
        merged.sort(key=lambda line: (line.group, line.branch))
        out.append((config, merged))
    return out


@dataclass(frozen=True)
class EigensystemReport:
    """Comparison of the analytic doubly dressed frequencies against direct
    diagonalization of the truncated quantized ladder."""

    numeric_gap: float
    analytic_gap: float
    max_deviation: float
    perturbative_bound: float
    truncation_warning: bool


def eigensystem_check(config: DriveConfig, n_ref: int, m_ref: int,
                      m_window: int = 10) -> EigensystemReport:
    """Diagonalize the quantized atom-photon-phonon block around (n_ref, m_ref).

    The optical coupling conserves the polariton number, so the block
    spanned by {|g, n_ref+1, m>, |e, n_ref, m>} is exact in the photon
    sector; only the phonon ladder is truncated (m_ref +- m_window).  The
    couplings are fixed by g_L sqrt(n_ref + 1) = rabi_L and
    g0 sqrt(m_ref) = rabi_S so the classical substitution is exact at the
    reference occupation.  Compares the near-degenerate splitting at the
    reference phonon number against the analytic gap G; the analytic form
    is perturbative, accurate to O((g0 sqrt(m))^2 / omega_S).
    """
    if n_ref < 0 or m_ref < 1:
        raise ValueError("need n_ref >= 0 and m_ref >= 1")
    d = config.delta.rad
    wl = config.rabi_L.rad
    ws = config.omega_S.rad
    g0 = config.rabi_S.rad / math.sqrt(m_ref)

    m_lo = max(0, m_ref - m_window)
    m_hi = m_ref + m_window
    ms = np.arange(m_lo, m_hi + 1)
    nm = ms.size
    dim = 2 * nm
    # Basis ordering: (|g, n_ref+1, m>, |e, n_ref, m>) for each m.
    h = np.zeros((dim, dim))
    for j, m in enumerate(ms):
        gi, ei = 2 * j, 2 * j + 1
        # Energies relative to (n_ref + 1/2) omega_L + omega0-midpoint.
        h[gi, gi] = 0.5 * d + m * ws
        h[ei, ei] = -0.5 * d + m * ws
        h[gi, ei] = h[ei, gi] = 0.5 * wl
        # sigma_z (b + b^dag) coupling: +1 on |e>, -1 on |g>.
        if j + 1 < nm:
            amp = 0.5 * g0 * math.sqrt(m + 1)
            h[gi, gi + 2] = h[gi + 2, gi] = -amp
            h[ei, ei + 2] = h[ei + 2, ei] = amp
    evals = np.linalg.eigvalsh(h)

    gap = dressed_splitting(config).rad
    wr = config.rabi_R.rad
    # Analytic doubly dressed levels near the reference phonon number:
    # (m' + 1/2) omega_S +- G/2 relative to the polariton midpoint, built
    # from the pair (|-, m'+1>, |+, m'>) around m' = m_ref.
    span = range(max(m_lo, m_ref - m_window // 2),
                 min(m_hi - 1, m_ref + m_window // 2))
    predicted = []
    for mp in span:
        base = (mp + 0.5) * ws
        predicted.extend([base + 0.5 * gap, base - 0.5 * gap])
    predicted = np.array(sorted(predicted))
    deviations = [np.min(np.abs(evals - p)) for p in predicted]
    max_dev = float(np.max(deviations))

    # Numeric gap: splitting of the two eigenvalues closest to the analytic
    # near-degenerate pair at m' = m_ref.
    base = (m_ref + 0.5) * ws
    lo = evals[np.argmin(np.abs(evals - (base - 0.5 * gap)))]
    hi = evals[np.argmin(np.abs(evals - (base + 0.5 * gap)))]
    numeric_gap = float(hi - lo)

    coupling = g0 * math.sqrt(m_ref)
    bound = coupling ** 2 / ws + 1e-9 * max(ws, wr, wl, abs(d))
    warn = (m_lo == 0 and m_ref - m_window < 0) or nm < 5
    return EigensystemReport(numeric_gap=numeric_gap, analytic_gap=gap,
                             max_deviation=max_dev,
                             perturbative_bound=float(bound),
                             truncation_warning=bool(warn))
