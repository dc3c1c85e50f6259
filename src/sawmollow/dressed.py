"""Doubly dressed-state algebra for the optically driven, acoustically
modulated two-level emitter.

The optical field dresses |g,n+1,m> with |e,n,m> (mixing angle theta_L,
splitting = generalized Rabi frequency).  The acoustic field then dresses
|-,n',m+1> with |+,n',m> (mixing angle theta_S, splitting G).  Twelve
dipole-allowed transitions follow, grouped into three triplets centered at
offsets -omega_S, 0, +omega_S from the laser.  Everything here uses the
classical substitutions g_L sqrt(n) -> rabi_L and g0 sqrt(m) -> rabi_S, so
the table is parameterized by laboratory knobs.  The quantized ladder is
diagonalized only by the oracle in tests/test_dressed.py, which checks the
gap G against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DriveConfig, Frequency


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
