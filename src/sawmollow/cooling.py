"""Phonon cooling rates of the driven emitter-optomechanical system.

Two analytic routes give the semiclassical cooling rate: a closed form

    R = (delta / Omega_R) * rabi_L^2 rabi_S^2 /
        ((omega_S - Omega_R)^2 Omega_R^2 + rabi_L^2 rabi_S^2) * gamma * rho_ee

and the equivalent sum of phonon-number changes weighted by dipole
strengths over the 12 doubly dressed transitions, both as a float in
phonons per second.  Negative rates remove phonons (cooling, red-detuned
laser); the optimum sits on the Rabi resonance contour Omega_R = omega_S.

The quantized route solves d rho/dt = 0 for the Lindblad master equation
of the two-level system coupled to a damped thermal phonon mode (jump
operators: spontaneous emission, thermal pumping gamma_S*m_th b+, and
damping gamma_S*(m_th+1) b) and reports the normalized cooling performance
C = (m_ss - m_th)/m_th.  The coupling is weak, so the solve keeps only the
phonon coherences rho[m, m'] with |m - m'| <= K (the band), raising K from
1 until m_ss moves by at most _BAND_TOL * m_th; at its cap m_max the band
is the full Liouvillian.  The band operator is written from the master
equation's matrix elements on the band cells, each term moving m or m' by
at most one, and cached per (rabi_L, Fock size, K): a detuning changes
only its diagonal.  The cells are ordered by (m + m', m - m', spins), so
the operator is banded, of half-width 8K + 4, and its LU factorization
needs no reordering.  The trace condition replaces the equation of one
pinned cell, rho[(g, 0), (g, 0)] = 1, and the solution is divided by its
trace; the state is never formed as a dense matrix.  Its positivity is
checked on the band: in the basis interleaved as (m, spin) the Hermitian
part of the band state is itself banded, of half-width 2K + 1, and a
banded eigensolve gives its smallest eigenvalue.  Every solve checks its
own Fock truncation m_max: the phonon population p[m_max] of the top
level, as the start of a geometric tail, holds the share
p[m_max] * (m_max + 1 + m_ss) of m_ss.  Above _REL_TOL, m_max grows by 25%
and the state is solved again, its band search starting at the K the last
solve reached.  A coupling too strong for the band gives up: at a band
state whose populations are far below zero, or when the band search of
one steady state passes _MAX_WORK.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
# Loading scipy.linalg starts the worker thread of scipy's OpenBLAS, which
# spins for about 0.1 s; first, so the spin overlaps the scipy.sparse import.
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .dressed import transition_table
from .model import (
    GHZ,
    AcousticCavity,
    DomainError,
    DriveConfig,
    EmitterParams,
    Frequency,
    Spectrum,
    _as_rad,
    thermal_occupation,
)
from .bloch import (BlochGenerator, ConvergenceError, DegenerateSystemError,
                    floquet_steady_state)
from .spectrum import _diffusion_nodes, _node_sum, _node_sweep


_TAIL_MASS = 1e-8   # thermal occupation beyond the initial Fock truncation
_REL_TOL = 1e-4     # largest share of m_ss left to the tail beyond m_max
_MAX_ROUNDS = 12    # Fock growth gives up after this many solves
_BAND_TOL = 1e-10   # band growth stops when m_ss moves less than this * m_th
_MAX_WORK = 5e7     # band-search work of one steady state, cells * (2K + 1)^2


class ResolutionWarning(UserWarning):
    """Sideband integration window overlaps another predicted line."""


def cooling_rate_closed_form(config: DriveConfig, emitter: EmitterParams,
                             rho_ee: float) -> float:
    """Signed phonon rate (photons * phonons / s) of a drive whose
    period-averaged excited population is rho_ee.

    rate < 0 removes phonons.  |rate| <= 2 * gamma * rho_ee always (the
    phonon change per photon is bounded by 2).
    """
    if rho_ee == 0.0:   # emits nothing, so exchanges no phonons
        return 0.0
    d = config.delta.rad
    wl = config.rabi_L.rad
    ws_drive = config.rabi_S.rad
    wr = math.hypot(wl, d)   # the generalized Rabi frequency, as a float
    ws = config.omega_S.rad
    if wr == 0.0:
        raise DomainError("undriven, resonant config has no cooling axis "
                          "(generalized Rabi frequency is zero)")
    numerator = wl * wl * ws_drive * ws_drive
    if numerator == 0.0:
        return 0.0
    denom = (ws - wr) ** 2 * wr * wr + numerator
    return (d / wr) * (numerator / denom) * emitter.gamma.rad * rho_ee


def cooling_rate_from_table(config: DriveConfig, emitter: EmitterParams,
                            rho_ee: float) -> float:
    """Rate from the dressed transition table: sum of delta_N * weight
    over the 12 transitions, times the photon emission rate gamma*rho_ee."""
    mean_dn = sum(r.delta_n_phonon * r.dipole_weight
                  for r in transition_table(config))
    return mean_dn * emitter.gamma.rad * rho_ee


def cooling_rate_from_spectrum(spec: Spectrum, omega_S, window) -> float:
    """Proportional cooling rate from the two first-order phonon sidebands.

    Integrates the spectrum in windows of half-width `window` around
    -omega_S and +omega_S (offsets from the laser) after subtracting a
    straight baseline through the window edges, and returns
    I(-omega_S) - I(+omega_S).  Warns when another predicted transition
    line falls inside either window or within a quarter-window guard band
    of its edge (a line shoulder on the baseline anchor corrupts the
    subtraction well before the line center enters the window).
    """
    ws = _as_rad(omega_S)
    half = _as_rad(window)
    if half <= 0:
        raise ValueError("window must be positive")
    if spec.freqs[0] > -ws - half or spec.freqs[-1] < ws + half:
        raise ValueError("spectrum grid does not cover both sidebands")

    if spec.drive is not None:
        others = [r.offset.rad for r in transition_table(spec.drive)
                  if r.sideband == 0 or abs(abs(r.offset.rad) - ws) > 1e-6 * ws]
        for center in (-ws, ws):
            near = [o for o in others if abs(o - center) < 1.25 * half]
            if near:
                warnings.warn(
                    f"predicted line(s) at {[f'{o / GHZ:.3f}' for o in near]} "
                    f"GHz fall inside the sideband window at "
                    f"{center / GHZ:.3f} GHz",
                    ResolutionWarning, stacklevel=2)

    def windowed(center: float) -> float:
        sel = (spec.freqs >= center - half) & (spec.freqs <= center + half)
        f = spec.freqs[sel]
        y = spec.intensity[sel]
        baseline = y[0] + (y[-1] - y[0]) * (f - f[0]) / (f[-1] - f[0])
        total = float(np.trapezoid(y - baseline, f))
        csel = ((spec.coherent_freqs >= center - half)
                & (spec.coherent_freqs <= center + half))
        return total + float(np.sum(spec.coherent_weights[csel]))

    return windowed(-ws) - windowed(ws)


@dataclass(frozen=True)
class CoolingMap:
    """Closed-form cooling rate on a (delta, rabi_L) grid.

    rate and rho_ee are indexed [i_delta, j_rabi]; both are averaged over
    the Gaussian detuning distribution when diffusion_fwhm > 0 (the
    excited population is recomputed at every quadrature node).
    """

    rate: np.ndarray
    rho_ee: np.ndarray


def _grid_sweep(kernel, deltas, rabi_Ls, template: DriveConfig, offsets,
                jobs: int):
    """kernel(drive) at every diffusion node of every (delta, rabi_L) drive
    built on template, one [node, i_delta, j_rabi] array per returned
    field.  Drives run Rabi-major, so consecutive solves share rabi_L and
    the Liouvillian parts cached on it."""
    deltas = np.array([_as_rad(d) for d in np.atleast_1d(deltas)], dtype=float)
    rabi_Ls = np.array([_as_rad(r) for r in np.atleast_1d(rabi_Ls)], dtype=float)
    if deltas.size == 0 or rabi_Ls.size == 0:
        raise ValueError("grid must be nonempty")
    drives = [DriveConfig(Frequency(d), Frequency(wl), template.rabi_S,
                          template.omega_S) for wl in rabi_Ls for d in deltas]
    results = _node_sweep(partial(map, kernel), drives, offsets, jobs)
    return np.transpose(
        np.reshape(results, (rabi_Ls.size, deltas.size, len(offsets), -1)))


def _rate_point(emitter: EmitterParams, floquet_tol: float, cfg: DriveConfig):
    """Closed-form rate and Floquet excited population of one drive."""
    p = floquet_steady_state(BlochGenerator(cfg, emitter),
                             tol=floquet_tol).mean_rho_ee
    return cooling_rate_closed_form(cfg, emitter, p), p


def cooling_map(deltas, rabi_Ls, emitter: EmitterParams,
                template: DriveConfig, diffusion_fwhm=Frequency(0.0),
                n_nodes: int = 9, floquet_tol: float = 1e-9,
                jobs: int = 1) -> CoolingMap:
    """Closed-form rate over a detuning x Rabi-frequency grid.

    Per grid point: Floquet period-averaged excited population and
    closed-form rate at each Gaussian detuning node, then their weighted
    average (diffusion_fwhm = 0 is one node of weight 1).  jobs > 1 spreads
    the solves over threads, but this scalar kernel holds the GIL.
    """
    if not floquet_tol > 0:
        raise ValueError("tol must be positive")
    offsets, weights = _diffusion_nodes(_as_rad(diffusion_fwhm), n_nodes)
    kernel = partial(_rate_point, emitter, floquet_tol)
    rate, rho = _grid_sweep(kernel, deltas, rabi_Ls, template, offsets, jobs)
    return CoolingMap(_node_sum(weights, rate), _node_sum(weights, rho))


# ---------------------------------------------------------------------------
# Quantized phonon mode: Lindblad steady state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LindbladConfig:
    """Inputs of the quantized steady-state solve.

    The acoustic drive is absent here: the laser alone cools or heats the
    thermal phonon mode through the sigma_z coupling, so drive.rabi_S must
    be 0 and drive.omega_S the cavity's omega_S.  m_max is the floor
    of the Fock truncation: the solve starts where the thermal tail beyond
    it is below _TAIL_MASS, and grows it while the steady state's own tail
    holds more than _REL_TOL of m_ss.
    """

    emitter: EmitterParams
    drive: DriveConfig
    cavity: AcousticCavity
    temperature: float
    m_max: int = 0          # 0: derive from the thermal tail bound

    def __post_init__(self):
        if not self.temperature > 0:
            raise DomainError("temperature must be positive")
        if self.m_max < 0:
            raise DomainError("m_max must be >= 0")
        if (self.drive.rabi_S.rad != 0.0
                or self.drive.omega_S != self.cavity.omega_S):
            raise DomainError("the Lindblad solve has no acoustic drive: "
                              "drive.rabi_S must be 0, drive.omega_S the "
                              "cavity's")
        # A temperature whose occupation underflows, or is too large for the
        # thermal tail to decay, raises DomainError here, before any solve,
        # instead of at every point of a map.
        m_th = thermal_occupation(self.cavity.omega_S, self.temperature)
        if not m_th / (m_th + 1.0) < 1.0:
            raise DomainError(f"temperature {self.temperature:.3e} K: thermal "
                              "occupation too large for a Fock truncation")

    @property
    def m_th(self) -> float:
        return thermal_occupation(self.cavity.omega_S, self.temperature)

    def initial_m_max(self) -> int:
        m_th = self.m_th
        ratio = m_th / (m_th + 1.0)
        tail = max(1, math.ceil(math.log(_TAIL_MASS) / math.log(ratio)))
        return max(self.m_max, tail, 1)


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady phonon number, cooling performance, and solve diagnostics."""

    m_ss: float
    cooling_C: float
    trace_error: float
    min_eigenvalue: float
    residual_norm: float    # of the band equations: round-off, not truncation
    m_max_used: int
    band: int
    m_th: float

    def __post_init__(self):   # _solve_band holds the trace to 1e-6
        if self.min_eigenvalue < -1e-6:
            raise ConvergenceError("steady state is far from positive",
                                   residual=-self.min_eigenvalue)


@lru_cache(maxsize=16)
def _band_cells(nf: int, k: int):
    """Spins and phonon numbers (s, m, t, n) of the band cells
    rho[(s, m), (t, n)], |m - n| <= k (s = 0 excited), in the band order
    (m + n, m - n, s, t), and their indices by [s, m, t, m - n + k]."""
    total, d, s, t = (a.ravel() for a in np.meshgrid(
        range(2 * nf - 1), range(-k, k + 1), range(2), range(2),
        indexing="ij"))
    m, n = (total + d) // 2, (total - d) // 2
    keep = (((total + d) % 2 == 0) & (np.minimum(m, n) >= 0)
            & (np.maximum(m, n) < nf))
    s, m, t, n = s[keep], m[keep], t[keep], n[keep]
    index = np.full((2, nf, 2, 2 * k + 1), -1)
    index[s, m, t, m - n + k] = np.arange(m.size)
    return s, m, t, n, index


@lru_cache(maxsize=16)
def _liouvillian_parts(wl: float, ws: float, g0: float, gamma: float,
                       gamma_s: float, m_th: float, nf: int, k: int):
    """L at delta = 0 on the band cells, in their band order, as CSC; its
    diagonal's slots and delta coefficients i (t - s), and the slots of the
    row of the pinned cell rho[(g, 0), (g, 0)]."""
    s, m, t, n, index = _band_cells(nf, k)
    size = m.size

    def cell(s2, m2, t2, n2):   # index of a cell, -1 outside the band
        valid = ((np.minimum(m2, n2) >= 0) & (np.maximum(m2, n2) < nf)
                 & (np.abs(m2 - n2) <= k))
        return np.where(valid, index[s2, np.clip(m2, 0, nf - 1), t2,
                                     np.clip(m2 - n2 + k, 0, 2 * k)], -1)

    down, up = gamma_s * (m_th + 1.0), gamma_s * m_th   # rates of b, b+
    bbd = np.append(np.arange(1.0, nf), 0.0)   # b b+ with b truncated at nf
    decay = gamma * (2 - s - t) + down * (m + n) + up * (bbd[m] + bbd[n])
    diag = -1j * ws * (m - n) - 0.5 * decay   # 2 - s - t: excited count
    zs, zt = 0.5j * g0 * (1 - 2 * s), 0.5j * g0 * (1 - 2 * t)
    # -i [H, rho] off the diagonal (laser, coupling), then the three jumps
    terms = [(1 - s, m, t, n, np.full(size, -0.5j * wl)),
             (s, m, 1 - t, n, np.full(size, 0.5j * wl)),
             (s, m + 1, t, n, -zs * np.sqrt(m + 1.0)),
             (s, m - 1, t, n, -zs * np.sqrt(m)),
             (s, m, t, n + 1, zt * np.sqrt(n + 1.0)),
             (s, m, t, n - 1, zt * np.sqrt(n)),
             (0 * s, m, 0 * t, n, gamma * s * t),
             (s, m + 1, t, n + 1, down * np.sqrt((m + 1.0) * (n + 1.0))),
             (s, m - 1, t, n - 1, up * np.sqrt(1.0 * m * n))]
    source = np.array([cell(*term[:4]) for term in terms])
    value = np.array([term[4] for term in terms])
    keep = (source >= 0) & (value != 0)
    rows = np.concatenate([np.arange(size), np.nonzero(keep)[1]])
    cols = np.concatenate([np.arange(size), source[keep]])
    vals = np.concatenate([diag, value[keep]])
    key, slot = np.unique(cols * size + rows, return_inverse=True)
    data = np.bincount(slot, vals.real) + 1j * np.bincount(slot, vals.imag)
    op = sp.csc_matrix((data, key % size, np.searchsorted(
        key, np.arange(size + 1) * size)), shape=(size, size))
    pin = np.flatnonzero(key % size == index[1, 0, 1, k])
    return op, slot[:size], 1j * (t - s), pin


def _solve_band(cfg: LindbladConfig, n_fock: int, band: int):
    """Steady state x on the band cells |m - m'| <= band, in their band
    order (_band_cells), with unit trace; its m_ss, the m_ss of the
    band - 1 state y, and the band residual.  L is singular, with the trace
    as its left null vector, so A is L with the equation of the pinned cell
    rho[(g, 0), (g, 0)] replaced by rho_pin = 1; x is A's solution divided
    by its trace.  y is zero on the edge |m - m'| = band and obeys
    y = y_pin x + A^-1 E L y (E keeps the edge rows); one step from y = x is
    exact to first order in the weak coupling across the edge.  Every term
    of L moves m + m' by at most 2, so in the band order A is banded,
    with half-width 8 band + 4, and SuperLU keeps its natural order; the
    full band (n_fock - 1) factorizes faster in COLAMD's order."""
    op, diag, detuning, pin = _liouvillian_parts(
        cfg.drive.rabi_L.rad, cfg.cavity.omega_S.rad, cfg.cavity.g0.rad,
        cfg.emitter.gamma.rad, cfg.cavity.dissipation.rad, cfg.m_th, n_fock,
        band)
    s, m, t, n, index = _band_cells(n_fock, band)
    on_diagonal, edge = (s == t) & (m == n), np.abs(m - n) == band
    shift = cfg.drive.delta.rad * detuning   # delta acts on the diagonal only
    data = op.data.copy()    # the cached operator stays at delta = 0
    data[diag] += shift
    # The mean |entry| of L; a power-of-two scale keeps its sum finite.
    mag = np.abs(data)
    scale = 2.0 ** -math.frexp(mag.max())[1]
    weight = np.sum(mag * scale) / np.count_nonzero(mag) / scale
    p = index[1, 0, 1, band]
    data[pin] = 0.0
    data[diag[p]] = weight
    a = sp.csc_matrix((data, op.indices, op.indptr), shape=op.shape)
    try:
        lu = splu(a, permc_spec="NATURAL" if band < n_fock - 1 else "COLAMD")
    except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
        raise DegenerateSystemError(f"Lindblad steady state: {exc}") from None
    x = lu.solve(weight * (np.arange(m.size) == p))   # x_pin = 1
    x_off_edge = np.where(edge, 0.0, x)
    y = x + lu.solve(np.where(edge, op @ x_off_edge + shift * x_off_edge, 0.0))
    if not (np.isfinite(x).all() and np.isfinite(y).all()
            and abs(x[p] - 1.0) <= 1e-6):
        raise DegenerateSystemError("Lindblad steady state: the solve is not "
                                    "finite or has lost its pinned cell")
    x, y = x / x[on_diagonal].sum(), y / y[on_diagonal].sum()
    # A band too narrow for the coupling leaves populations far below 0.
    if x[on_diagonal].real.min() < -1e-6:
        raise ConvergenceError(
            f"Lindblad steady state: band K = {band} at m_max = {n_fock - 1} "
            "is far from positive", residual=-x[on_diagonal].real.min())
    number = np.where(on_diagonal, m, 0)
    return (x, float(number @ x.real), float(number @ y.real),
            float(np.abs(op @ x + shift * x).max()))


def _band_steady_state(cfg: LindbladConfig, n_fock: int, first_band: int = 2,
                       spent=None):
    """x, m_ss, band residual and band K at n_fock, K grown from
    first_band; one band-K solve gives m_ss at K - 1 and K.  spent[0] adds
    up the work of every solve, its cells times (2K + 1)^2 (the banded LU
    scales so); the search stops before a solve that takes it past
    _MAX_WORK."""
    spent = [0.0] if spent is None else spent
    moved = math.inf
    for band in range(min(first_band, n_fock - 1), n_fock):
        spent[0] += _band_cells(n_fock, band)[1].size * (2 * band + 1) ** 2
        if spent[0] > _MAX_WORK:
            raise ConvergenceError(
                f"Lindblad steady state: band search at m_max = {n_fock - 1} "
                f"passes its work limit {_MAX_WORK:g} at K = {band}: m_ss "
                "does not settle in K", residual=moved)
        x, m_ss, m_prev, residual = _solve_band(cfg, n_fock, band)
        if abs(m_ss - m_prev) <= _BAND_TOL * cfg.m_th:
            break
        moved = abs(m_ss - m_prev) / cfg.m_th
    return x, m_ss, residual, band


def _min_eigenvalue(x, n_fock: int, band: int) -> float:
    """Smallest eigenvalue of the Hermitian part of the band state x.  In
    the interleaved basis 2 m + s it is banded, of half-width 2 band + 1."""
    s, m, t, n, _ = _band_cells(n_fock, band)
    i, j = 2 * m + s, 2 * n + t
    lower, upper = i >= j, i <= j
    ab = np.zeros((2 * band + 2, 2 * n_fock), dtype=complex)   # lower band
    ab[(i - j)[lower], j[lower]] = 0.5 * x[lower]
    ab[(j - i)[upper], i[upper]] += 0.5 * x[upper].conjugate()
    return float(scipy.linalg.eig_banded(
        ab, lower=True, eigvals_only=True, select="i", select_range=(0, 0))[0])


def band_deviation(cfg: LindbladConfig, m_max: int) -> tuple[int, float]:
    """Band K at Fock truncation m_max and |m_ss - m_ss(K = m_max)| / m_th."""
    _, m_ss, _, band = _band_steady_state(cfg, m_max + 1)
    return band, abs(m_ss - _solve_band(cfg, m_max + 1, m_max)[1]) / cfg.m_th


def lindblad_steady_state(cfg: LindbladConfig) -> SteadyStateResult:
    """Steady state of the quantized emitter-phonon master equation, with
    the band K and the Fock truncation m_max grown as the module docstring
    says; K barely changes with m_max, so each round starts at the last K."""
    m_th = cfg.m_th
    m, band, spent = cfg.initial_m_max(), 2, [0.0]
    for _ in range(_MAX_ROUNDS):
        x, m_ss, residual, band = _band_steady_state(cfg, m + 1, band, spent)
        s, level, t, n, index = _band_cells(m + 1, band)
        top = x[index[:, m, :, band].diagonal()]   # the top level, both spins
        tail = float(top.real.sum()) * (m + 1 + m_ss)
        if tail <= _REL_TOL:
            trace = float(x[(s == t) & (level == n)].sum().real)
            trace_error = abs(trace - 1.0)
            min_eig = _min_eigenvalue(x, m + 1, band)
            return SteadyStateResult(m_ss, (m_ss - m_th) / m_th, trace_error,
                                     min_eig, residual, m, band, m_th)
        m, m_solved = math.ceil(1.25 * m), m
    raise ConvergenceError(
        f"Fock tail beyond m_max = {m_solved} holds {tail:.3g} of "
        f"m_ss = {m_ss:.6g} after {_MAX_ROUNDS} solves (limit {_REL_TOL:g})",
        residual=tail)


@dataclass(frozen=True)
class LindbladMap:
    """Cooling performance C on a (delta, rabi_L) grid, [i_delta, j_rabi],
    with the worst solve diagnostics and the widest band K of the map."""

    cooling_C: np.ndarray
    m_ss: np.ndarray
    worst_trace_error: float
    worst_min_eigenvalue: float
    max_band: int


def _performance_point(cfg: LindbladConfig, drive: DriveConfig):
    """C, m_ss, trace error, minimum eigenvalue and band of cfg at a drive."""
    res = lindblad_steady_state(replace(cfg, drive=drive))
    return (res.cooling_C, res.m_ss, res.trace_error, res.min_eigenvalue,
            res.band)


def cooling_performance_map(deltas, rabi_Ls, cfg: LindbladConfig,
                            diffusion_fwhm=Frequency(0.0), n_nodes: int = 5,
                            jobs: int = 1) -> LindbladMap:
    """Quantized cooling performance over a (delta, rabi_L) grid.

    The Gaussian detuning average is applied to C and m_ss per grid point.
    Each solve sizes its own Fock space as lindblad_steady_state does.
    jobs > 1 spreads the solves over threads.
    """
    offsets, weights = _diffusion_nodes(_as_rad(diffusion_fwhm), n_nodes)
    kernel = partial(_performance_point, cfg)
    c_map, m_map, trace, eig, band = _grid_sweep(
        kernel, deltas, rabi_Ls, cfg.drive, offsets, jobs)
    # A map whose solves are all positive reports a minimum eigenvalue of 0.
    return LindbladMap(_node_sum(weights, c_map), _node_sum(weights, m_map),
                       float(trace.max()), min(0.0, float(eig.min())),
                       int(band.max()))
