"""Resonance fluorescence spectra via the quantum regression theorem.

Pipeline: Floquet limit cycle -> phase-averaged spectrum from the Floquet
(Sambe-space) resolvent at each Gaussian spectral-diffusion node -> node
average -> etalon convolution.  Nodes stay plain arrays (intensity, coherent
weights by harmonic order, health) until :func:`spectrum_map` builds one
Spectrum per drive.

The regression step uses the linearity of the Bloch equations: a regression
initial condition rho(t0) s+ maps to the generalized expectation vector
u = (0, rho_ee(t0), -<s+>(t0)) with the constant term of the equations
scaled by tr[rho(t0) s+] = <s+>(t0).  As tau grows, u(tau) approaches the
coherent plateau <s+>(t0) x(t0 + tau); the deviation obeys the homogeneous
equations from d(t0) = (0, rho_ee, -<s+>)(t0) - <s+>(t0) x(t0).

Written in harmonics of the end time t0 + tau, the deviation evolves under
the harmonic-balance operator L of the limit cycle (diagonal blocks
A - i k w, neighbours B/2), and its phase average is the k = 0 block.  The
incoherent spectrum is therefore exactly

    S(nu) = (1/pi) Re [((-i nu - L)^-1 D)_0]_1,

with D the harmonics of d (Sambe, PRA 7, 2203 (1973)).
:func:`_node_spectra` solves only the central block with the matrix
continued fraction that also gives the limit cycle,
:func:`sawmollow.bloch._sambe_solve`, vectorized over frequencies and nodes.

The plateau's harmonics become delta lines at multiples of the acoustic
frequency, recorded as discrete coherent weights on the Spectrum.

The time-domain route (the two-time correlator propagated over discrete
phases and Fourier transformed by direct quadrature) is an independent
oracle for these spectra and lives with the tests, in
tests/correlator_oracle.py.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bloch import BlochGenerator, _sambe_solve, floquet_steady_state
from .model import GHZ, EmitterParams, Frequency, Spectrum


class AliasingError(ValueError):
    """Requested window exceeds the etalon free spectral range."""


@dataclass(frozen=True)
class InstrumentModel:
    """Spectral diffusion plus scanning-etalon response.

    diffusion_fwhm : Gaussian FWHM of the slow detuning drift
    etalon_fwhm    : Lorentzian FWHM of the etalon transmission
    etalon_fsr     : free spectral range (single-order windows only)
    """

    diffusion_fwhm: Frequency = Frequency(0.0)
    etalon_fwhm: Frequency = Frequency(0.0)
    etalon_fsr: Frequency = Frequency.from_ghz(20.0)

    def __post_init__(self):
        if self.diffusion_fwhm.rad < 0 or self.etalon_fwhm.rad < 0:
            raise ValueError("instrument widths must be non-negative")
        hw = 0.5 * self.etalon_fwhm.rad
        if hw > 0 and hw * hw < np.finfo(float).tiny:
            raise ValueError("etalon half-width squared underflows")
        if self.etalon_fsr.rad <= self.etalon_fwhm.rad:
            raise ValueError("etalon FSR must exceed its linewidth")


def _clip(intensity: np.ndarray) -> np.ndarray:
    """intensity floored at -Spectrum.CLIP_REL times its peak, which the
    Spectrum check allows; adding 0.0 turns the -0.0 floor of an all-zero
    intensity into +0.0."""
    peak = float(np.max(intensity))
    return np.maximum(intensity, -Spectrum.CLIP_REL * peak) + 0.0


def _regression_source(fs) -> np.ndarray:
    """Harmonics of d(t) = (0, rho_ee, -s+)(t) - s+(t) x(t), orders -n..n."""
    n = fs.n_harmonics
    sp, sm, sz = fs.harmonics.T

    def times_sp(a):
        # Orders -n..n of the product s+(t) a(t); the convolution spans -2n..2n.
        return np.convolve(sp, a)[n:3 * n + 1]

    d = np.empty((2 * n + 1, 3), dtype=complex)
    d[:, 0] = -times_sp(sp)
    d[:, 1] = 0.5 * sz - times_sp(sm)
    d[n, 1] += 0.5
    d[:, 2] = -sp - times_sp(sz)
    return d


_HEALTH_KEYS = ("floquet_residual", "n_harmonics", "rho_ee_bar",
                "min_intensity_preclip")


def _node_spectra(drives, emitter: EmitterParams, freqs, floquet_tol):
    """Yields (intensity, lines, health) of drives on a valid grid, before
    any instrument: the clipped intensity, the coherent weights keyed by
    order k, and the health values in the order of the meta keys
    _HEALTH_KEYS.

    The incoherent part is the exact phase-averaged Floquet resolvent (see
    the module docstring), truncated at the harmonic order the limit cycle
    converged at; the coherent plateau is carried as delta weights
    Re(m_k s+_{-k}) at k omega_S, m_k being the s- harmonics.  Drives equal
    but for detuning and at one truncation order share batched resolvent
    solves."""
    cycles = [floquet_steady_state(BlochGenerator(drive, emitter),
                                   tol=floquet_tol) for drive in drives]
    groups, incoherent = {}, {}
    for k, fs in enumerate(cycles):
        key = (fs.drive.replace_delta(0.0), fs.n_harmonics)
        groups.setdefault(key, []).append(k)
    size = max(1, (1 << 16) // freqs.size)   # nodes a batch: arrays <= 1 MB
    for (drive, _), group in groups.items():
        gen = BlochGenerator(drive, emitter)
        for ks in (group[i:i + size] for i in range(0, len(group), size)):
            d = np.stack([_regression_source(cycles[k]) for k in ks], -1)
            delta = np.array([[drives[k].delta.rad] for k in ks])
            y0 = _sambe_solve(gen, d[..., None], -1j * freqs, delta)
            incoherent.update(zip(ks, y0[1].real / math.pi))
    for k, fs in enumerate(cycles):
        rho, intensity = fs.mean_rho_ee, incoherent[k]
        if not np.all(np.isfinite(intensity)):
            raise ValueError("intensity must be finite")
        coh_w = (fs.harmonics[:, 1] * fs.harmonics[::-1, 0]).real
        keep = coh_w > 1e-14 * max(rho, 1e-300)
        health = (fs.residual, fs.n_harmonics, rho, float(np.min(intensity)))
        yield (_clip(intensity),
               dict(zip(fs.orders[keep].tolist(), coh_w[keep])), health)


def _diffusion_nodes(fwhm_rad: float, n_nodes: int):
    """Detuning offsets and weights averaging over a Gaussian of given FWHM:
    Gauss-Hermite with n_nodes (odd, >= 3, checked at any width) nodes, or
    the single node (0, 1) when the width is zero."""
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("n_nodes must be odd and >= 3")
    if fwhm_rad < 0:
        raise ValueError("diffusion width must be non-negative")
    if fwhm_rad == 0.0:
        return np.zeros(1), np.ones(1)
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    sigma = fwhm_rad / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    return math.sqrt(2.0) * sigma * x, w / math.sqrt(math.pi)


def _outcomes(fn, items) -> list:
    """Per item (ok, result or exception): fn(items), then item by item."""
    try:
        return [(True, result) for result in fn(items)]
    except Exception:  # rerun item by item
        out = []
    for item in items:
        try:
            (result,) = fn([item])
            out.append((True, result))
        except Exception as exc:  # aggregate, do not stop the sweep
            out.append((False, exc))
    return out


def _node_sweep(kernel, drives, offsets, jobs: int = 1) -> list:
    """kernel, mapping a list of drives to their results, over every drive
    shifted to every detuning offset of :func:`_diffusion_nodes`; returns
    each drive's node results in node order.  With jobs > 1, contiguous
    chunks run on min(jobs, nodes, usable CPUs) threads, which share the
    serial run's caches and BLAS configuration; numpy and SuperLU release
    the GIL.  Every node runs even when some fail (:func:`_outcomes`); the
    first failure is then re-raised with its own class and a note naming
    the drive index, node and message of every failing node."""
    n = len(offsets)
    items = [drive.replace_delta(drive.delta.rad + off)
             for drive in drives for off in offsets]
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, len(items), cpus)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        # A few contiguous chunks per worker balance the load and keep
        # batched kernels batched.
        size = -(-len(items) // (4 * workers))
        chunks = [items[i:i + size] for i in range(0, len(items), size)]
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(_outcomes, kernel, c) for c in chunks]
        outcomes = [o for future in futures for o in future.result()]
    else:
        outcomes = _outcomes(kernel, items)
    failures = [(i, exc) for i, (ok, exc) in enumerate(outcomes) if not ok]
    if failures:
        first = failures[0][1]
        first.add_note(f"{len(failures)} of {len(items)} sweep point(s) failed: "
                       + "; ".join(f"index {i // n}, node {i % n}: {exc}"
                                   for i, exc in failures))
        raise first
    results = [result for _, result in outcomes]
    return [results[i:i + n] for i in range(0, len(results), n)]


def _node_sum(weights, values):
    """Quadrature sum of weights[k] * values[k], added one node at a time
    from 0.0; a dot product or a compensated sum would round differently."""
    acc = 0.0
    for wt, value in zip(weights, values):
        acc = acc + wt * value
    return acc


def _lorentzian(nu: np.ndarray, fwhm: float) -> np.ndarray:
    """(hw / pi) / (nu^2 + hw^2), hw = fwhm / 2, written over nu's buffer."""
    hw = 0.5 * fwhm
    nu = np.add(np.square(nu, out=nu), hw * hw, out=nu)
    return np.divide(hw / math.pi, nu, out=nu)


def _etalon(freqs, intensity, coherent_freqs, coherent_weights, fwhm):
    """intensity on freqs convolved with the etalon's unit-area Lorentzian
    transmission of width fwhm > 0, clipped.

    Quadrature columns are renormalized on the finite window so the
    trapezoid integral is conserved exactly; coherent delta lines fold in
    analytically as Lorentzians carrying their full weight.
    """
    n = freqs.size
    edge = np.pad(freqs, 1, mode="edge")   # trapezoid weights of the grid
    w = 0.5 * (edge[2:] - edge[:-2])

    out = np.zeros(n)
    chunk = 512
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        cols = _lorentzian(freqs[:, None] - freqs[None, lo:hi], fwhm)
        norms = w @ cols
        out += cols @ (w[lo:hi] * intensity[lo:hi] / norms)

    for nu0, weight in zip(coherent_freqs, coherent_weights):
        col = _lorentzian(freqs - nu0, fwhm)
        out += weight * col / (w @ col)
    return _clip(out)


def spectrum_map(sweep, emitter: EmitterParams, freqs,
                 instrument: InstrumentModel | None = None, n_nodes: int = 21,
                 floquet_tol: float = 1e-10, jobs: int = 1) -> list[Spectrum]:
    """Full pipeline over a sweep of drive configs, order-preserving.

    freqs are finite offsets from the laser in rad/s, strictly increasing
    (not necessarily uniform); n_nodes is the Gauss-Hermite order of the
    diffusion average.  An invalid grid, node count or tolerance raises
    ValueError, and a window wider than the etalon's free spectral range
    :class:`AliasingError`, before any spectrum is computed.  Every drive
    runs at every diffusion node through :func:`_node_sweep`; its node
    arrays are then averaged (lines merge by order k, health reports the
    worst node) and folded with the etalon into one Spectrum of the drive.
    """
    sweep = list(sweep)
    if not sweep:
        raise ValueError("sweep must be nonempty")
    freqs = np.asarray(freqs, dtype=float)
    if (freqs.ndim != 1 or freqs.size < 2 or not np.all(np.isfinite(freqs))
            or not np.all(np.diff(freqs) > 0)):
        raise ValueError("freqs must be a finite, strictly increasing 1-d grid")
    if not floquet_tol > 0:
        raise ValueError("tol must be positive")
    model = instrument or InstrumentModel()
    offsets, weights = _diffusion_nodes(model.diffusion_fwhm.rad, n_nodes)
    fwhm = model.etalon_fwhm.rad
    if fwhm > 0 and freqs[-1] - freqs[0] > model.etalon_fsr.rad * (1.0 + 1e-12):
        raise AliasingError(
            f"window {(freqs[-1] - freqs[0]) / GHZ:.3f} GHz exceeds the etalon "
            f"free spectral range {model.etalon_fsr.ghz:.3f} GHz")
    kernel = partial(_node_spectra, emitter=emitter, freqs=freqs,
                     floquet_tol=floquet_tol)
    specs = []
    for drive, nodes in zip(sweep, _node_sweep(kernel, sweep, offsets, jobs)):
        intensities, lines, health = zip(*nodes)
        intensity = _clip(_node_sum(weights, intensities))
        merged = {}   # lines sit at k omega_S whatever a node's detuning
        for wt, node_lines in zip(weights, lines):
            for k, weight in node_lines.items():
                merged[k] = merged.get(k, 0.0) + wt * weight
        orders = sorted(merged)
        coh_f = np.array(orders, dtype=np.int64) * drive.omega_S.rad
        coh_w = np.array([merged[k] for k in orders])
        residual, n_harmonics, rho, preclip = zip(*health)
        meta = dict(zip(_HEALTH_KEYS, (max(residual), max(n_harmonics),
                                      _node_sum(weights, rho), min(preclip))))
        if fwhm > 0:
            intensity = _etalon(freqs, intensity, coh_f, coh_w, fwhm)
            coh_f = coh_w = None
        specs.append(Spectrum(freqs, intensity, drive, coh_f, coh_w, meta))
    return specs
