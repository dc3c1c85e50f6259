"""Resonance fluorescence spectra via the quantum regression theorem.

Pipeline: Floquet limit cycle -> phase-averaged spectrum from the Floquet
(Sambe-space) resolvent -> Gaussian spectral-diffusion average -> etalon
convolution.

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
from .model import GHZ, DriveConfig, EmitterParams, Frequency, Spectrum


class GridMismatchError(ValueError):
    """Spectra being combined live on different frequency grids."""


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


def _node_spectra(drives, emitter: EmitterParams, freqs, floquet_tol):
    """Yields the pre-instrument spectra of drives on a valid grid.

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
            y0, _, _ = _sambe_solve(gen, d[..., None], -1j * freqs, delta)
            incoherent.update(zip(ks, y0[1].real / math.pi))
    for k, fs in enumerate(cycles):
        rho, intensity = fs.mean_rho_ee, incoherent[k]
        coh_w = (fs.harmonics[:, 1] * fs.harmonics[::-1, 0]).real
        keep = coh_w > 1e-14 * max(rho, 1e-300)
        meta = {"floquet_residual": fs.residual, "n_harmonics": fs.n_harmonics,
                "rho_ee_bar": rho,
                "min_intensity_preclip": float(np.min(intensity))}
        yield Spectrum(freqs, _clip(intensity), fs.drive,
                       coherent_freqs=fs.orders[keep] * fs.drive.omega_S.rad,
                       coherent_weights=coh_w[keep], meta=meta)


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


def _sweep(fn, items, jobs: int = 1, where=lambda i: f"index {i}") -> list:
    """fn(items), fn mapping a list of items to their results; with jobs > 1,
    contiguous chunks run in a process pool of min(jobs, len(items), usable
    CPUs) workers.  Every item runs even when some fail (:func:`_outcomes`);
    the first failure is then re-raised with its own class and a note that
    lists where(i) and the message of every failing item i."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, len(items), cpus)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # A few contiguous chunks per worker balance the load and keep the
        # per-item messaging cost out of the sweep.
        size = -(-len(items) // (4 * workers))
        chunks = [items[i:i + size] for i in range(0, len(items), size)]
        # Spawn, not fork: forking a process that holds BLAS threads is unsafe.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            futures = [pool.submit(_outcomes, fn, c) for c in chunks]
        outcomes = [o for future in futures for o in future.result()]
    else:
        outcomes = _outcomes(fn, items)
    failures = [(i, exc) for i, (ok, exc) in enumerate(outcomes) if not ok]
    if failures:
        first = failures[0][1]
        first.add_note(f"{len(failures)} of {len(items)} sweep point(s) failed: "
                       + "; ".join(f"{where(i)}: {exc}" for i, exc in failures))
        raise first
    return [result for _, result in outcomes]


def _node_sweep(kernel, drives, offsets, jobs: int = 1) -> list:
    """kernel (fn of :func:`_sweep`) over every drive shifted to every
    detuning offset of :func:`_diffusion_nodes`, as one flat sweep over
    drives x nodes; returns each drive's node results in node order.  A
    failure's note names the drive's index and the node."""
    n = len(offsets)
    shifted = [drive.replace_delta(drive.delta.rad + off)
               for drive in drives for off in offsets]
    results = _sweep(kernel, shifted, jobs,
                     where=lambda i: f"index {i // n}, node {i % n}")
    return [results[i:i + n] for i in range(0, len(results), n)]


def _node_sum(weights, values):
    """Quadrature sum of weights[k] * values[k], added one node at a time
    from 0.0; a dot product or a compensated sum would round differently."""
    acc = 0.0
    for wt, value in zip(weights, values):
        acc = acc + wt * value
    return acc


def apply_spectral_diffusion(specs, weights, drive: DriveConfig) -> Spectrum:
    """Average node spectra over a Gaussian distribution of the laser detuning.

    specs are the spectra of drive shifted to the detuning nodes of
    :func:`_diffusion_nodes`, on one laser-relative grid, and weights their
    quadrature weights; one node of weight 1 keeps its intensity.  Coherent
    lines merge by position and rho_ee_bar is averaged; the Floquet
    residual, truncation order and pre-clip minimum report the worst node.
    The result carries the nominal drive.
    """
    first = specs[0]
    if any(not np.array_equal(spec.freqs, first.freqs) for spec in specs):
        raise GridMismatchError("node spectra live on different grids")
    intensity = _node_sum(weights, [spec.intensity for spec in specs])
    coherent: dict[float, float] = {}
    for spec, wt in zip(specs, weights):
        # Coherent lines sit at integer multiples of the acoustic frequency
        # regardless of detuning; merge them by position.
        for nu, weight in zip(spec.coherent_freqs, spec.coherent_weights):
            coherent[float(nu)] = coherent.get(float(nu), 0.0) + wt * weight

    meta = dict(first.meta)
    meta["rho_ee_bar"] = _node_sum(
        weights, [spec.meta.get("rho_ee_bar", math.nan) for spec in specs])
    for key, worst in (("floquet_residual", max), ("n_harmonics", max),
                       ("min_intensity_preclip", min)):
        if key in meta:
            meta[key] = worst(spec.meta[key] for spec in specs)
    intensity = _clip(intensity)
    coh_f = np.array(sorted(coherent))
    coh_w = np.array([coherent[f] for f in coh_f])
    return Spectrum(first.freqs, intensity, drive,
                    coherent_freqs=coh_f, coherent_weights=coh_w, meta=meta)


def _lorentzian(nu: np.ndarray, fwhm: float) -> np.ndarray:
    hw = 0.5 * fwhm
    return (hw / math.pi) / (nu * nu + hw * hw)


def _check_etalon_window(window: float, model: InstrumentModel) -> None:
    if window > model.etalon_fsr.rad * (1.0 + 1e-12):
        raise AliasingError(
            f"window {window / GHZ:.3f} GHz exceeds the etalon free "
            f"spectral range {model.etalon_fsr.ghz:.3f} GHz")


def apply_etalon(spec: Spectrum, model: InstrumentModel) -> Spectrum:
    """Convolve with the etalon's unit-area Lorentzian transmission.

    Quadrature columns are renormalized on the finite window so the
    trapezoid integral is conserved exactly; coherent delta lines fold in
    analytically as Lorentzians carrying their full weight.  Windows wider
    than the free spectral range would alias neighboring orders and are
    rejected.
    """
    fwhm = model.etalon_fwhm.rad
    _check_etalon_window(float(spec.freqs[-1] - spec.freqs[0]), model)
    if fwhm == 0.0:
        return spec

    freqs = spec.freqs
    n = freqs.size
    w = np.empty(n)
    w[1:-1] = 0.5 * (freqs[2:] - freqs[:-2])
    w[0] = 0.5 * (freqs[1] - freqs[0])
    w[-1] = 0.5 * (freqs[-1] - freqs[-2])

    out = np.zeros(n)
    chunk = 512
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        cols = _lorentzian(freqs[:, None] - freqs[None, lo:hi], fwhm)
        norms = w @ cols
        out += cols @ (w[lo:hi] * spec.intensity[lo:hi] / norms)

    for nu0, weight in zip(spec.coherent_freqs, spec.coherent_weights):
        col = _lorentzian(freqs - nu0, fwhm)
        out += weight * col / (w @ col)

    return Spectrum(freqs, _clip(out), spec.drive, meta=spec.meta)


def spectrum_map(sweep, emitter: EmitterParams, freqs,
                 instrument: InstrumentModel | None = None, n_nodes: int = 21,
                 floquet_tol: float = 1e-10, jobs: int = 1) -> list[Spectrum]:
    """Full pipeline over a sweep of drive configs, order-preserving.

    freqs are offsets from the laser in rad/s, strictly increasing (not
    necessarily uniform); n_nodes is the Gauss-Hermite order of the
    diffusion average.  An invalid grid or node count raises ValueError,
    and a window wider than the etalon's free spectral range
    :class:`AliasingError`, before any spectrum is computed.  Every drive
    runs at every diffusion node through :func:`_node_sweep` (jobs > 1
    spreads the nodes over worker processes), then the node spectra are
    averaged and folded with the etalon.
    """
    sweep = list(sweep)
    if not sweep:
        raise ValueError("sweep must be nonempty")
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size < 2 or not np.all(np.diff(freqs) > 0):
        raise ValueError("freqs must be a strictly increasing 1-d grid")
    model = instrument or InstrumentModel()
    offsets, weights = _diffusion_nodes(model.diffusion_fwhm.rad, n_nodes)
    if model.etalon_fwhm.rad > 0:
        _check_etalon_window(float(freqs[-1] - freqs[0]), model)
    kernel = partial(_node_spectra, emitter=emitter, freqs=freqs,
                     floquet_tol=floquet_tol)
    specs = [apply_spectral_diffusion(nodes, weights, drive) for drive, nodes
             in zip(sweep, _node_sweep(kernel, sweep, offsets, jobs))]
    if model.etalon_fwhm.rad > 0:
        specs = [apply_etalon(spec, model) for spec in specs]
    return specs
