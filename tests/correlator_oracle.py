"""Time-domain oracle for the emission spectrum.

The steady-state correlator <s+(t0) s-(t0+tau)> is propagated with the
one-period fundamental matrix (:func:`sawmollow.bloch.periodic_fundamental`),
averaged over discrete phases t0 of the acoustic cycle, and Fourier
transformed by direct trapezoidal quadrature.  Beyond the limit cycle and
the frequency grid it shares no code with the package's Floquet-resolvent
route (:func:`sawmollow.spectrum.spectrum_map`), so the tests use it
as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sawmollow.bloch import (
    BlochGenerator,
    floquet_steady_state,
    periodic_fundamental,
)
from sawmollow.model import DriveConfig, Spectrum


class UndecayedCorrelatorError(ValueError):
    """Correlator has not decayed; a longer tau_max is required."""


@dataclass(frozen=True)
class CorrelatorSeries:
    """Phase-averaged two-time correlator on a uniform tau grid.

    values[0] equals the phase-averaged excited population.  The periodic
    coherent plateau is sum_k plateau_coeffs[k] e^{i k omega_S tau} over
    plateau_orders; subtracting it leaves the decaying incoherent part.
    """

    taus: np.ndarray
    values: np.ndarray
    drive: DriveConfig
    plateau_orders: np.ndarray
    plateau_coeffs: np.ndarray
    n_phase: int
    rho_ee_bar: float
    meta: dict = field(default_factory=dict)

    @property
    def dtau(self) -> float:
        return float(self.taus[1] - self.taus[0])

    def plateau(self, taus=None) -> np.ndarray:
        taus = self.taus if taus is None else np.asarray(taus, dtype=float)
        w = self.drive.omega_S.rad
        phases = np.exp(1j * np.multiply.outer(taus, self.plateau_orders * w))
        return phases @ self.plateau_coeffs

    def incoherent(self) -> np.ndarray:
        return self.values - self.plateau()


def two_time_correlator(gen: BlochGenerator, tau_max: float, dtau: float,
                        n_phase: int = 16, floquet_tol: float = 1e-10,
                        ode_tol: float = 1e-10) -> CorrelatorSeries:
    """Steady-state correlator <s+(t0) s-(t0+tau)> averaged over n_phase
    start times t0 spanning one acoustic period of the limit cycle.

    The tau step is snapped down so that the phase offsets fall on the
    sample grid; the returned series reports the actual step used.
    """
    if not tau_max > 0:
        raise ValueError("tau_max must be positive")
    if not dtau > 0:
        raise ValueError("dtau must be positive")
    if n_phase < 1:
        raise ValueError("n_phase must be >= 1")

    period = gen.period
    stride = max(1, math.ceil(period / (n_phase * dtau)))
    dtau_eff = period / (n_phase * stride)
    n_tau = math.ceil(tau_max / dtau_eff) + 1
    n_per = n_phase * stride

    fs = floquet_steady_state(gen, tol=floquet_tol)
    t0s = np.arange(n_phase) * (stride * dtau_eff)
    x0 = fs.evaluate(t0s)                      # limit cycle at the t0 samples
    sp0 = x0[:, 0]
    rho0 = 0.5 * (1.0 + x0[:, 2].real)

    # One-period fundamental samples; Phi(kT + s) = Phi(s) Phi(T)^k and
    # p(kT + s) = Phi(s) p(kT) + p(s) extend them to the full tau horizon.
    phi, part = periodic_fundamental(gen, n_per, tol=ode_tol)
    mono = phi[n_per]
    p_period = part[n_per]

    g_max = (n_phase - 1) * stride + n_tau - 1
    n_wraps = g_max // n_per + 1
    taus = np.arange(n_tau) * dtau_eff

    # w[j, k] = Phi(T)^k c_j + sp_j p(kT) obeys w[., k+1] = w[., k] M^T + sp p_T.
    w = np.empty((n_phase, n_wraps, 3), dtype=complex)
    for j in range(n_phase):
        base = j * stride
        u0 = np.array([0.0, rho0[j], -sp0[j]], dtype=complex)
        w[j, 0] = np.linalg.solve(phi[base], u0 - sp0[j] * part[base])
    for k in range(1, n_wraps):
        w[:, k] = w[:, k - 1] @ mono.T + sp0[:, None] * p_period

    acc = np.zeros(n_tau, dtype=complex)
    phi_row = phi[:n_per, 1, :]
    p_row = part[:n_per, 1]
    for j in range(n_phase):
        g = j * stride + np.arange(n_tau)
        wraps, samples = np.divmod(g, n_per)
        acc += (np.einsum("ik,ik->i", phi_row[samples], w[j, wraps])
                + sp0[j] * p_row[samples])
    values = acc / n_phase

    # Plateau harmonics: the tau -> inf limit is the phase-averaged product
    # of <s+> with the limit-cycle <s->, whose coefficients are m_k q_k.
    orders = fs.orders
    w = gen.drive.omega_S.rad
    m_k = fs.harmonics[:, 1]
    q_k = np.array([np.mean(sp0 * np.exp(1j * k * w * t0s)) for k in orders])
    coeffs = m_k * q_k

    return CorrelatorSeries(
        taus=taus, values=values, drive=gen.drive,
        plateau_orders=orders, plateau_coeffs=coeffs,
        n_phase=n_phase, rho_ee_bar=float(np.mean(rho0)),
        meta={"floquet_residual": fs.residual, "n_harmonics": fs.n_harmonics,
              "dtau_requested": dtau, "ode_tol": ode_tol})


def transform_correlator(corr: CorrelatorSeries, freqs: np.ndarray,
                         decay_tol: float = 1e-4) -> Spectrum:
    """One-sided Fourier transform of the correlator onto a frequency grid.

    Implements S(nu) = (1/pi) Re int_0^inf C(tau) e^{i nu tau} dtau for the
    incoherent part by trapezoidal quadrature; the coherent plateau is
    carried as exact delta weights at multiples of the acoustic frequency.
    freqs are offsets from the laser in rad/s, strictly increasing (not
    necessarily uniform).
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size < 2 or not np.all(np.diff(freqs) > 0):
        raise ValueError("freqs must be a strictly increasing 1-d grid")
    nu_max = float(np.max(np.abs(freqs)))
    if nu_max * corr.dtau >= math.pi:
        raise ValueError(
            f"tau step {corr.dtau:.3e} s aliases the requested window; need "
            f"dtau < {math.pi / nu_max:.3e} s")

    c_inc = corr.incoherent()
    tail = abs(c_inc[-1])
    scale = abs(corr.values[0])
    if tail > decay_tol * scale:
        needed = corr.taus[-1] * (1.0 + 2.0 * math.log(tail / (decay_tol * scale)))
        raise UndecayedCorrelatorError(
            f"incoherent correlator tail {tail:.3e} exceeds {decay_tol:.0e} x "
            f"C(0) = {decay_tol * scale:.3e}; increase tau_max to roughly "
            f"{needed:.3e} s")

    weights = np.full(corr.taus.size, corr.dtau)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    wc = weights * c_inc
    intensity = np.empty(freqs.size)
    chunk = 512
    for lo in range(0, freqs.size, chunk):
        hi = min(lo + chunk, freqs.size)
        kernel = np.exp(1j * np.outer(freqs[lo:hi], corr.taus))
        intensity[lo:hi] = (kernel @ wc).real / math.pi

    peak = float(np.max(intensity)) if intensity.size else 0.0
    trough = float(np.min(intensity)) if intensity.size else 0.0
    # Truncating the correlator at the decay tolerance leaves ringing of
    # that relative size in the transform; dips beyond it by orders of
    # magnitude mean the correlator and grid are inconsistent.
    if trough < -1e-3 * peak:
        raise RuntimeError(
            f"transform produced intensity {trough:.3e} against peak "
            f"{peak:.3e}; correlator grid is inconsistent")
    intensity = np.maximum(intensity, -1e-9 * peak)

    coh_w = corr.plateau_coeffs.real.copy()
    keep = coh_w > 1e-14 * max(scale, 1e-300)
    coh_f = corr.plateau_orders[keep] * corr.drive.omega_S.rad
    coh_w = coh_w[keep]
    order = np.argsort(coh_f)

    meta = dict(corr.meta)
    meta.update({"rho_ee_bar": corr.rho_ee_bar, "n_phase": corr.n_phase,
                 "tau_max": float(corr.taus[-1]), "dtau": corr.dtau,
                 "min_intensity_preclip": trough})
    return Spectrum(freqs, intensity, corr.drive,
                    coherent_freqs=coh_f[order], coherent_weights=coh_w[order],
                    meta=meta)

