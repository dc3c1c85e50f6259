"""Calibration fits: Bessel-sideband absorption, Lorentzian cavity
resonance, linear drive calibration and quadratic background
extrapolation.

The absorption model for a frequency-modulated two-level transition is a
Bessel-weighted sum of Lorentzian sidebands,

    P(delta) = A * sum_n J_n^2(2 rabi_S / omega_S) /
               ((delta - n omega_S)^2 + (Gamma/2)^2),

whose total area is independent of the modulation index (sum of J_n^2 is
1), so increasing drive redistributes weight into higher sidebands without
creating it.  Fits are damped Gauss-Newton (Levenberg-Marquardt through
scipy) with analytic Jacobians for the Lorentzian and polynomial models
and finite differences for the Bessel series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import GHZ, DomainError, Frequency, _as_rad


@dataclass(frozen=True)
class AbsorptionModel:
    """Bessel-sideband absorption line of a modulated transition, its
    series truncated where |J_n| < 1e-5 (squared weight 1e-10) plus two
    guard terms."""

    omega_S: Frequency
    rabi_S: Frequency
    linewidth: Frequency
    amplitude: float = 1.0

    def __post_init__(self):
        if self.linewidth.rad <= 0:
            raise DomainError("linewidth must be positive")
        if self.omega_S.rad <= 0:
            raise DomainError("omega_S must be positive")

    @property
    def modulation_index(self) -> float:
        return 2.0 * self.rabi_S.rad / self.omega_S.rad

    def truncation(self) -> int:
        return _auto_sidebands(self.modulation_index)


def _auto_sidebands(x: float) -> int:
    from scipy.special import jv
    n = max(1, math.ceil(abs(x)))
    while abs(jv(n, x)) >= 1e-5:
        n += 1
    return n + 2


def absorption_spectrum(model: AbsorptionModel, deltas) -> np.ndarray:
    """Evaluate the truncated sideband series at detunings (rad/s)."""
    deltas = np.asarray([_as_rad(d) for d in np.atleast_1d(deltas)])
    return _absorption_eval(deltas, model.rabi_S.rad, model.linewidth.rad,
                            model.amplitude, model.omega_S.rad,
                            model.truncation())


def _absorption_eval(deltas, rabi_s, linewidth, amplitude, omega_s, n_max):
    from scipy.special import jv
    x = 2.0 * rabi_s / omega_s
    orders = np.arange(-n_max, n_max + 1)
    weights = jv(orders, x) ** 2
    half = 0.5 * linewidth
    out = np.zeros_like(deltas, dtype=float)
    for n, w in zip(orders, weights):
        out += w / ((deltas - n * omega_s) ** 2 + half * half)
    return amplitude * out


@dataclass(frozen=True)
class FitReport:
    """Least-squares result: parameters, stderr, covariance, convergence."""

    params: dict
    stderr: dict
    covariance: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    message: str = ""


def _report_from_lsq(res, names, extra=None) -> FitReport:
    n_pts = res.fun.size
    n_par = len(names)
    dof = max(n_pts - n_par, 1)
    rss = float(res.fun @ res.fun)
    sigma2 = rss / dof
    jac = res.jac
    try:
        cov = sigma2 * np.linalg.pinv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((n_par, n_par), np.nan)
    params = dict(zip(names, (float(v) for v in res.x)))
    stderr = dict(zip(names, (float(s) for s in np.sqrt(np.abs(np.diag(cov))))))
    if extra:
        params.update(extra)
    return FitReport(params=params, stderr=stderr, covariance=cov,
                     residual_rms=math.sqrt(rss / n_pts),
                     iterations=int(res.nfev), converged=bool(res.success),
                     message=res.message)


def _as_xy(data):
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("data must be (N, 2) pairs")
    return arr[:, 0], arr[:, 1]


def fit_absorption(data, omega_S: Frequency, init: AbsorptionModel) -> FitReport:
    """Fit (detuning rad/s, counts) pairs to the sideband series.

    The cavity frequency stays fixed at its independently measured value;
    free parameters are the drive strength rabi_S, the linewidth, an
    amplitude, and an additive offset.  Finite-difference Jacobian (the
    Bessel weights make the analytic one unrewarding).
    """
    deltas, counts = _as_xy(data)
    if deltas.size < 10:
        raise ValueError("need at least 10 points for identifiability")
    ws = omega_S.rad
    span = deltas.max() - deltas.min()
    if span < 2.0 * ws:
        raise ValueError("data must span at least two sidebands")
    n_max = max(init.truncation(), _auto_sidebands(2.0 * 3.0))
    scale_y = max(abs(counts).max(), 1e-300)

    def model_ghz(p, d):
        rabi_s, lw, amp, off = p
        return (_absorption_eval(d * GHZ, rabi_s * GHZ, lw * GHZ,
                                 amp * scale_y * GHZ ** 2, ws, n_max) + off * scale_y)

    d_ghz = deltas / GHZ

    def residual(p):
        return model_ghz(p, d_ghz) - counts

    lw0 = init.linewidth.ghz
    p0 = np.array([init.rabi_S.ghz, lw0,
                   init.amplitude if init.amplitude != 1.0
                   else counts.max() * lw0 ** 2 / 4.0 / scale_y, 0.0])
    from scipy.optimize import least_squares
    res = least_squares(residual, p0, method="lm", xtol=1e-14, ftol=1e-14,
                        max_nfev=2000)
    res.x[0] = abs(res.x[0])  # the series is even in the drive strength
    report = _report_from_lsq(
        res, ["rabi_s_ghz", "linewidth_ghz", "amplitude", "offset"],
        extra={"omega_s_ghz": omega_S.ghz, "n_sidebands": n_max})
    return report


def _lorentzian_dip(p, f):
    center, fwhm, depth, offset = p
    hw = 0.5 * fwhm
    return offset - depth * hw * hw / ((f - center) ** 2 + hw * hw)


def _lorentzian_jac(p, f):
    center, fwhm, depth, offset = p
    hw = 0.5 * fwhm
    u = f - center
    denom = u * u + hw * hw
    lor = hw * hw / denom
    jac = np.empty((f.size, 4))
    jac[:, 0] = -depth * 2.0 * u * hw * hw / denom ** 2
    jac[:, 1] = -depth * (hw * u * u / denom ** 2)
    jac[:, 2] = -lor
    jac[:, 3] = 1.0
    return jac


def fit_lorentzian(data) -> FitReport:
    """Fit (frequency, reflection) pairs to a Lorentzian dip.

    Reports center, FWHM, depth, offset, and the derived quality factor
    Q = center / FWHM.  A depth consistent with zero leaves Q undefined
    and is flagged in the message.
    """
    freqs, values = _as_xy(data)
    if freqs.size < 5:
        raise ValueError("need at least 5 points")
    scale = max(freqs.max() - freqs.min(), 1e-300)
    offset0 = float(np.median(values))
    i_ext = int(np.argmax(np.abs(values - offset0)))
    depth0 = offset0 - values[i_ext]
    center0 = freqs[i_ext]
    inside = np.abs(values - offset0) > 0.5 * abs(depth0)
    fwhm0 = (freqs[inside].max() - freqs[inside].min()) if inside.sum() > 1 else 0.1 * scale

    def residual(p):
        return _lorentzian_dip(p, freqs) - values

    def jac(p):
        return _lorentzian_jac(p, freqs)

    p0 = np.array([center0, max(fwhm0, 1e-6 * scale), depth0, offset0])
    from scipy.optimize import least_squares
    res = least_squares(residual, p0, jac=jac, method="lm", xtol=1e-14,
                        ftol=1e-14, max_nfev=2000)
    center, fwhm, depth, offset = res.x
    fwhm = abs(fwhm)
    report = _report_from_lsq(res, ["center", "fwhm", "depth", "offset"])
    q_bad = (fwhm == 0.0
             or abs(depth) <= 2.0 * report.stderr.get("depth", 0.0)
             or abs(depth) < 1e-12 * max(abs(offset), 1.0))
    params = {**report.params, "fwhm": fwhm,
              "q": math.nan if q_bad else abs(center) / fwhm}
    note = "depth consistent with zero; Q undefined. " if q_bad else ""
    return replace(report, params=params, message=note + report.message)


def _linear_lstsq(design, y):
    """Coefficients, residuals and covariance of the least-squares fit of
    y to the columns of design."""
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = design @ beta - y
    sigma2 = float(resid @ resid) / max(y.size - design.shape[1], 1)
    return beta, resid, sigma2 * np.linalg.inv(design.T @ design)


def fit_linear_through_origin(data, intercept: bool = False) -> FitReport:
    """Least-squares slope of (x, y) pairs, through the origin by default."""
    x, y = _as_xy(data)
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if float(x @ x) == 0.0:
        raise np.linalg.LinAlgError("degenerate abscissa (all x = 0)")
    if intercept:
        design = np.column_stack([x, np.ones_like(x)])
        names = ["slope", "intercept"]
    else:
        design = x[:, None]
        names = ["slope"]
    beta, resid, cov = _linear_lstsq(design, y)
    params = dict(zip(names, (float(b) for b in beta)))
    stderr = dict(zip(names, (float(s) for s in np.sqrt(np.diag(cov)))))
    return FitReport(params=params, stderr=stderr, covariance=cov,
                     residual_rms=math.sqrt(float(resid @ resid) / x.size),
                     iterations=1, converged=True)


def background_extrapolate(data, target: float) -> tuple[float, float]:
    """Quadratic fit of (bias, counts) pairs; value and stderr at target.

    Used to recover the reflection background at the operating bias from
    measurements taken at the other biases.
    """
    v, y = _as_xy(data)
    if v.size < 4:
        raise ValueError("need at least 4 points for a quadratic fit")
    design = np.column_stack([np.ones_like(v), v, v * v])
    if np.linalg.matrix_rank(design) < 3:
        raise np.linalg.LinAlgError("rank-deficient design (biases collinear)")
    beta, _, cov = _linear_lstsq(design, y)
    probe = np.array([1.0, target, target * target])
    value = float(probe @ beta)
    stderr = math.sqrt(float(probe @ cov @ probe))
    return value, stderr


def load_two_column(path) -> np.ndarray:
    """Read two-column numeric text: comma or whitespace separated,
    '#' comments, blank lines ignored.  Returns an (N, 2) array of finite
    values; a value that is not a finite number raises ValueError naming
    its path:line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, "
                                 f"got {len(parts)}")
            try:
                row = (float(parts[0]), float(parts[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: values must be finite")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)
