"""Periodically modulated optical Bloch equations.

The state vector is x = (<s+>, <s->, <sz>).  With the laser rotating frame
and a longitudinal modulation that replaces the detuning D by
D - 2*rabi_S*cos(omega_S t), the equations of motion are

    dx/dt = M(t) x + b,   b = (0, 0, -gamma),

    M(t) = [ -iD(t) - g/2      0             -i rabi_L/2 ]
           [  0                iD(t) - g/2    i rabi_L/2 ]
           [ -i rabi_L         i rabi_L      -g          ]

with D(t) = delta - 2*rabi_S*cos(omega_S t + phase) and g = gamma.  M is
periodic with the acoustic period, so the driven steady state is a limit
cycle.  Three routes into it live here:

* :func:`propagate` -- adaptive direct integration (transients, oracles);
* :func:`floquet_steady_state` -- harmonic balance: insert
  x(t) = sum_k x_k exp(i k omega_S t), couple k <-> k+-1 through the cosine,
  and solve the resulting block-tridiagonal linear system;
* :func:`monodromy` -- fundamental matrix over one period (stability, and
  the backbone of the time-domain correlator that the spectrum module
  keeps as an oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import DriveConfig, EmitterParams, TWO_PI


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the last good time.  Like
    ConvergenceError, it keeps its fields in args so that it pickles."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message, t_last)
        self.t_last = t_last

    def __str__(self):
        return f"{self.args[0]} (last good time {self.t_last:.6e} s)"


class ConvergenceError(RuntimeError):
    """Harmonic-balance truncation did not converge below tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message, residual)
        self.residual = residual

    def __str__(self):
        return f"{self.args[0]} (residual {self.residual:.3e})"


class DegenerateSystemError(RuntimeError):
    """The steady-state linear system is singular (gamma = 0)."""


@dataclass(frozen=True)
class BlochState:
    """Expectation values (<s+>, <s->, <sz>) of a two-level system."""

    sp: complex
    sm: complex
    sz: float

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0j, 0j, -1.0)

    @classmethod
    def excited(cls) -> "BlochState":
        return cls(0j, 0j, 1.0)

    @classmethod
    def from_vector(cls, x) -> "BlochState":
        return cls(complex(x[0]), complex(x[1]), float(np.real(x[2])))

    def as_vector(self) -> np.ndarray:
        return np.array([self.sp, self.sm, self.sz], dtype=complex)

    @property
    def rho_ee(self) -> float:
        return 0.5 * (1.0 + self.sz)

    def bloch_norm(self) -> float:
        """4|<s+>|^2 + <sz>^2; <= 1 for any physical (ensemble) state."""
        return 4.0 * abs(self.sp) ** 2 + self.sz ** 2


class BlochGenerator:
    """Evaluator of M(t) and the constant inhomogeneous term.

    The time dependence enters only through t mod period, so
    M(t) == M(t + 2*pi/omega_S) by construction.  `phase` offsets the
    acoustic cosine; t = 0 sits at the cosine maximum for phase = 0.
    """

    def __init__(self, drive: DriveConfig, emitter: EmitterParams,
                 phase: float = 0.0):
        self.drive = drive
        self.emitter = emitter
        self.phase = float(phase)
        g = emitter.gamma.rad
        d = drive.delta.rad
        wl = drive.rabi_L.rad
        self._omega_s = drive.omega_S.rad
        self._two_rabi_s = 2.0 * drive.rabi_S.rad
        self.period = TWO_PI / self._omega_s
        # Static part and cosine-modulation part: M(t) = A + B cos(w_S t).
        self.static_part = np.array(
            [[-1j * d - 0.5 * g, 0.0, -0.5j * wl],
             [0.0, 1j * d - 0.5 * g, 0.5j * wl],
             [-1j * wl, 1j * wl, -g]], dtype=complex)
        self.modulation_part = np.diag(
            [2j * drive.rabi_S.rad, -2j * drive.rabi_S.rad, 0.0]).astype(complex)
        self.inhomogeneous = np.array([0.0, 0.0, -g], dtype=complex)
        # Rate scale used to normalize residuals.
        self.rate_scale = max(g, wl, self._two_rabi_s, abs(d), self._omega_s)

    def matrix(self, t: float) -> np.ndarray:
        c = math.cos(self._omega_s * math.fmod(t, self.period) + self.phase)
        return self.static_part + c * self.modulation_part

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.matrix(t) @ x + self.inhomogeneous


@dataclass(frozen=True)
class BlochTrajectory:
    """Sampled solution of the Bloch equations."""

    times: np.ndarray
    values: np.ndarray  # shape (n, 3) complex

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> BlochState:
        return BlochState.from_vector(self.values[i])

    @property
    def final(self) -> BlochState:
        return self.state(len(self.times) - 1)

    @property
    def sz(self) -> np.ndarray:
        return self.values[:, 2].real


def propagate(gen: BlochGenerator, initial: BlochState, t0: float, t1: float,
              tol: float = 1e-9, t_eval=None) -> BlochTrajectory:
    """Integrate dx/dt = M(t) x + b from t0 to t1 with local error below tol.

    Returns the sampled trajectory including both endpoints.  Raises
    :class:`IntegrationError` if the step size underflows.
    """
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    sol = solve_ivp(gen.rhs, (t0, t1), initial.as_vector(), method="RK45",
                    rtol=tol, atol=tol * 1e-2, t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise IntegrationError(f"Bloch integration failed: {sol.message}",
                               t_last=float(sol.t[-1]) if sol.t.size else t0)
    return BlochTrajectory(sol.t, sol.y.T.copy())


def static_steady_state(gen: BlochGenerator) -> np.ndarray:
    """Stationary Bloch vector of the unmodulated equations (rabi_S = 0)."""
    if gen.emitter.gamma.rad <= 0:
        raise DegenerateSystemError("no unique steady state at gamma = 0")
    return np.linalg.solve(gen.static_part, -gen.inhomogeneous)


@dataclass(frozen=True)
class FloquetSolution:
    """Harmonic coefficients x_k of the limit cycle x(t) = sum_k x_k e^{ik w t}.

    harmonics has shape (2*n_harmonics + 1, 3); row j holds the coefficient
    of order k = j - n_harmonics.  residual is the normalized equation
    residual of the reconstructed cycle, checked on a time grid.
    """

    drive: DriveConfig
    emitter: EmitterParams
    n_harmonics: int
    harmonics: np.ndarray
    residual: float

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.n_harmonics, self.n_harmonics + 1)

    def coefficient(self, k: int) -> np.ndarray:
        if abs(k) > self.n_harmonics:
            return np.zeros(3, dtype=complex)
        return self.harmonics[k + self.n_harmonics]

    def evaluate(self, t) -> np.ndarray:
        """Limit-cycle state at times t; shape (..., 3)."""
        t = np.asarray(t, dtype=float)
        w = self.drive.omega_S.rad
        phases = np.exp(1j * np.multiply.outer(t, self.orders * w))
        return phases @ self.harmonics

    @property
    def mean_rho_ee(self) -> float:
        """Excited population averaged over the acoustic period."""
        sz0 = self.coefficient(0)[2]
        return 0.5 * (1.0 + float(sz0.real))

    def component_harmonics(self, i: int) -> np.ndarray:
        """Harmonic coefficients of component i (0: s+, 1: s-, 2: sz)."""
        return self.harmonics[:, i]


def _block_tridiagonal_solve(lower: np.ndarray, diag: np.ndarray,
                             upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a block-tridiagonal system by block Thomas elimination.

    lower[j] couples block j to j-1 (lower[0] unused), diag[j] is the j-th
    diagonal block, upper[j] couples block j to j+1 (upper[-1] unused).
    """
    n = diag.shape[0]
    d = diag.copy()
    r = rhs.copy()
    for j in range(1, n):
        factor = np.linalg.solve(d[j - 1].T, lower[j].T).T
        d[j] = d[j] - factor @ upper[j - 1]
        r[j] = r[j] - factor @ r[j - 1]
    x = np.empty_like(r)
    x[n - 1] = np.linalg.solve(d[n - 1], r[n - 1])
    for j in range(n - 2, -1, -1):
        x[j] = np.linalg.solve(d[j], r[j] - upper[j] @ x[j + 1])
    return x


def default_harmonics(drive: DriveConfig) -> int:
    """Truncation order: modulation index 2*rabi_S/omega_S plus drive mixing."""
    w = drive.omega_S.rad
    return math.ceil(2.0 * drive.rabi_S.rad / w + drive.rabi_L.rad / w) + 8


def floquet_steady_state(gen: BlochGenerator, n_harmonics: int | None = None,
                         tol: float = 1e-10, max_harmonics: int = 768,
                         n_check: int = 64) -> FloquetSolution:
    """Limit cycle of the modulated Bloch equations by harmonic balance.

    Inserting x(t) = sum_k x_k e^{ik w t} into the equations couples
    neighboring harmonics through the cosine modulation:

        (A - i k w I) x_k + (B/2) x_{k-1} + (B/2) x_{k+1} = -b delta_k0.

    The block-tridiagonal system is solved directly; the residual of the
    reconstructed cycle is evaluated on n_check points per period, and the
    truncation is doubled automatically until it drops below tol.
    """
    if gen.emitter.gamma.rad <= 0:
        raise DegenerateSystemError(
            "gamma = 0 leaves the limit cycle undetermined")
    if n_harmonics is None:
        n_harmonics = default_harmonics(gen.drive)
    if n_harmonics < 1:
        raise ValueError("n_harmonics must be >= 1")

    w = gen.drive.omega_S.rad
    a_mat = gen.static_part
    half_b_plus = 0.5 * gen.modulation_part * np.exp(1j * gen.phase)
    half_b_minus = 0.5 * gen.modulation_part * np.exp(-1j * gen.phase)

    n = n_harmonics
    last_residual = math.inf
    while True:
        size = 2 * n + 1
        orders = np.arange(-n, n + 1)
        diag = np.broadcast_to(a_mat, (size, 3, 3)).copy()
        diag -= (1j * w * orders)[:, None, None] * np.eye(3)
        # x_k picks up e^{-i phase} B/2 from x_{k-1} and e^{+i phase} B/2
        # from x_{k+1} (coefficient matching of cos(w t + phase) e^{ikwt}).
        lower = np.broadcast_to(half_b_minus, (size, 3, 3)).copy()
        upper = np.broadcast_to(half_b_plus, (size, 3, 3)).copy()
        rhs = np.zeros((size, 3), dtype=complex)
        rhs[n] = -gen.inhomogeneous
        try:
            x = _block_tridiagonal_solve(lower, diag, upper, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSystemError(
                f"singular harmonic-balance system: {exc}") from exc
        sol = FloquetSolution(gen.drive, gen.emitter, n, x, math.nan)
        residual = _floquet_residual(gen, sol, n_check)
        if residual <= tol:
            return FloquetSolution(gen.drive, gen.emitter, n, x, residual)
        last_residual = residual
        if 2 * n > max_harmonics:
            raise ConvergenceError(
                f"harmonic balance not converged at n_harmonics = {n}",
                residual=last_residual)
        n *= 2


def _floquet_residual(gen: BlochGenerator, sol: FloquetSolution,
                      n_check: int) -> float:
    """Normalized max-norm residual of dx/dt = M x + b on a period grid."""
    w = gen.drive.omega_S.rad
    ts = np.linspace(0.0, gen.period, n_check, endpoint=False)
    orders = sol.orders
    phases = np.exp(1j * np.multiply.outer(ts, orders * w))
    x_t = phases @ sol.harmonics
    dx_t = phases @ ((1j * orders * w)[:, None] * sol.harmonics)
    cosines = np.cos(w * ts + gen.phase)
    m_x = x_t @ gen.static_part.T + cosines[:, None] * (x_t @ gen.modulation_part.T)
    res = dx_t - m_x - gen.inhomogeneous
    scale = gen.rate_scale * max(1.0, float(np.max(np.abs(x_t))))
    return float(np.max(np.abs(res))) / scale


def _augmented_rhs(gen: BlochGenerator):
    """Right-hand side for Y = [Phi | p] as a flattened 3x4 system."""
    b = gen.inhomogeneous

    def rhs(t, y):
        out = gen.matrix(t) @ y.reshape(3, 4)
        out[:, 3] += b
        return out.reshape(-1)

    return rhs


def fundamental_solution(gen: BlochGenerator, t_end: float, tol: float = 1e-10,
                         t0: float = 0.0):
    """Fundamental matrix Phi(t) and particular solution p(t) on [t0, t_end].

    Integrates the 3x3 homogeneous system from the identity together with
    the zero-initial-condition particular solution of the inhomogeneous
    term, as one 12-component system.  Returns the solve_ivp dense-output
    object; evaluate with :func:`eval_fundamental`.
    """
    y0 = np.zeros(12, dtype=complex)
    y0[[0, 5, 10]] = 1.0  # identity columns of the 3x4 layout
    sol = solve_ivp(_augmented_rhs(gen), (t0, t_end), y0, method="DOP853",
                    rtol=tol, atol=tol * 1e-2, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"fundamental-matrix integration failed: "
                               f"{sol.message}",
                               t_last=float(sol.t[-1]) if sol.t.size else t0)
    return sol


def eval_fundamental(sol, times: np.ndarray):
    """Evaluate (Phi, p) of :func:`fundamental_solution` at sample times."""
    y = sol.sol(times).T.reshape(-1, 3, 4)
    return y[:, :, :3], y[:, :, 3]


def periodic_fundamental(gen: BlochGenerator, n_samples: int,
                         tol: float = 1e-12):
    """(Phi, p) sampled at j * period / n_samples for j = 0 .. n_samples.

    One period determines the solution everywhere: the fundamental matrix
    obeys Phi(t + T) = Phi(t) Phi(T) and the particular solution obeys
    p(t + T) = Phi(t) p(T) + p(t), so the last samples (the monodromy
    matrix and one-period inhomogeneous response) extend these arrays to
    arbitrary horizons without further integration.
    """
    y0 = np.zeros(12, dtype=complex)
    y0[[0, 5, 10]] = 1.0
    ts = np.linspace(0.0, gen.period, n_samples + 1)
    sol = solve_ivp(_augmented_rhs(gen), (0.0, gen.period), y0,
                    method="DOP853", rtol=tol, atol=tol * 1e-2, t_eval=ts)
    if not sol.success:
        raise IntegrationError(
            f"one-period fundamental integration failed: {sol.message}",
            t_last=float(sol.t[-1]) if sol.t.size else 0.0)
    y = sol.y.T.reshape(-1, 3, 4)
    return y[:, :, :3], y[:, :, 3]


def monodromy(gen: BlochGenerator, tol: float = 1e-10) -> np.ndarray:
    """Fundamental solution of the homogeneous system over one period."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    phi, _ = periodic_fundamental(gen, 1, tol=tol)
    return phi[-1]
