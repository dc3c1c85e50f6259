"""Periodically modulated optical Bloch equations.

The state vector is x = (<s+>, <s->, <sz>).  With the laser rotating frame
and a longitudinal modulation that replaces the detuning D by
D - 2*rabi_S*cos(omega_S t), the equations of motion are

    dx/dt = M(t) x + b,   b = (0, 0, -gamma),

    M(t) = [ -iD(t) - g/2      0             -i rabi_L/2 ]
           [  0                iD(t) - g/2    i rabi_L/2 ]
           [ -i rabi_L         i rabi_L      -g          ]

with D(t) = delta - 2*rabi_S*cos(omega_S t) and g = gamma.  M is
periodic with the acoustic period, so the driven steady state is a limit
cycle.  Three routes into it live here:

* :func:`propagate` -- adaptive direct integration (transients, oracles);
  one DOP853 integrator, :func:`_integrate`, serves it and the fundamental
  matrix below;
* :func:`floquet_steady_state` -- harmonic balance: insert x(t) = sum_k x_k
  exp(i k omega_S t), couple k <-> k+-1 through the cosine, solve for the
  +k harmonics (the -k ones are their mirror) by a matrix continued fraction
  (:func:`_limit_cycle_solve`; the spectra's resolvent, with a source at
  every order, runs :func:`_sambe_solve`), and judge them by the residual of
  those same equations, applied forward.  The tail carries no particular
  part, so back-substitution is x_k = -K_k^-1 P x_{k-1};
* :func:`monodromy` -- fundamental matrix over one period (stability);
  :func:`periodic_fundamental`, its sampled form, is the backbone of the
  time-domain correlator oracle in tests/correlator_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DomainError, DriveConfig, EmitterParams, TWO_PI

_MAX_HARMONICS = 768   # truncation order past which harmonic balance gives up


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the last good time.  Like
    ConvergenceError, it keeps its fields in args so callers can pickle it."""

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

    def as_vector(self) -> np.ndarray:
        return np.array([self.sp, self.sm, self.sz], dtype=complex)


class BlochGenerator:
    """Evaluator of M(t) and the constant inhomogeneous term.

    The time dependence enters only through t mod period, so
    M(t) == M(t + 2*pi/omega_S) by construction; t = 0 sits at the maximum
    of the acoustic cosine.
    """

    def __init__(self, drive: DriveConfig, emitter: EmitterParams):
        self.drive = drive
        self.emitter = emitter
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
            [2j * drive.rabi_S.rad, -2j * drive.rabi_S.rad, 0j])
        self.inhomogeneous = np.array([0.0, 0.0, -g], dtype=complex)
        # Rate scale used to normalize residuals.
        self.rate_scale = max(g, wl, self._two_rabi_s, abs(d), self._omega_s)

    def matrix(self, t: float) -> np.ndarray:
        c = math.cos(self._omega_s * math.fmod(t, self.period))
        return self.static_part + c * self.modulation_part


@dataclass(frozen=True)
class BlochTrajectory:
    """Sampled solution of the Bloch equations."""

    times: np.ndarray
    values: np.ndarray  # shape (n, 3) complex


def _integrate(gen: BlochGenerator, y0: np.ndarray, t0: float, t1: float,
               tol: float, t_eval=None):
    """Solve dY/dt = M(t) Y + b e_last^T from Y(t0) = y0, a 3 x c state whose
    last column carries the constant term, by DOP853 (Dormand-Prince 8(5,3))
    with rtol = tol and atol = tol / 100.  Returns the sample times and the
    states, shape (n, 3, c).  Raises :class:`IntegrationError` if the step
    size underflows."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("need finite t0 < t1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    shape = y0.shape
    b = gen.inhomogeneous

    def rhs(t, y):
        out = gen.matrix(t) @ y.reshape(shape)
        out[:, -1] += b
        return out.reshape(-1)

    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (t0, t1), y0.reshape(-1), method="DOP853", rtol=tol,
                    atol=tol * 1e-2, t_eval=t_eval)
    if not sol.success:
        raise IntegrationError(f"Bloch integration failed: {sol.message}",
                               t_last=float(sol.t[-1]) if sol.t.size else t0)
    return sol.t, sol.y.T.reshape(-1, *shape)


def propagate(gen: BlochGenerator, initial: BlochState, t0: float, t1: float,
              tol: float = 1e-9, t_eval=None) -> BlochTrajectory:
    """Integrate dx/dt = M(t) x + b from t0 to t1 by DOP853 with local error
    below tol.

    Returns the trajectory at the solver's own steps, both endpoints
    included, or, given t_eval, at those times only.  Raises
    :class:`IntegrationError` if the step size underflows.
    """
    t, y = _integrate(gen, initial.as_vector()[:, None], t0, t1, tol, t_eval)
    return BlochTrajectory(t, y[:, :, 0])


@dataclass(frozen=True)
class FloquetSolution:
    """Harmonic coefficients x_k of the limit cycle x(t) = sum_k x_k e^{ik w t}.

    harmonics has shape (2*n_harmonics + 1, 3); row j holds the coefficient
    of order k = j - n_harmonics.  residual bounds the normalized equation
    residual |dx/dt - M x - b| / rate_scale of the cycle at every time.
    """

    drive: DriveConfig
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


def _sambe_solve(gen: BlochGenerator, d: np.ndarray, s, delta=None):
    """Central block of (s - L)^-1 D by a matrix continued fraction.

    L is the harmonic-balance (Sambe-space) operator of the Bloch equations:
    diagonal blocks A - i k w, neighbours B/2.  d holds D at orders -n..n,
    shape (2n + 1, 3).  Block k of s - L is G_k = s + i k w - A, coupled to
    k +- 1 by H = -B/2 = diag(h, -h, 0), h = -i rabi_S.  Since H has no s_z
    entry, the s_z row of every block is removed in closed form (Schur
    complement on z = G_k[2, 2]), leaving 2x2 blocks K_k and right-hand
    sides r_k.  They are written for p = s+ + s- and m = s+ - s-, where s_z
    couples to m alone: the drive term rabi_L^2 / z, which dwarfs the other
    entries when gamma << rabi_L, then sits on one diagonal entry and never
    cancels against itself.  In that basis H acts as P = [[0, h], [h, 0]].
    Eliminating each tail from its outermost order toward k = 0 replaces
    K_k by K_k - P K_{k+-1}^-1 P and r_k by r_k - P q_{k+-1}, with
    q = K^-1 r (Risken, The Fokker-Planck Equation, ch. 9).  K_k = [[sigma,
    i delta], [i delta, sigma + rabi_L^2 / z]] is complex symmetric, and
    P K^-1 P keeps it so: one off-diagonal entry is carried per block.

    s is an array, over which every step is vectorized; d may carry a node
    axis, (2n + 1, 3, nodes, 1), with delta the (nodes, 1) column of
    detunings.  Returns the central block's (s+, s-, s_z).
    """
    n = (len(d) - 1) // 2
    g = gen.emitter.gamma.rad
    i_delta = 1j * (gen.drive.delta.rad if delta is None else delta)
    wl = gen.drive.rabi_L.rad
    w = gen.drive.omega_S.rad
    h = -1j * gen.drive.rabi_S.rad
    rs2 = gen.drive.rabi_S.rad ** 2
    wl2 = wl * wl
    # Each tail runs inward carrying P K^-1 P (s0, s1 = s2, s3) and P q (pq0,
    # pq1); the -k tail meets the +k one's carry c at k = 0.
    for orders in (range(n, 0, -1), range(-n, 1)):
        s0 = s1 = s3 = pq0 = pq1 = 0.0
        for k in orders:
            if not k:
                s0, s1, s3 = s0 + c[0], s1 + c[1], s3 + c[2]
                pq0, pq1 = pq0 + c[3], pq1 + c[4]
            d0, d1, d2 = d[n + k]
            ikw = 1j * k * w
            inv_z = 1.0 / (s + (ikw + g))
            sigma = s + (ikw + 0.5 * g)
            k00 = sigma - s0
            k01 = i_delta - s1
            k11 = sigma + wl2 * inv_z - s3
            r0 = (d0 + d1) - pq0
            r1 = (d0 - d1) - (1j * wl * d2) * inv_z - pq1
            inv_det = 1.0 / (k00 * k11 - k01 * k01)   # K^-1 off-diagonal: -j01
            i00, j01, i11 = k11 * inv_det, k01 * inv_det, k00 * inv_det
            q0 = i00 * r0 - j01 * r1
            q1 = i11 * r1 - j01 * r0
            # P M P = h^2 [[M11, M10], [M01, M00]], h^2 = -rabi_S^2.
            s0, s1, s3 = -rs2 * i11, rs2 * j01, -rs2 * i00
            pq0, pq1 = h * q1, h * q0
        c = (s0, s1, s3, pq0, pq1)
    y_z = (d[n][2] - 1j * wl * q1) * inv_z   # k = 0 came last: q = (p, m)_0
    return 0.5 * (q0 + q1), 0.5 * (q0 - q1), y_z


def _limit_cycle_solve(gen: BlochGenerator, n: int):
    """Continued fraction of the limit cycle, (0 - L) x = b delta_k0 in the
    blocks of :func:`_sambe_solve`, at truncation n.

    With the source at k = 0 alone, r_n = 0 and then r_k = -P q_{k+1} = 0:
    every q_k, k >= 1, vanishes; the +k tail is the homogeneous chain K_k -
    P K_{k+1}^-1 P.  At s = 0, G_-k = S conj(G_k) S (S swaps s+ and s-;
    S P S = P) and b = S conj b: the -k tail mirrors the +k one and is not
    run.  Returns x_0 = (s+, s-, s_z) and, for k = 1..n, (i00, i01 = i10,
    i11) of K_k^-1 and 1/z, which give every other block: (p, m)_k =
    -K_k^-1 P (p, m)_{k-1}, s_z = -i rabi_L m / z.
    """
    g = gen.emitter.gamma.rad
    i_delta = 1j * gen.drive.delta.rad
    wl = gen.drive.rabi_L.rad
    w = gen.drive.omega_S.rad
    rs2 = gen.drive.rabi_S.rad ** 2
    wl2 = wl * wl
    factors, s0, s1, s3 = [], 0.0, 0.0, 0.0
    for k in range(n, 0, -1):
        ikw = 1j * k * w
        inv_z = 1.0 / (0.0 + (ikw + g))
        sigma = 0.0 + (ikw + 0.5 * g)
        k00, k01 = sigma - s0, i_delta - s1
        k11 = sigma + wl2 * inv_z - s3
        inv_det = 1.0 / (k00 * k11 - k01 * k01)
        i00, j01, i11 = k11 * inv_det, k01 * inv_det, k00 * inv_det
        factors.append((i00, -j01, i11, inv_z))
        s0, s1, s3 = -rs2 * i11, rs2 * j01, -rs2 * i00
    factors.reverse()
    # k = 0: both tails' carries, the -k one mirrored; r = (0, r1).  The
    # general fraction's operations at s = 0, in its order, keep its bits.
    b_z = complex(gen.inhomogeneous[2])
    inv_z, sigma = 1.0 / (0.0 + (0j + g)), 0.0 + (0j + 0.5 * g)
    k00 = sigma - (s0.conjugate() + s0)
    k01 = i_delta - (-s1.conjugate() + s1)
    k11 = sigma + wl2 * inv_z - (s3.conjugate() + s3)
    r1 = 0j - (1j * wl * b_z) * inv_z
    inv_det = 1.0 / (k00 * k11 - k01 * k01)
    i00, j01, i11 = k11 * inv_det, k01 * inv_det, k00 * inv_det
    q0, q1 = i00 * 0j - j01 * r1, i11 * r1 - j01 * 0j
    y_z = (b_z - 1j * wl * q1) * inv_z
    return (0.5 * (q0 + q1), 0.5 * (q0 - q1), y_z), factors


def default_harmonics(drive: DriveConfig) -> int:
    """Truncation order: modulation index 2*rabi_S/omega_S plus drive mixing."""
    w = drive.omega_S.rad
    order = 2.0 * drive.rabi_S.rad / w + drive.rabi_L.rad / w
    if not math.isfinite(order):
        raise DomainError(f"omega_S = {drive.omega_S.ghz:.3e} GHz is too "
                          "small for harmonic balance")
    return math.ceil(order) + 8


def floquet_steady_state(gen: BlochGenerator, n_harmonics: int | None = None,
                         tol: float = 1e-10) -> FloquetSolution:
    """Limit cycle of the modulated Bloch equations by harmonic balance.

    Inserting x(t) = sum_k x_k e^{ik w t} into the equations couples
    neighboring harmonics through the cosine modulation:

        (A - i k w I) x_k + (B/2) x_{k-1} + (B/2) x_{k+1} = -b delta_k0,

    that is (0 - L) x = b delta_k0 for the operator of :func:`_sambe_solve`.
    Its continued fraction (:func:`_limit_cycle_solve`) gives x_0.  The tail
    carries no particular part, so back-substitution is x_k = -K_k^-1 P
    x_{k-1} (in the (p, m) basis of :func:`_sambe_solve`) for k = 1, 2, ...,
    and the mirror gives x_-k = conj (x_k,-, x_k,+, x_k,z).
    The truncation, from min(n_harmonics, _MAX_HARMONICS), doubles until the
    residual of these equations (:func:`_floquet_residual`) is <= tol; past
    _MAX_HARMONICS it raises :class:`ConvergenceError`, at a non-finite
    (overflowing) one DomainError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if gen.emitter.gamma.rad <= 0:
        raise DegenerateSystemError(
            "gamma = 0 leaves the limit cycle undetermined")
    if n_harmonics is None:
        n_harmonics = default_harmonics(gen.drive)
    if n_harmonics < 1:
        raise ValueError("n_harmonics must be >= 1")

    h = -1j * gen.drive.rabi_S.rad
    wl = gen.drive.rabi_L.rad
    n = min(n_harmonics, _MAX_HARMONICS)
    while True:
        y0, upper = _limit_cycle_solve(gen, n)
        rows = [y0] * (2 * n + 1)
        p, m = y0[0] + y0[1], y0[0] - y0[1]
        for j, (i00, i01, i11, inv_z) in enumerate(upper, 1):
            hm, hp = h * m, h * p
            # q_k = d_z = 0 off k = 0 (0j - x keeps q_k - x's signed zeros).
            p, m = 0j - (i00 * hm + i01 * hp), 0j - (i01 * hm + i11 * hp)
            sp, sm, sz = 0.5 * (p + m), 0.5 * (p - m), -1j * wl * m * inv_z
            rows[n + j] = (sp, sm, sz)
            rows[n - j] = (sm.conjugate(), sp.conjugate(), sz.conjugate())
        x = np.array(rows, dtype=complex)
        residual = _floquet_residual(gen, x)
        if residual <= tol:
            return FloquetSolution(gen.drive, n, x, residual)
        if not math.isfinite(residual):  # more harmonics cannot cure it
            raise DomainError(f"harmonic balance overflows at gamma = "
                              f"{gen.emitter.gamma.rad:.3e} rad/s")
        if 2 * n > _MAX_HARMONICS:
            raise ConvergenceError(
                f"harmonic balance not converged at n_harmonics = {n}",
                residual=residual)
        n *= 2


def _floquet_residual(gen: BlochGenerator, harmonics: np.ndarray) -> float:
    """max_i sum_k |r_k,i| / rate_scale over the harmonic-balance residuals
    r_k = (i k w - A) x_k - (B/2)(x_{k-1} + x_{k+1}) - b delta_k0, |k| <= n+1;
    as dx/dt - M x - b = sum_k r_k e^{ik w t}, it bounds that at every t."""
    n = len(harmonics) // 2
    x = np.zeros((2 * n + 5, 3), dtype=complex)   # x_k = 0 for |k| > n
    x[2:-2] = harmonics
    ikw = 1j * gen._omega_s * np.arange(-n - 1, n + 2)
    r = (ikw[:, None] * x[1:-1] - x[1:-1] @ gen.static_part.T
         - (x[:-2] + x[2:]) * (0.5 * gen.modulation_part.diagonal()))
    r[n + 1] -= gen.inhomogeneous
    return float(np.abs(r).sum(axis=0).max()) / gen.rate_scale


def periodic_fundamental(gen: BlochGenerator, n_samples: int,
                         tol: float = 1e-12):
    """(Phi, p) sampled at j * period / n_samples for j = 0 .. n_samples.

    One period determines the solution everywhere: the fundamental matrix
    obeys Phi(t + T) = Phi(t) Phi(T) and the particular solution obeys
    p(t + T) = Phi(t) p(T) + p(t), so the last samples (the monodromy
    matrix and one-period inhomogeneous response) extend these arrays to
    arbitrary horizons without further integration.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    y0 = np.eye(3, 4, dtype=complex)   # [I | 0]
    ts = np.linspace(0.0, gen.period, n_samples + 1)
    _, y = _integrate(gen, y0, 0.0, gen.period, tol, ts)
    return y[:, :, :3], y[:, :, 3]


def monodromy(gen: BlochGenerator, tol: float = 1e-10) -> np.ndarray:
    """Fundamental solution of the homogeneous system over one period."""
    phi, _ = periodic_fundamental(gen, 1, tol=tol)
    return phi[-1]
