import dataclasses
import math
import pickle

import numpy as np
import pytest

from sawmollow import bloch
from sawmollow.bloch import (
    BlochGenerator,
    BlochState,
    ConvergenceError,
    DegenerateSystemError,
    IntegrationError,
    default_harmonics,
    floquet_steady_state,
    monodromy,
    periodic_fundamental,
    propagate,
)
from sawmollow.model import (GHZ, DomainError, DriveConfig, EmitterParams,
                             Frequency)


def closed_form_rho_ee(delta, rabi, gamma):
    """Excited population of the unmodulated driven two-level system."""
    return (rabi ** 2 / 4.0) / (delta ** 2 + rabi ** 2 / 2.0 + gamma ** 2 / 4.0)


def static_steady_state(gen):
    """Omega_S = 0 oracle: the stationary Bloch vector of the unmodulated
    equations, from one 3 x 3 linear solve."""
    return np.linalg.solve(gen.static_part, -gen.inhomogeneous)


def time_domain_residual(gen, sol, n_points=4096):
    """max |dx/dt - M(t) x - b| / rate_scale of a Floquet solution over
    n_points times per period; dx/dt is the exact derivative of the
    harmonic series."""
    ts = np.linspace(0.0, gen.period, n_points, endpoint=False)
    w = gen.drive.omega_S.rad
    deriv = dataclasses.replace(
        sol, harmonics=1j * w * sol.orders[:, None] * sol.harmonics)
    x = sol.evaluate(ts)
    m_x = np.einsum("tij,tj->ti", np.array([gen.matrix(t) for t in ts]), x)
    res = deriv.evaluate(ts) - m_x - gen.inhomogeneous
    return float(np.max(np.abs(res))) / gen.rate_scale


def dense_harmonic_balance(gen, n, d=None, s=0.0):
    """Harmonics x_{-n..n} from one dense solve of the harmonic-balance
    system (A - i k w - s) x_k + (B/2)(x_{k-1} + x_{k+1}) = -d_k, that is
    of (s - L) x = d; d defaults to b delta_k0, which at s = 0 gives the
    limit cycle."""
    w = gen.drive.omega_S.rad
    size = 2 * n + 1
    op = np.zeros((size, 3, size, 3), dtype=complex)
    for j in range(size):
        op[j, :, j] = gen.static_part - (1j * (j - n) * w + s) * np.eye(3)
        if j > 0:
            op[j, :, j - 1] = 0.5 * gen.modulation_part
        if j < size - 1:
            op[j, :, j + 1] = 0.5 * gen.modulation_part
    if d is None:
        d = np.zeros((size, 3), dtype=complex)
        d[n] = gen.inhomogeneous
    x = np.linalg.solve(op.reshape(3 * size, 3 * size), -d.reshape(-1))
    return x.reshape(size, 3)


class TestGenerator:
    def test_matrix_entries(self, emitter):
        cfg = DriveConfig.from_ghz(-1.2, 2.0, 0.8, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        g = emitter.gamma.rad
        d = cfg.delta.rad
        wl = cfg.rabi_L.rad
        ws_drive = cfg.rabi_S.rad
        t = 0.37 * gen.period
        mod = 2.0 * ws_drive * math.cos(cfg.omega_S.rad * t)
        m = gen.matrix(t)
        assert m[0, 0] == pytest.approx(-1j * (d - mod) - g / 2.0)
        assert m[1, 1] == pytest.approx(1j * (d - mod) - g / 2.0)
        assert m[2, 2] == -g
        assert m[0, 2] == -0.5j * wl
        assert m[1, 2] == 0.5j * wl
        assert m[2, 0] == -1j * wl
        assert m[2, 1] == 1j * wl
        assert m[0, 1] == 0 and m[1, 0] == 0
        assert np.allclose(gen.inhomogeneous, [0.0, 0.0, -g])

    def test_evaluator_is_function_of_t_mod_period(self, emitter):
        cfg = DriveConfig.from_ghz(-1.2, 2.0, 0.8, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        rng = np.random.default_rng(1)
        for t in rng.uniform(0.0, 5.0 * gen.period, 50):
            reduced = math.fmod(t, gen.period)
            assert np.array_equal(gen.matrix(t), gen.matrix(reduced))

    def test_one_period_shift_matches_to_rounding(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 2.0, 1.75, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        rng = np.random.default_rng(2)
        scale = gen.rate_scale
        for t in rng.uniform(0.0, 3.0 * gen.period, 200):
            dev = np.max(np.abs(gen.matrix(t) - gen.matrix(t + gen.period)))
            assert dev < 1e-13 * scale


class TestPropagate:
    def test_pure_spontaneous_decay(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 0.0, 0.0, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        g = emitter.gamma.rad
        ts = np.linspace(0.0, 5.0 / g, 50)
        traj = propagate(gen, BlochState(0j, 0j, 1.0), 0.0, ts[-1], tol=1e-10,
                         t_eval=ts)
        expected = 2.0 * np.exp(-g * traj.times) - 1.0
        assert np.max(np.abs(traj.values[:, 2].real - expected)) < 1e-8

    def test_driven_steady_state_matches_closed_form(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 2.0, 0.0, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        g = emitter.gamma.rad
        traj = propagate(gen, BlochState.ground(), 0.0, 60.0 / g, tol=1e-10)
        rho_end = 0.5 * (1.0 + traj.values[-1, 2].real)
        expected = closed_form_rho_ee(0.0, cfg.rabi_L.rad, g)
        assert rho_end == pytest.approx(expected, rel=1e-6)
        # and the static linear solve agrees with both
        x_static = static_steady_state(gen)
        assert 0.5 * (1.0 + x_static[2].real) == pytest.approx(expected, rel=1e-12)

    def test_limit_cycle_periodicity(self, emitter, drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        g = emitter.gamma.rad
        t_ref = 25.0 / g
        ts = np.array([t_ref, t_ref + gen.period])
        traj = propagate(gen, BlochState.ground(), 0.0, ts[-1], tol=1e-11,
                         t_eval=ts)
        assert np.max(np.abs(traj.values[1] - traj.values[0])) < 1e-7

    def test_conjugation_symmetry_preserved(self, emitter, drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        ts = np.linspace(0.0, 30.0 * gen.period, 40)
        traj = propagate(gen, BlochState.ground(), 0.0, ts[-1], tol=1e-10,
                         t_eval=ts)
        sp, sm, sz = traj.values[:, 0], traj.values[:, 1], traj.values[:, 2]
        assert np.max(np.abs(sp - np.conj(sm))) < 1e-9
        assert np.max(np.abs(sz.imag)) < 1e-9

    def test_bloch_ball_containment(self, emitter, drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        traj = propagate(gen, BlochState.ground(), 0.0, 40.0 * gen.period,
                         tol=1e-10)
        # 4|<s+>|^2 + <sz>^2 <= 1 for any physical (ensemble) state.
        sp, sz = traj.values[:, 0], traj.values[:, 2].real
        assert np.all(4.0 * np.abs(sp) ** 2 + sz ** 2 <= 1.0 + 1e-9)

    @pytest.mark.parametrize("t0, t1, tol", [
        (1.0, 0.5, 1e-9), (0.0, math.inf, 1e-9), (math.nan, 1e-9, 1e-9),
        (0.0, 1e-9, 0.0), (0.0, 1e-9, math.nan)])
    def test_rejects_bad_interval(self, emitter, drive_resonant, t0, t1, tol):
        """An infinite horizon or a zero tolerance would never finish."""
        gen = BlochGenerator(drive_resonant, emitter)
        with pytest.raises(ValueError):
            propagate(gen, BlochState.ground(), t0, t1, tol=tol)

    def test_gamma_zero_allowed_in_propagation(self):
        emitter = EmitterParams(Frequency.from_ghz(1e-12))
        cfg = DriveConfig.from_ghz(0.0, 2.0, 0.0, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        traj = propagate(gen, BlochState.ground(), 0.0, 1e-9, tol=1e-9)
        assert len(traj.times) > 1


class TestFloquet:
    def test_unmodulated_collapses_to_static_solution(self, emitter,
                                                      drive_unmodulated):
        gen = BlochGenerator(drive_unmodulated, emitter)
        sol = floquet_steady_state(gen)
        x0 = sol.coefficient(0)
        assert np.allclose(x0, static_steady_state(gen), atol=1e-12)
        for k in range(1, sol.n_harmonics + 1):
            assert np.max(np.abs(sol.coefficient(k))) < 1e-14
            assert np.max(np.abs(sol.coefficient(-k))) < 1e-14

    def test_undriven_stays_in_ground_state(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 0.0, 1.75, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        sol = floquet_steady_state(gen)
        x0 = sol.coefficient(0)
        assert x0[2] == pytest.approx(-1.0)
        assert abs(x0[0]) < 1e-14 and abs(x0[1]) < 1e-14
        assert sol.mean_rho_ee == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.slow
    def test_period_average_matches_long_integration(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 3.53, 1.75, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        sol = floquet_steady_state(gen, tol=1e-11)
        # Brute-force oracle: average rho_ee over many periods, well past
        # the transient.
        n_periods = 220
        start = 100
        ts = np.linspace(start * gen.period, (start + n_periods) * gen.period,
                         n_periods * 64 + 1)
        traj = propagate(gen, BlochState.ground(), 0.0, ts[-1], tol=1e-11,
                         t_eval=ts)
        rho = 0.5 * (1.0 + traj.values[:, 2].real)
        ode_avg = np.trapezoid(rho, traj.times) / (ts[-1] - ts[0])
        assert sol.mean_rho_ee == pytest.approx(ode_avg, rel=1e-6)

    def test_matches_trajectory_pointwise_after_transient(self, emitter,
                                                          drive_resonant):
        gen = BlochGenerator(drive_resonant, emitter)
        sol = floquet_steady_state(gen, tol=1e-11)
        g = emitter.gamma.rad
        t0 = math.ceil(35.0 / g / gen.period) * gen.period
        ts = t0 + np.linspace(0.0, gen.period, 64)
        traj = propagate(gen, BlochState.ground(), 0.0, ts[-1], tol=1e-11,
                         t_eval=ts)
        dev = np.max(np.abs(traj.values - sol.evaluate(ts)))
        assert dev < 1e-7

    def test_sz_component_is_real_valued(self, emitter, drive_resonant):
        sol = floquet_steady_state(BlochGenerator(drive_resonant, emitter))
        sz = sol.harmonics[:, 2]
        assert np.max(np.abs(sz - np.conj(sz[::-1]))) < 1e-13

    def test_harmonic_decay_supports_truncation(self, emitter, drive_resonant):
        sol = floquet_steady_state(BlochGenerator(drive_resonant, emitter))
        top = np.max(np.abs(sol.harmonics[[0, -1]]))
        x0 = np.max(np.abs(sol.coefficient(0)))
        assert top / x0 < 1e-8

    def test_residual_reported_below_tolerance(self, emitter, drive_resonant):
        sol = floquet_steady_state(BlochGenerator(drive_resonant, emitter),
                                   tol=1e-10)
        assert sol.residual <= 1e-10

    def test_adaptive_doubling_recovers_from_low_truncation(self, emitter):
        cfg = DriveConfig.from_ghz(0.0, 2.0, 2.5, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        sol = floquet_steady_state(gen, n_harmonics=1, tol=1e-10)
        assert sol.n_harmonics > 1
        assert sol.residual <= 1e-10

    def test_truncation_cap_raises(self, emitter, monkeypatch):
        monkeypatch.setattr(bloch, "_MAX_HARMONICS", 2)
        cfg = DriveConfig.from_ghz(0.0, 2.0, 2.5, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        with pytest.raises(ConvergenceError) as err:
            floquet_steady_state(gen, n_harmonics=1, tol=1e-10)
        assert err.value.residual > 0

    def test_no_solve_above_the_cap(self, emitter, monkeypatch):
        """A starting order past _MAX_HARMONICS is clamped to it: one solve
        at the cap, then ConvergenceError."""
        monkeypatch.setattr(bloch, "_MAX_HARMONICS", 64)
        cfg = DriveConfig.from_ghz(0.0, 2.0, 1500.0, 3.5299)
        assert default_harmonics(cfg) > 64
        orders = []
        solve = bloch._limit_cycle_solve

        def recording(gen, n):
            orders.append(n)
            return solve(gen, n)

        monkeypatch.setattr(bloch, "_limit_cycle_solve", recording)
        with pytest.raises(ConvergenceError):
            floquet_steady_state(BlochGenerator(cfg, emitter))
        assert orders == [64]

    def test_overflow_raises_domain_error_without_doubling(self, monkeypatch):
        """A linewidth too small for double precision overflows the continued
        fraction; more harmonics cannot cure that, so the first non-finite
        residual raises a DomainError that names gamma."""
        emitter = EmitterParams.from_ghz(1e-303)
        orders = []
        solve = bloch._limit_cycle_solve

        def recording(gen, n):
            orders.append(n)
            return solve(gen, n)

        monkeypatch.setattr(bloch, "_limit_cycle_solve", recording)
        cfg = DriveConfig.from_ghz(-2.0, 2.0, 1.75, 3.5299)
        with pytest.raises(DomainError, match="gamma"):
            floquet_steady_state(BlochGenerator(cfg, emitter))
        assert orders == [default_harmonics(cfg)]

    @pytest.mark.parametrize("n", [3, 17])
    def test_residual_bounds_time_domain_residual(self, emitter, n):
        """The harmonic-balance residual of a truncated cycle bounds the
        equation residual on a dense time grid, and is within 1% of it."""
        cfg = DriveConfig.from_ghz(-1.3, 2.9, 8.0, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        sol = floquet_steady_state(gen, n_harmonics=n, tol=math.inf)
        dense = time_domain_residual(gen, sol)
        assert dense > 1e-10   # truncation, not round-off, sets both
        assert bloch._floquet_residual(gen, sol.harmonics) == sol.residual
        assert dense - 1e-13 <= sol.residual <= 1.01 * dense

    def test_gamma_zero_rejected(self, drive_resonant):
        # EmitterParams forbids gamma = 0, so bypass the constructor to
        # exercise the solver's degenerate-system guard directly.
        emitter = EmitterParams.from_ghz(0.134)
        object.__setattr__(emitter, "gamma", Frequency(0.0))
        gen = BlochGenerator(drive_resonant, emitter)
        with pytest.raises(DegenerateSystemError):
            floquet_steady_state(gen)

    def test_default_harmonics_grows_with_modulation(self):
        weak = DriveConfig.from_ghz(0.0, 1.0, 0.2, 3.5299)
        strong = DriveConfig.from_ghz(0.0, 6.0, 3.0, 3.5299)
        assert default_harmonics(strong) > default_harmonics(weak)


# Edge cases of the dense check: (delta, rabi_L, rabi_S, omega_S) in GHz and
# the truncation order (None: default_harmonics).
DENSE_CASES = {
    "undriven": ((0.0, 0.0, 1.75, 3.5299), None),
    "unmodulated": ((0.0, 3.5299, 0.0, 3.5299), None),
    "far_red": ((-5.0, 3.5299, 1.75, 3.5299), None),
    "far_blue": ((5.0, 3.5299, 1.75, 3.5299), None),
    "one_harmonic": ((0.0, 3.5299, 1.75, 3.5299), 1),
}


class TestHarmonicBalanceOracle:
    """floquet_steady_state against one dense solve at the same truncation."""

    @staticmethod
    def check(emitter, cfg, n):
        gen = BlochGenerator(cfg, emitter)
        sol = floquet_steady_state(gen, n_harmonics=n, tol=math.inf)
        assert sol.n_harmonics == n
        ref = dense_harmonic_balance(gen, n)
        dev = np.max(np.abs(sol.harmonics - ref))
        assert dev <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(DENSE_CASES))
    def test_edge_cases(self, emitter, name):
        drive, n = DENSE_CASES[name]
        cfg = DriveConfig.from_ghz(*drive)
        self.check(emitter, cfg, n or default_harmonics(cfg))

    def test_seeded_random_drives(self, emitter, rng):
        for _ in range(40):
            cfg = DriveConfig.from_ghz(rng.uniform(-5, 5), rng.uniform(0, 8),
                                       rng.uniform(0, 3), rng.uniform(1.5, 6))
            self.check(emitter, cfg, default_harmonics(cfg))


def mirror_cases(rng):
    """(drive, order) of 40 seeded drives, then of the DENSE_CASES."""
    for _ in range(40):
        cfg = DriveConfig.from_ghz(rng.uniform(-5, 5), rng.uniform(0, 8),
                                   rng.uniform(0, 3), rng.uniform(1.5, 6))
        yield cfg, default_harmonics(cfg)
    for drive, n in DENSE_CASES.values():
        cfg = DriveConfig.from_ghz(*drive)
        yield cfg, n or default_harmonics(cfg)


class TestMirroredTail:
    """The limit cycle's continued fraction runs the +k tail only and meets
    its mirror at k = 0; _sambe_solve, at any s and any D, runs both
    tails."""

    def test_one_tail_solve_matches_two_tail_solve(self, emitter, rng):
        """x_0 of floquet_steady_state equals the central block of
        _sambe_solve at s = [0], with a one-node detuning column and
        D = b delta_k0."""
        for cfg, n in mirror_cases(rng):
            gen = BlochGenerator(cfg, emitter)
            x0 = floquet_steady_state(gen, n, tol=math.inf).coefficient(0)
            d = np.zeros((2 * n + 1, 3, 1, 1), dtype=complex)
            d[n, :, 0, 0] = gen.inhomogeneous
            y0 = bloch._sambe_solve(gen, d, np.array([0.0]),
                                    np.array([[cfg.delta.rad]]))
            y0 = np.array(y0)[:, 0, 0]
            assert np.max(np.abs(y0 - x0)) <= 1e-12 * np.max(np.abs(x0))

    def test_limit_cycle_is_its_own_mirror(self, emitter, rng):
        """x_-k = S conj x_k exactly, k = 0 included: s-(t) = conj s+(t)
        and s_z(t) is real."""
        for cfg, n in mirror_cases(rng):
            sol = floquet_steady_state(BlochGenerator(cfg, emitter), n,
                                       tol=math.inf)
            x = sol.harmonics
            assert np.array_equal(x[::-1], x[:, [1, 0, 2]].conj())

    @pytest.mark.parametrize("name", ["centre", "centre_z", "off_centre",
                                      "mirrored"])
    def test_asymmetric_source_takes_both_tails(self, emitter, name):
        cfg = DriveConfig.from_ghz(-1.3, 2.9, 1.75, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        n = default_harmonics(cfg)
        d = np.zeros((2 * n + 1, 3), dtype=complex)
        d[n] = gen.inhomogeneous
        if name == "centre":       # d0 != S conj d0
            d[n] = (1.0 + 2.0j, 0.3 - 1.0j, 0.5 + 0.7j)
        elif name == "centre_z":   # d0[0] = conj d0[1], d0[2] not real
            d[n] = (0.3 - 1.0j, 0.3 + 1.0j, 0.5 + 0.7j)
        elif name == "off_centre":
            d[n + 1] = (0.2j, 0.4, -0.1)
        else:                      # mirror-symmetric, but not at k = 0 only
            d[n + 2] = (0.2j, 0.4, -0.1 + 0.3j)
            d[n - 2] = d[n + 2][[1, 0, 2]].conj()
        d *= gen.rate_scale
        ref = dense_harmonic_balance(gen, n, d)[n]
        y0 = np.array(bloch._sambe_solve(gen, d, np.array([0.0])))[:, 0]
        assert np.max(np.abs(y0 - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestResolventOracle:
    """_sambe_solve's array path, as the spectrum runs it (s = -i nu over a
    frequency axis, a node axis of detunings), against one dense solve of
    (s - L) x = d per node and frequency at the same truncation."""

    @pytest.mark.parametrize("drive", [(2.9, 1.75, 3.5299), (1.2, 0.6, 2.0),
                                       (3.5299, 0.0, 3.5299)],
                             ids=["resonant", "weak", "unmodulated"])
    def test_node_batch_matches_dense_solve(self, emitter, rng, drive):
        base = DriveConfig.from_ghz(0.0, *drive)
        gen = BlochGenerator(base, emitter)
        n = default_harmonics(base)
        w, wr = base.omega_S.rad, base.rabi_L.rad
        # Carrier, acoustic sidebands, Mollow sidebands and points between.
        nus = np.array([0.0, w, -w, 2.0 * w, wr, -wr, 0.37 * w, -1.61 * w])
        delta = np.array([[ghz] for ghz in (-1.3, 0.0, 0.45, 2.2)]) * GHZ
        # A source with no mirror symmetry, distinct at every node.
        shape = (2 * n + 1, 3, len(delta))
        d = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * gen.rate_scale
        y0 = bloch._sambe_solve(gen, d[..., None], -1j * nus, delta)
        ref = np.array([[dense_harmonic_balance(
            BlochGenerator(base.replace_delta(dn), emitter), n, d[..., i],
            -1j * nu)[n] for nu in nus] for i, (dn,) in enumerate(delta)])
        y0 = np.moveaxis(np.array(y0), 0, -1)   # (nodes, freqs, 3)
        assert y0.shape == ref.shape
        assert np.max(np.abs(y0 - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMonodromy:
    def test_uncoupled_case_is_diagonal_decay(self, emitter):
        cfg = DriveConfig.from_ghz(-0.9, 0.0, 0.0, 3.5299)
        gen = BlochGenerator(cfg, emitter)
        m = monodromy(gen, tol=1e-12)
        g = emitter.gamma.rad
        d = cfg.delta.rad
        t = gen.period
        expected = np.diag([np.exp((-1j * d - g / 2.0) * t),
                            np.exp((1j * d - g / 2.0) * t),
                            np.exp(-g * t)])
        assert np.max(np.abs(m - expected)) < 1e-10

    def test_strictly_stable_for_random_parameters(self, emitter, rng):
        for _ in range(12):
            cfg = DriveConfig.from_ghz(rng.uniform(-4, 4), rng.uniform(0, 6),
                                       rng.uniform(0, 2.5), rng.uniform(1.5, 6))
            radius = np.max(np.abs(np.linalg.eigvals(
                monodromy(BlochGenerator(cfg, emitter)))))
            assert radius < 1.0

    def test_spectral_radius_decreases_with_gamma(self, drive_resonant):
        radii = []
        for gamma in [0.05, 0.134, 0.3, 0.6]:
            gen = BlochGenerator(drive_resonant, EmitterParams.from_ghz(gamma))
            radii.append(np.max(np.abs(np.linalg.eigvals(monodromy(gen)))))
        assert all(a > b for a, b in zip(radii, radii[1:]))


class TestFundamentalSolution:
    def test_affine_decomposition_reproduces_propagation(self, emitter,
                                                         drive_resonant):
        """x(t) = Phi(t) x0 + p(t) for arbitrary x0: linearity of the flow."""
        gen = BlochGenerator(drive_resonant, emitter)
        phi, part = periodic_fundamental(gen, 8, tol=1e-12)
        ts = np.linspace(0.0, gen.period, 9)
        x0 = np.array([0.1 + 0.2j, 0.1 - 0.2j, -0.4], dtype=complex)
        traj = propagate(gen, BlochState(*x0), 0.0, gen.period,
                         tol=1e-12, t_eval=ts)
        recon = np.einsum("tij,j->ti", phi, x0) + part
        assert np.max(np.abs(recon - traj.values)) < 1e-8

    def test_particular_solution_scales_with_inhomogeneous_term(self, emitter,
                                                                drive_resonant):
        """Scaling the constant term scales the zero-start response linearly."""
        gen = BlochGenerator(drive_resonant, emitter)
        _, part = periodic_fundamental(gen, 6, tol=1e-12)
        ts = np.linspace(0.0, gen.period, 7)
        from scipy.integrate import solve_ivp

        scale = 2.5 - 0.5j

        def rhs(t, y):
            return gen.matrix(t) @ y + scale * gen.inhomogeneous

        direct = solve_ivp(rhs, (0.0, gen.period), np.zeros(3, complex),
                           method="DOP853", rtol=1e-12, atol=1e-14, t_eval=ts)
        assert np.max(np.abs(scale * part - direct.y.T)) < 1e-8

    def test_periodic_samples_chain_to_long_horizon(self, emitter,
                                                    drive_resonant):
        """Monodromy chaining reproduces the directly propagated flow several
        periods out: p(t) is the flow from 0, Phi(t) e_i the flow from e_i
        minus p(t)."""
        gen = BlochGenerator(drive_resonant, emitter)
        n_per = 32
        phi_s, p_s = periodic_fundamental(gen, n_per, tol=1e-12)
        mono, p_t = phi_s[-1], p_s[-1]
        # Chain to t = 5 T + 17/32 T.
        k, m = 5, 17
        phi_chain = phi_s[m] @ np.linalg.matrix_power(mono, k)
        p_chain = phi_s[m] @ (
            np.linalg.matrix_power(mono, k - 1) @ p_t
            + np.linalg.matrix_power(mono, k - 2) @ p_t
            + np.linalg.matrix_power(mono, k - 3) @ p_t
            + np.linalg.matrix_power(mono, k - 4) @ p_t
            + p_t) + p_s[m]
        t = (k + m / n_per) * gen.period

        def flow(x0):
            return propagate(gen, BlochState(*x0), 0.0, t,
                             tol=1e-12, t_eval=[t]).values[-1]

        p_ref = flow(np.zeros(3))
        phi_ref = np.column_stack([flow(e) - p_ref for e in np.eye(3)])
        assert np.max(np.abs(phi_chain - phi_ref)) < 1e-9
        assert np.max(np.abs(p_chain - p_ref)) < 1e-9


class TestErrors:
    @pytest.mark.parametrize("n_samples, tol", [(0, 1e-12), (-1, 1e-12),
                                                (4, 0.0), (4, -1e-9)])
    def test_periodic_fundamental_rejects_bad_input(self, emitter,
                                                    drive_resonant,
                                                    n_samples, tol):
        """No samples gave Phi = I, a negative count an AttributeError and a
        zero tolerance a solve that did not finish."""
        gen = BlochGenerator(drive_resonant, emitter)
        with pytest.raises(ValueError):
            periodic_fundamental(gen, n_samples, tol=tol)

    def test_monodromy_rejects_nonpositive_tol(self, emitter, drive_resonant):
        with pytest.raises(ValueError, match="tol must be positive"):
            monodromy(BlochGenerator(drive_resonant, emitter), tol=0.0)

    @pytest.mark.parametrize("cls, field", [(ConvergenceError, "residual"),
                                            (IntegrationError, "t_last")])
    def test_pickle_round_trip_keeps_message_and_field(self, cls, field):
        exc = cls("solver failed", 1.25e-3)
        exc.add_note("index 3: solver failed")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        assert getattr(copy, field) == 1.25e-3
        assert copy.__notes__ == ["index 3: solver failed"]
