"""Time integration of the seven flows."""

import math

import numpy as np
import pytest

from aknslab.flows import (
    FlowError,
    FlowSpec,
    Integrator,
    Trajectory,
    UnstableStep,
    evolve,
    rescale,
    step_a_flow,
    step_difference,
    step_full,
    step_regularized,
)
from aknslab.lax import greens_fixed_point, pdet_integral
from aknslab.profiles import gaussian, plane_wave
from aknslab.spectral import Field, Grid

from conftest import l2, rel_l2


def nls_plane_wave(g, a, xi0, sign, t):
    omega = xi0**2 + 2 * sign * a**2
    return a * np.exp(1j * (xi0 * g.x - omega * t))


def mkdv_plane_wave(g, a, xi0, sign, t):
    omega = -xi0**3 - 6 * sign * a**2 * xi0
    return a * np.exp(1j * (xi0 * g.x - omega * t))


class TestFlowSpec:
    def test_kind_and_scheme_validation(self):
        with pytest.raises(FlowError):
            FlowSpec("bogus", 1e-3, 1.0)
        with pytest.raises(FlowError):
            FlowSpec("nls", 1e-3, 1.0, scheme="euler")
        with pytest.raises(FlowError):
            FlowSpec("nls_kappa", 1e-3, 1.0)  # missing kappa
        with pytest.raises(FlowError):
            FlowSpec("nls", 1e-3, 1.0, kappa=4.0)  # spurious kappa

    def test_stability_gate(self):
        g = Grid(32.0, 1024)  # max|xi| ~ 100
        f = gaussian(g, 0.1, width=2.0)
        with pytest.raises(UnstableStep):
            Integrator(g, 1, FlowSpec("mkdv", 5e-3, 1.0))
        Integrator(g, 1, FlowSpec("mkdv", 1e-3, 1.0))  # passes the gate

    def test_trajectory_timestamps(self, grid, small_gaussian):
        with pytest.raises(FlowError):
            Trajectory(FlowSpec("nls", 1e-3, 1.0), grid, 1, [0.0, 0.0],
                       [small_gaussian.values] * 2)

    def test_fixed_point_work_in_stats(self, grid, small_gaussian):
        spec = FlowSpec("nls_diff", 1e-3, 3e-3, kappa=2.0, fp_tol=1e-11)
        stats = evolve(small_gaussian, spec).stats
        its = stats["fp_iterations"]
        assert 1 <= its["min"] <= its["mean"] <= its["max"]
        assert 0.0 < stats["fp_worst_residual"] < spec.fp_tol
        plain = evolve(small_gaussian, FlowSpec("nls", 1e-3, 3e-3)).stats
        assert set(plain) == {"steps", "wall_time"}


class TestFullFlows:
    def test_zero_field_stays_zero(self, grid):
        f = Field(grid, np.zeros(grid.points))
        for kind in ("nls", "mkdv"):
            out = step_full(f, kind, 1e-3)
            assert l2(grid, out.values) == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_nls_plane_wave_single_step(self, sign):
        g = Grid(8 * np.pi, 128)
        a, xi0, dt = 1.0, 1.0, 5e-3
        f = plane_wave(g, a, xi0, sign=sign)
        out = step_full(f, "nls", dt, scheme="rk4_spectral")
        exact = nls_plane_wave(g, a, xi0, sign, dt)
        # local error of one fourth-order step
        assert np.max(np.abs(out.values - exact)) < 10 * (2 * a * a * dt) ** 5

    def test_plane_wave_grows_fourth_order(self):
        g = Grid(8 * np.pi, 128)
        f = plane_wave(g, 1.0, 1.0)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            traj = evolve(f, FlowSpec("nls", dt, 1.0, scheme="rk4_spectral"))
            errs.append(np.max(np.abs(traj.states[-1] - nls_plane_wave(g, 1.0, 1.0, 1, 1.0))))
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0

    def test_mkdv_plane_wave_order(self):
        g = Grid(8 * np.pi, 128)
        f = plane_wave(g, 1.0, 1.0)
        errs = []
        for dt in (0.02, 0.01):
            traj = evolve(f, FlowSpec("mkdv", dt, 1.0, scheme="rk4_spectral"))
            errs.append(np.max(np.abs(traj.states[-1] - mkdv_plane_wave(g, 1.0, 1.0, 1, 1.0))))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_etd4_matches_lawson(self, grid):
        f = gaussian(grid, 0.1)
        a = evolve(f, FlowSpec("nls", 1e-3, 0.05, scheme="etd4")).states[-1]
        b = evolve(f, FlowSpec("nls", 1e-3, 0.05, scheme="rk4_spectral")).states[-1]
        assert rel_l2(grid, a, b) < 1e-10

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_mkdv_real_data_stays_real(self, grid, sign):
        f = gaussian(grid, 0.1, sign=sign)
        traj = evolve(f, FlowSpec("mkdv", 1e-3, 1.0, snapshot_stride=1000))
        leakage = np.max(np.abs(traj.states[-1].imag))
        assert leakage <= 1e-12

    def test_nls_conjugation_is_time_reversal(self, grid):
        f = gaussian(grid, 0.1)
        forward = evolve(f, FlowSpec("nls", 1e-3, 0.2, snapshot_stride=200)).states[-1]
        back = evolve(Field(grid, np.conj(forward), f.sign),
                      FlowSpec("nls", 1e-3, 0.2, snapshot_stride=200)).states[-1]
        assert rel_l2(grid, np.conj(back), f.values) < 1e-10

    def test_mkdv_conjugation_maps_solutions_to_solutions(self, grid):
        # complex data exercising the symmetry
        values = 0.08 * np.exp(-grid.x**2) * (1.0 + 0.3j)
        f = Field(grid, values)
        spec = FlowSpec("mkdv", 1e-3, 0.2, snapshot_stride=200)
        evolved_then_conj = np.conj(evolve(f, spec).states[-1])
        conj_then_evolved = evolve(Field(grid, np.conj(values)), spec).states[-1]
        assert rel_l2(grid, evolved_then_conj, conj_then_evolved) < 1e-10

    def test_nan_abort_reports_last_valid_time(self, grid):
        from aknslab.flows import NumericalBlowup

        f = gaussian(grid, 40.0)
        with pytest.raises(NumericalBlowup) as info:
            evolve(f, FlowSpec("mkdv", 0.05, 2.0, scheme="etd4"))
        assert info.value.last_valid_time >= 0.0


class TestGeneratingFlow:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        out, r = step_a_flow(f, 2.0, 1e-3)
        assert l2(grid, out.values) == 0.0

    def test_mean_production_rate(self, grid):
        f = gaussian(grid, 0.1)
        tr = greens_fixed_point(f, 2.0, tol=1e-13)
        predicted = 1j * grid.integrate(tr.g12)
        dt = 1e-3
        f1, r1 = step_a_flow(f, 2.0, dt)
        f2, _ = step_a_flow(f1, 2.0, dt, r=r1)
        m0, m1, m2 = (grid.integrate(v) for v in (f.values, f1.values, f2.values))
        rate = (-3 * m0 + 4 * m1 - m2) / (2 * dt)
        assert abs(rate - predicted) < 1e-8

    def test_determinant_conserved_under_generating_flow(self, grid):
        f = gaussian(grid, 0.1)
        traj = evolve(f, FlowSpec("a_flow", 1e-3, 0.1, kappa=2.0,
                                  snapshot_stride=100, fp_tol=1e-13))
        def det(i):
            q, r = traj.states[i], traj.r_states[i]
            tr = greens_fixed_point(Field(grid, q), 4.0, tol=1e-13, r=r)
            return pdet_integral(Field(grid, q), 4.0, tr, r=r)
        d0, dT = det(0), det(len(traj) - 1)
        assert abs(dT - d0) <= 1e-8 * abs(d0)

    def test_conjugacy_violation_is_measured_not_projected(self, grid):
        f = gaussian(grid, 0.1)
        traj = evolve(f, FlowSpec("a_flow", 1e-3, 0.1, kappa=2.0, snapshot_stride=25))
        dev = traj.conjugacy_violation()
        assert 1e-4 < dev < 1.0  # genuinely drifts; never re-imposed


class TestRegularizedFlows:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        for kind in ("nls_kappa", "mkdv_kappa"):
            out = step_regularized(f, kind, 8.0, 1e-3)
            assert l2(grid, out.values) == 0.0

    def test_linearization_at_tiny_amplitude(self, grid):
        # the full vector field matches the rational linear symbol to O(|q|^3)
        amp = 1e-4
        f = gaussian(grid, amp)
        stepper = Integrator(grid, 1, FlowSpec("nls_kappa", 1e-3, 1e-3, kappa=4.0))
        rhs = stepper.rhs(f.values)
        symbol = -4j * 4.0**2 * grid.xi**2 / (4 * 4.0**2 + grid.xi**2)
        linear = np.fft.ifft(symbol * np.fft.fft(f.values))
        assert l2(grid, rhs - linear) <= 20 * amp**3

    @pytest.mark.parametrize("kind", ["nls_kappa", "mkdv_kappa"])
    def test_alpha_conserved(self, grid, kind):
        from aknslab.lax import alpha

        f = gaussian(grid, 0.1)
        traj = evolve(f, FlowSpec(kind, 1e-3, 0.1, kappa=8.0, snapshot_stride=100))
        for vk in (1.0, 4.0):
            a0 = alpha(traj.field(0), vk, tol=1e-13)
            aT = alpha(traj.field(-1), vk, tol=1e-13)
            assert abs(aT - a0) <= 1e-7 * max(abs(a0), f.l2_norm() ** 2)

    def test_galilean_frame_of_mkdv_kappa(self, grid):
        # the 4 kappa^2 q' term is an exact transport: compare against the
        # frame-shifted evolution of the same data
        f = gaussian(grid, 0.05)
        kappa, t = 2.0, 0.05
        traj = evolve(f, FlowSpec("mkdv_kappa", 1e-3, t, kappa=kappa,
                                  snapshot_stride=1000))
        shift = 4 * kappa**2 * t
        # undo the transport spectrally and compare with the kappa-flow
        # with its transport symbol removed
        undone = np.fft.ifft(np.exp(-1j * grid.xi * shift) * np.fft.fft(traj.states[-1]))
        spec = FlowSpec("mkdv_kappa", 1e-3, t, kappa=kappa, snapshot_stride=1000)
        stepper = Integrator(grid, 1, spec)
        stepper.mu = stepper.mu - 4j * kappa**2 * grid.xi  # strip the transport
        q = f.values.copy()
        for _ in range(int(round(t / 1e-3))):
            q = stepper.step(q)
        assert rel_l2(grid, undone, q) < 1e-9


class TestDifferenceFlows:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        for kind in ("nls_diff", "mkdv_diff"):
            out = step_difference(f, kind, 8.0, 1e-3)
            assert l2(grid, out.values) == 0.0

    @pytest.mark.parametrize("star", ["nls", "mkdv"])
    def test_composition_consistency(self, grid, star):
        # diff(t) then kappa(t) matches the full flow for time t; the defect
        # shrinks by >= 3.5x per halving of t (fixed step count)
        f = gaussian(grid, 0.1)
        kappa, n = 8.0, 8

        def defect(t):
            dt = t / n
            full = evolve(f, FlowSpec(star, dt, t, scheme="rk4_spectral")).states[-1]
            mid = evolve(f, FlowSpec(f"{star}_diff", dt, t, kappa=kappa)).states[-1]
            out = evolve(Field(grid, mid), FlowSpec(f"{star}_kappa", dt, t, kappa=kappa)).states[-1]
            return l2(grid, out - full)

        defects = [defect(t) for t in (0.08, 0.04, 0.02)]
        for a, b in zip(defects, defects[1:]):
            assert a / b >= 3.5

    def test_near_identity_at_large_kappa(self, grid):
        from aknslab.spectral import sobolev_norm

        f = gaussian(grid, 0.1)
        moves = []
        for kappa in (8.0, 16.0, 32.0):
            traj = evolve(f, FlowSpec("nls_diff", 1e-3, 0.1, kappa=kappa,
                                      snapshot_stride=100))
            moves.append(sobolev_norm(
                Field(grid, traj.states[-1] - f.values), -0.5))
        assert moves[0] > moves[1] > moves[2]


class TestRescale:
    def test_identity(self, grid, small_gaussian):
        out, tdil = rescale(small_gaussian, 1.0, 2)
        assert tdil == 1.0
        assert np.array_equal(out.values, small_gaussian.values)

    def test_l2_scaling_exact(self, grid, small_gaussian):
        lam = 4.0
        out, tdil = rescale(small_gaussian, lam, 2)
        assert tdil == 16.0
        assert abs(out.l2_norm() ** 2 - lam * small_gaussian.l2_norm() ** 2) \
            <= 1e-14 * small_gaussian.l2_norm() ** 2
        assert out.grid.length == grid.length / lam

    def test_pointwise_meaning(self, grid, small_gaussian):
        # q_lam(x) = lam q(lam x) on the shrunken box
        lam = 2.0
        out, _ = rescale(small_gaussian, lam, 3)
        j = grid.points // 3
        x_new = out.grid.x[j]
        expected = lam * 0.1 * np.exp(-((lam * x_new) ** 2))
        assert abs(out.values[j] - expected) < 1e-12

    def test_validation(self, grid, small_gaussian):
        with pytest.raises(FlowError):
            rescale(small_gaussian, -1.0, 2)
        with pytest.raises(FlowError):
            rescale(small_gaussian, 2.0, -1)
