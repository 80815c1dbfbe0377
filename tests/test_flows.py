"""Time integration of the seven flows."""

from collections import Counter

import numpy as np
import pytest

from aknslab.flows import (
    _YOSHIDA_W0,
    _YOSHIDA_W1,
    FlowError,
    FlowSpec,
    Integrator,
    SpecError,
    Trajectory,
    UnstableStep,
    evolve,
)
from aknslab.lax import FixedPointChain, fixed_point_raw, greens_fixed_point, pdet_integral
from aknslab.profiles import gaussian, plane_wave, random_schwartz
from aknslab.spectral import Field, Grid, dealiased_mul
from aknslab.storage import read_trajectory, write_trajectory

from conftest import l2, rel_l2


def nls_plane_wave(g, a, xi0, sign, t):
    omega = xi0**2 + 2 * sign * a**2
    return a * np.exp(1j * (xi0 * g.x - omega * t))


def mkdv_plane_wave(g, a, xi0, sign, t):
    omega = -xi0**3 - 6 * sign * a**2 * xi0
    return a * np.exp(1j * (xi0 * g.x - omega * t))


class TestFlowSpec:
    def test_kind_and_scheme_validation(self):
        with pytest.raises(SpecError):
            FlowSpec("bogus", 1e-3, 1.0)
        with pytest.raises(SpecError):
            FlowSpec("nls", 1e-3, 1.0, scheme="euler")
        with pytest.raises(SpecError):
            FlowSpec("nls_kappa", 1e-3, 1.0)  # missing kappa
        with pytest.raises(SpecError):
            FlowSpec("nls", 1e-3, 1.0, kappa=4.0)  # spurious kappa
        for kind in ("nls", "mkdv"):
            with pytest.raises(SpecError):
                FlowSpec(kind, 1e-3, 1.0, scheme="etd4")
        # splitting4 only for nls
        for kind, kappa in (("mkdv", None), ("a_flow", 2.0), ("nls_kappa", 4.0),
                            ("mkdv_kappa", 4.0), ("nls_diff", 8.0), ("mkdv_diff", 8.0)):
            for scheme in ("splitting4", "etd4"):
                with pytest.raises(SpecError):
                    FlowSpec(kind, 1e-3, 1.0, scheme=scheme, kappa=kappa)
        with pytest.raises(SpecError):
            FlowSpec("nls", float("nan"), 1.0)
        assert issubclass(SpecError, FlowError) and issubclass(UnstableStep, SpecError)

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
            out = evolve(f, FlowSpec(kind, 1e-3, 1e-3)).states[-1]
            assert l2(grid, out) == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_nls_plane_wave_single_step(self, sign):
        g = Grid(8 * np.pi, 128)
        a, xi0, dt = 1.0, 1.0, 5e-3
        f = plane_wave(g, a, xi0, sign=sign)
        out = evolve(f, FlowSpec("nls", dt, dt, scheme="rk4_spectral")).states[-1]
        exact = nls_plane_wave(g, a, xi0, sign, dt)
        # local error of one fourth-order step
        assert np.max(np.abs(out - exact)) < 10 * (2 * a * a * dt) ** 5

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
            evolve(f, FlowSpec("mkdv", 0.05, 2.0))
        assert info.value.last_valid_time >= 0.0

    def test_failed_solve_reports_last_valid_time(self, grid):
        from aknslab.flows import NumericalBlowup
        from aknslab.lax import DataTooLarge

        # H^(-1/4) size 0.46, outside the gate the kernel checks on every solve
        f = gaussian(grid, 0.5)
        with pytest.raises(NumericalBlowup) as info:
            evolve(f, FlowSpec("nls_diff", 1e-3, 0.01, kappa=8.0))
        assert info.value.last_valid_time == 0.0
        assert isinstance(info.value.__cause__, DataTooLarge)


class TestGeneratingFlow:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        traj = evolve(f, FlowSpec("a_flow", 1e-3, 1e-3, kappa=2.0))
        assert l2(grid, traj.states[-1]) == 0.0

    def test_mean_production_rate(self, grid):
        f = gaussian(grid, 0.1)
        tr = greens_fixed_point(f, 2.0, tol=1e-13)
        predicted = 1j * grid.integrate(tr.g12)
        dt = 1e-3
        spec = FlowSpec("a_flow", dt, dt, kappa=2.0)
        traj = evolve(f, spec)
        q1, r1 = traj.states[-1], traj.r_states[-1]
        q2 = evolve(Field(grid, q1, partner=r1), spec).states[-1]
        m0, m1, m2 = (grid.integrate(v) for v in (f.values, q1, q2))
        rate = (-3 * m0 + 4 * m1 - m2) / (2 * dt)
        assert abs(rate - predicted) < 1e-8

    def test_determinant_conserved_under_generating_flow(self, grid):
        f = gaussian(grid, 0.1)
        traj = evolve(f, FlowSpec("a_flow", 1e-3, 0.1, kappa=2.0,
                                  snapshot_stride=100, fp_tol=1e-13))
        def det(i):
            f = traj.field(i)
            return pdet_integral(f, 4.0, greens_fixed_point(f, 4.0, tol=1e-13))
        d0, dT = det(0), det(len(traj) - 1)
        assert abs(dT - d0) <= 1e-8 * abs(d0)

    @pytest.mark.parametrize("kind,kappa", [("a_flow", 2.0), ("nls", None)])
    def test_snapshot_fields_carry_the_evolved_partner(self, tmp_path, grid, kind, kappa):
        traj = evolve(gaussian(grid, 0.1, sign=-1),
                      FlowSpec(kind, 1e-3, 0.004, kappa=kappa, snapshot_stride=2))
        write_trajectory(str(tmp_path / "traj"), traj)
        for t in (traj, read_trajectory(str(tmp_path / "traj"))):
            for i in range(len(t)):
                f = t.field(i)
                want = t.r_states[i] if kind == "a_flow" else -np.conj(t.states[i])
                assert np.array_equal(f.r, want)
                assert (f.partner is None) == (kind != "a_flow")

    @staticmethod
    def independent_pair(grid):
        rng = np.random.default_rng(1)
        return Field(grid, random_schwartz(grid, rng, norm=0.1).values,
                     partner=random_schwartz(grid, rng, norm=0.1).values)

    def test_step_is_classical_rk4_on_the_green_pair(self, grid):
        # dq/dt = i g12, dr/dt = i g21 with r an independent unknown, on the
        # raw coefficient pair; the Lawson factors of its zero symbol are ones
        f = self.independent_pair(grid)
        h, kappa = 1e-2, 2.0
        chain = FixedPointChain(grid, kappa)

        def field(y):
            g12_hat, g21_hat, *_ = chain.solve_raw(y[0], y[1])
            return 1j * np.stack((g12_hat, g21_hat))

        y = np.fft.fft(np.stack((f.values, f.r)))
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        q1, r1 = np.fft.ifft(y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        traj = evolve(f, FlowSpec("a_flow", h, h, kappa=kappa))
        assert np.array_equal(traj.states[-1], q1)
        assert np.array_equal(traj.r_states[-1], r1)

    def test_matches_grid_value_rk4_over_50_steps(self, grid):
        # the stepper before the pair carried coefficients: classical RK4 on
        # grid values, each stage solving from grid values
        f = self.independent_pair(grid)
        spec = FlowSpec("a_flow", 1e-2, 0.5, kappa=2.0, snapshot_stride=50)
        chain = FixedPointChain(grid, spec.kappa, spec.fp_tol)

        def field(state):
            triple = chain.solve(state[0], state[1])
            return 1j * np.stack((triple.g12, triple.g21))

        state = np.stack((f.values, f.r))
        for _ in range(spec.steps):
            state = _rk4_plain(state, spec.dt, field)
        traj = evolve(f, spec)
        assert rel_l2(grid, traj.states[-1], state[0]) <= 1e-13
        assert rel_l2(grid, traj.r_states[-1], state[1]) <= 1e-13

    def test_conjugacy_violation_is_measured_not_projected(self, grid):
        f = gaussian(grid, 0.1)
        traj = evolve(f, FlowSpec("a_flow", 1e-3, 0.1, kappa=2.0, snapshot_stride=25))
        dev = traj.conjugacy_violation()
        assert 1e-4 < dev < 1.0  # genuinely drifts; never re-imposed


def _rk4_plain(q, h, rhs):
    """Classical RK4, as the generating flow once stepped its grid pair."""
    k1 = rhs(q)
    k2 = rhs(q + 0.5 * h * k1)
    k3 = rhs(q + 0.5 * h * k2)
    k4 = rhs(q + h * k3)
    return q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


class TestRegularizedFlows:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        for kind in ("nls_kappa", "mkdv_kappa"):
            out = evolve(f, FlowSpec(kind, 1e-3, 1e-3, kappa=8.0)).states[-1]
            assert l2(grid, out) == 0.0

    def test_linearization_at_tiny_amplitude(self, grid):
        # the full vector field matches the rational linear symbol to O(|q|^3)
        amp = 1e-4
        f = gaussian(grid, amp)
        stepper = Integrator(grid, 1, FlowSpec("nls_kappa", 1e-3, 1e-3, kappa=4.0))
        q_hat = np.fft.fft(f.values)
        nonlinear = np.fft.ifft(stepper.nonlinear(q_hat))  # raw coefficients in and out
        rhs = np.fft.ifft(stepper._linear_symbol(grid.xi) * q_hat) + nonlinear
        symbol = -4j * 4.0**2 * grid.xi**2 / (4 * 4.0**2 + grid.xi**2)
        linear = np.fft.ifft(symbol * q_hat)
        assert l2(grid, rhs - linear) <= 20 * amp**3
        assert l2(grid, nonlinear) <= 20 * amp**3

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

        class TransportFree(Integrator):
            def _linear_symbol(self, xi):
                return super()._linear_symbol(xi) - 4j * kappa**2 * xi

        spec = FlowSpec("mkdv_kappa", 1e-3, t, kappa=kappa, snapshot_stride=1000)
        stepper = TransportFree(grid, 1, spec)
        q_hat = np.fft.fft(f.values)
        for _ in range(int(round(t / 1e-3))):
            q_hat = stepper.step(q_hat)
        assert rel_l2(grid, undone, np.fft.ifft(q_hat)) < 1e-9


class TestDifferenceFlows:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        for kind in ("nls_diff", "mkdv_diff"):
            out = evolve(f, FlowSpec(kind, 1e-3, 1e-3, kappa=8.0)).states[-1]
            assert l2(grid, out) == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("star", ["nls", "mkdv"])
    def test_field_is_full_minus_regularized(self, grid, star, sign):
        q = random_schwartz(grid, np.random.default_rng(0), norm=0.1, sign=sign).values
        q_hat = np.fft.fft(q)

        def field(kind, kappa=None):  # raw coefficients in and out
            spec = FlowSpec(kind, 1e-3, 1e-3, kappa=kappa)
            return Integrator(grid, sign, spec).nonlinear(q_hat)

        assert np.array_equal(field(f"{star}_diff", 8.0),
                              field(star) - field(f"{star}_kappa", 8.0))

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


class TwoSolveIntegrator(Integrator):
    """Reference: g12 at -kappa from its own warm-started fixed point, as the
    integrator computed it before deriving it from the +kappa solve."""

    def __init__(self, *args):
        super().__init__(*args)
        self.warm_pm = {}

    def _g12_pm(self, q):
        q_hat, r_hat = np.fft.fft(q), np.fft.fft(self.sign * np.conj(q))
        out = []
        for kappa in (self.spec.kappa, -self.spec.kappa):
            g12_hat, _, gamma_hat, _, _ = fixed_point_raw(
                self.grid, q_hat, r_hat, kappa, tol=self.spec.fp_tol,
                gamma0=self.warm_pm.get(kappa))
            self.warm_pm[kappa] = gamma_hat
            out.append(np.fft.ifft(g12_hat))
        return out[0], out[1]


REGULARIZED_KINDS = ("nls_kappa", "mkdv_kappa", "nls_diff", "mkdv_diff")


class TestOneSolvePerStage:
    """g12 at -kappa comes from the +kappa solve's gamma, not a second solve."""

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("kind", REGULARIZED_KINDS)
    def test_minus_kappa_matches_direct_solve(self, grid, kind, sign):
        q = random_schwartz(grid, np.random.default_rng(0), norm=0.1, sign=sign).values
        q_hat, r_hat = np.fft.fft(q), np.fft.fft(sign * np.conj(q))
        for kappa in (8.0, 16.0, 32.0):
            gp, gm = Integrator(grid, sign, FlowSpec(kind, 1e-3, 1e-3, kappa=kappa))._g12_pm(q)
            assert np.array_equal(gp, np.fft.ifft(fixed_point_raw(grid, q_hat, r_hat, kappa)[0]))
            direct = np.fft.ifft(fixed_point_raw(grid, q_hat, r_hat, -kappa)[0])
            assert rel_l2(grid, gm, direct) <= 1e-11

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("kind", REGULARIZED_KINDS)
    def test_minus_kappa_with_nyquist_content(self, grid, kind, sign):
        # the random profile is band-limited; add a small unpaired Nyquist mode.
        # The kept -N/2 mode breaks gamma(-kappa) = conj gamma(kappa) by O(its
        # size), but the derived value carries the lattice symbol, so it stays
        # far closer to the direct solve than the pure conjugation image
        q = random_schwartz(grid, np.random.default_rng(0), norm=0.1, sign=sign).values
        q = q + 1e-6 * (-1.0) ** np.arange(grid.points)
        assert abs(np.fft.fft(q)[grid.points // 2]) > 1e-4
        q_hat, r_hat = np.fft.fft(q), np.fft.fft(sign * np.conj(q))
        for kappa in (8.0, 16.0, 32.0):
            _, gm = Integrator(grid, sign, FlowSpec(kind, 1e-3, 1e-3, kappa=kappa))._g12_pm(q)
            direct = np.fft.ifft(fixed_point_raw(grid, q_hat, r_hat, -kappa)[0])
            image = sign * np.conj(np.fft.ifft(fixed_point_raw(grid, q_hat, r_hat, kappa)[1]))
            assert rel_l2(grid, gm, direct) <= 1e-9
            assert rel_l2(grid, gm, direct) <= 1e-3 * rel_l2(grid, image, direct)

    @pytest.mark.parametrize("kind", REGULARIZED_KINDS)
    def test_matches_two_solve_route_over_200_steps(self, grid, kind):
        f = gaussian(grid, 0.1)
        spec = FlowSpec(kind, 1e-3, 0.2, kappa=8.0, snapshot_stride=200)
        reference = TwoSolveIntegrator(grid, f.sign, spec)
        q_hat = np.fft.fft(f.values)
        for _ in range(200):
            q_hat = reference.step(q_hat)
        assert rel_l2(grid, evolve(f, spec).states[-1], np.fft.ifft(q_hat)) <= 1e-11

    @pytest.mark.parametrize("kind", REGULARIZED_KINDS)
    def test_one_solve_per_rk4_stage(self, grid, small_gaussian, kind):
        stepper = Integrator(grid, 1, FlowSpec(kind, 1e-3, 3e-3, kappa=8.0))
        q_hat = np.fft.fft(small_gaussian.values)
        for _ in range(3):
            q_hat = stepper.step(q_hat)
        assert stepper.chain.solves == 4 * 3


class GridValueIntegrator(Integrator):
    """Reference: the Lawson-RK4 step with every stage on grid values, each
    full field formed by ``dealiased_mul`` from q and r = sign * conj(q), and
    the splitting step as three Strang substeps of grid values, as the
    integrator computed them before their stages carried coefficients.
    ``step`` keeps the coefficient state of ``Integrator.step``."""

    def grid_field(self, q):
        star, _, flavor = self.spec.kind.partition("_")
        r = self.sign * np.conj(q)
        if star == "nls":
            full = -2j * dealiased_mul(q, q, r)
        else:
            full = 6.0 * dealiased_mul(q, r, np.fft.ifft(1j * self.grid.xi * np.fft.fft(q)))
        if not flavor:
            return full
        kap, q_hat = self.spec.kappa, np.fft.fft(q)
        gp, gm = self._g12_pm(q)
        if star == "nls":
            linear_part = np.fft.ifft(-(self._inv_m + self._inv_p) * q_hat)
            regularized = -4j * kap**3 * ((gp - gm) - linear_part)
        else:
            linear_part = np.fft.ifft((-self._inv_m + self._inv_p) * q_hat)
            regularized = 8.0 * kap**4 * ((gp + gm) - linear_part)
        return full - regularized if flavor == "diff" else regularized

    def step(self, q_hat):
        return np.fft.fft(self.grid_step(np.fft.ifft(q_hat)))

    def grid_step(self, q):
        h, mu = self.spec.dt, self._linear_symbol(self.grid.xi)
        if self.spec.scheme == "splitting4":
            for tau in (_YOSHIDA_W1 * h, _YOSHIDA_W0 * h, _YOSHIDA_W1 * h):
                half = np.exp(mu * (0.5 * tau))
                q = np.fft.ifft(half * np.fft.fft(q))
                q = q * np.exp(-2j * tau * (q * (self.sign * np.conj(q))).real)
                q = np.fft.ifft(half * np.fft.fft(q))
            return q
        eh, e2 = np.exp(mu * h), np.exp(mu * (0.5 * h))

        def field(v):
            return np.fft.fft(self.grid_field(v))

        fq = np.fft.fft(q)
        n1 = field(q)
        n2 = field(np.fft.ifft(e2 * (fq + 0.5 * h * n1)))
        n3 = field(np.fft.ifft(e2 * fq + 0.5 * h * n2))
        n4 = field(np.fft.ifft(eh * fq + h * e2 * n3))
        return np.fft.ifft(eh * fq + (h / 6.0) * (eh * n1 + 2.0 * e2 * (n2 + n3) + n4))


@pytest.fixture()
def fft_lengths(monkeypatch):
    """Counts of numpy.fft.fft and ifft calls by transform length."""
    seen = Counter()

    def counted(transform):
        def wrapper(a, *args, **kwargs):
            seen[np.shape(a)[-1]] += 1
            return transform(a, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    return seen


COEFFICIENT_STEPS = ([(kind, "rk4_spectral") for kind in ("nls", "mkdv") + REGULARIZED_KINDS]
                     + [("nls", "splitting4")])


class TestCoefficientStages:
    """Steps carry raw coefficients, from evolve's one forward transform to
    each snapshot's inverse transform."""

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("kind,scheme", COEFFICIENT_STEPS)
    def test_matches_grid_value_stages_over_50_steps(self, grid, kind, scheme, sign):
        f = random_schwartz(grid, np.random.default_rng(0), norm=0.1, sign=sign)
        kappa = 8.0 if kind in REGULARIZED_KINDS else None
        spec = FlowSpec(kind, 1e-3, 0.05, scheme=scheme, kappa=kappa,
                        snapshot_stride=50)
        reference = GridValueIntegrator(grid, sign, spec)
        q_hat = np.fft.fft(f.values)
        for _ in range(50):
            q_hat = reference.step(q_hat)
        assert rel_l2(grid, evolve(f, spec).states[-1], np.fft.ifft(q_hat)) <= 1e-12

    @pytest.mark.parametrize("kind,scheme,counts", [
        ("mkdv", "rk4_spectral", {512: 12}),
        ("nls", "rk4_spectral", {512: 8}),
        ("nls", "splitting4", {256: 6}),
    ])
    def test_transforms_per_step(self, fft_lengths, grid, small_gaussian, kind, scheme,
                                 counts):
        # numpy.fft calls by length in one step: none at N around the
        # stages, one cubic product on 2N points per Lawson stage, and two
        # at N per splitting substep for its pointwise phase
        stepper = Integrator(grid, 1, FlowSpec(kind, 1e-3, 1e-3, scheme=scheme))
        q_hat = np.fft.fft(small_gaussian.values)
        fft_lengths.clear()
        stepper.step(q_hat)
        assert dict(fft_lengths) == counts

    def test_generating_flow_step_transforms_only_in_its_solves(self, fft_lengths, grid,
                                                                small_gaussian):
        f = small_gaussian
        stepper = Integrator(grid, 1, FlowSpec("a_flow", 1e-3, 1e-3, kappa=2.0))
        state = np.fft.fft(np.stack((f.values, f.r)))
        fft_lengths.clear()
        stepper.step(state)
        assert set(fft_lengths) == {3 * grid.points // 2}
        assert stepper.chain.solves == 4

    @pytest.mark.parametrize("kind,kappa", [("nls", None), ("mkdv", None), ("a_flow", 2.0)])
    def test_evolve_is_the_only_grid_boundary(self, monkeypatch, fft_lengths, grid,
                                              small_gaussian, kind, kappa):
        # one forward transform of the initial state and one inverse transform
        # per later snapshot; every other length-N transform is in a step
        n, step, in_steps = grid.points, Integrator.step, []

        def counted_step(self, state):
            before = fft_lengths[n]
            out = step(self, state)
            in_steps.append(fft_lengths[n] - before)
            return out

        monkeypatch.setattr(Integrator, "step", counted_step)
        spec = FlowSpec(kind, 1e-3, 5e-3, kappa=kappa, snapshot_stride=2)
        fft_lengths.clear()
        evolve(small_gaussian, spec)
        assert len(in_steps) == spec.steps == 5 and spec.snapshots == 4
        assert fft_lengths[n] - sum(in_steps) == 1 + (spec.snapshots - 1)
