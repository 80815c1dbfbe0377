"""Trajectory measurements: residuals, smoothing, tightness, sweeps,
and the norm-inflation experiment."""

import math
import tracemalloc

import numpy as np
import pytest

from aknslab.diagnostics import (
    DiagnosticsError,
    DiagnosticsSpecError,
    _simpson,
    conserved_drift,
    h_lattice,
    kappa_convergence_study,
    local_smoothing_norm,
    log_lambda_fit,
    micro_centres,
    micro_residual,
    norm_inflation_experiment,
    residual_refinement,
    scale_family_norm_sq,
    scale_family_norm_sq_callable,
    tightness_metric,
    tightness_profile,
)
from aknslab.flows import FlowSpec, SpecError, Trajectory, evolve
from aknslab.hierarchy import current, density
from aknslab.lax import GreensTriple, KappaError, fixed_point_raw
from aknslab.profiles import gaussian, mean_zero_even, plane_wave
from aknslab.spectral import Field, Grid, bump, sobolev_norm

from scipy.integrate import simpson

from conftest import l2


def hand_triples(traj, param, tol, start=0):
    """Triples along the snapshots from ``start`` on, each solve warm-started
    by hand from the previous gamma: the reference for the solve chains."""
    out, warm = [], None
    for i in range(start, len(traj)):
        f = traj.field(i)
        hats = fixed_point_raw(traj.grid, np.fft.fft(f.values), np.fft.fft(f.r),
                               param, tol=tol, gamma0=warm)[:3]
        warm = hats[2]
        out.append(GreensTriple(param, *(np.fft.ifft(h) for h in hats), "fixed_point"))
    return out


def frozen_trajectory(grid, field, n=11, dt=0.01):
    times = [dt * i for i in range(n)]
    return Trajectory(FlowSpec("nls", dt, dt * (n - 1)), grid, field.sign,
                      times, [field.values.copy() for _ in times])


class TestSimpson:
    @pytest.mark.parametrize("uniform", [True, False])
    def test_bitwise_scipy(self, uniform):
        # every count up to 60, odd and even, at uniform steps i*dt and at
        # random increasing times
        rng = np.random.default_rng(28)
        for n in range(2, 61):
            for _ in range(20):
                dt = rng.uniform(1e-4, 0.1)
                times = (np.arange(n) * dt if uniform
                         else np.cumsum(rng.uniform(1e-3, 1.0, n)))
                y = rng.standard_normal(n)
                assert _simpson(y, times) == simpson(y, x=times), (n, times, y)


class TestConservedDrift:
    def test_frozen_trajectory_has_zero_drift(self, grid, small_gaussian):
        traj = frozen_trajectory(grid, small_gaussian)
        report = conserved_drift(traj, kappas=(2.0,))
        assert all(v == 0.0 for v in report.relative_drift.values())

    def test_full_flow_drift_small(self, grid, small_gaussian):
        traj = evolve(small_gaussian, FlowSpec("nls", 1e-3, 0.1, snapshot_stride=50))
        report = conserved_drift(traj, kappas=(1.0, 2.0))
        assert max(report.relative_drift.values()) < 1e-8


class TestMicroResidual:
    def test_zero_trajectory(self, grid):
        zero = Field(grid, np.zeros(grid.points))
        traj = evolve(zero, FlowSpec("nls", 1e-3, 0.01))
        rep = micro_residual(traj, 2.0, "nls")
        assert rep.pointwise_l1 == 0.0
        assert all(gap == 0.0 for _, _, _, gap, _ in rep.integrated)

    @pytest.mark.parametrize("kind, kappa, flavor, varkappa, match", [
        ("nls", None, "nls", 0.5, "kappa"),
        ("a_flow", 4.0, "a_flow", 4.0, "pole"),
        ("nls_diff", 8.0, "nls_diff", 8.0, "pole"),
        ("mkdv_diff", 8.0, "mkdv_diff", -8.0, "pole")])
    def test_varkappa_checked_before_any_flow(self, grid, kind, kappa, flavor, varkappa,
                                              match):
        # |varkappa| >= 1, away from the generating current's pole at +-kappa
        spec = FlowSpec(kind, 1e-3, 0.01, kappa=kappa)
        with pytest.raises((KappaError, DiagnosticsSpecError), match=match):
            micro_centres(spec, grid, flavor, varkappa, 9)
        # a negative varkappa is a valid parameter
        assert len(micro_centres(FlowSpec("nls", 1e-3, 0.01), grid, "nls", -2.0, 9)) == 9

    def test_flavor_flow_mismatch(self, grid, small_gaussian):
        traj = evolve(small_gaussian, FlowSpec("nls", 1e-3, 0.01))
        with pytest.raises(DiagnosticsError, match="pairs with"):
            micro_residual(traj, 2.0, "mkdv")

    def test_pointwise_residual_small_and_refining(self, grid):
        f = gaussian(grid, 0.1)
        reps = residual_refinement(f, 2.0, "mkdv", (4e-3, 2e-3, 1e-3), window=0.08)
        assert reps[-1].pointwise_l1 <= 1e-6
        assert reps[0].pointwise_l1 / reps[1].pointwise_l1 >= 8.0

    def test_integrated_identity_two_sided(self, grid):
        f = gaussian(grid, 0.1)
        traj = evolve(f, FlowSpec("nls", 1e-3, 0.02, fp_tol=1e-13))
        rep = micro_residual(traj, 2.0, "nls")
        # both sides agree at every cutoff centre, including h = 0
        assert rep.max_rel_gap() <= 1e-6
        h_zero = [row for row in rep.integrated if row[0] == 0.0]
        assert h_zero and h_zero[0][4] <= 1e-6

    @pytest.mark.parametrize("flavor,kind,kappa", [
        ("a_flow", "a_flow", 8.0),
        ("nls_diff", "nls_diff", 8.0),
        ("mkdv_diff", "mkdv_diff", 8.0),
        ("tilde_mkdv", "mkdv", None),
    ])
    def test_other_flavors_conserve(self, grid, flavor, kind, kappa):
        f = gaussian(grid, 0.1)
        traj = evolve(f, FlowSpec(kind, 1e-3, 0.02, kappa=kappa, fp_tol=1e-13))
        rep = micro_residual(traj, 2.0, flavor)
        assert rep.pointwise_l1 <= 1e-5
        assert rep.max_rel_gap() <= 1e-5

    @pytest.mark.parametrize("flavor,kind,kappa", [
        ("nls", "nls", None),
        ("a_flow", "a_flow", 8.0),
        ("mkdv_diff", "mkdv_diff", 8.0),
    ])
    def test_samples_match_hand_warm_started_solves(self, grid, flavor, kind, kappa):
        traj = evolve(gaussian(grid, 0.1), FlowSpec(kind, 2e-3, 0.01, kappa=kappa))
        rep = micro_residual(traj, 2.0, flavor)
        vk = hand_triples(traj, 2.0, 1e-13)
        if flavor == "nls":
            extra = [()] * len(traj)
        elif flavor == "a_flow":
            extra = [(t,) for t in hand_triples(traj, kappa, 1e-13)]
        else:
            extra = list(zip(hand_triples(traj, kappa, 1e-13),
                             hand_triples(traj, -kappa, 1e-13)))
        for i in range(len(traj)):
            f = traj.field(i)
            assert np.array_equal(rep.densities[i], density(f, vk[i]))
            assert np.array_equal(rep.currents[i], current(f, flavor, vk[i], extra[i]))

    @pytest.mark.parametrize("flavor,kind,kappa", [
        ("a_flow", "a_flow", 8.0),
        ("nls", "nls", None),
        ("mkdv_diff", "mkdv_diff", 8.0),
        ("tilde_mkdv", "mkdv", None),
    ])
    def test_memory_grows_by_two_arrays_per_snapshot(self, grid, flavor, kind, kappa):
        # one triple at a time: each extra snapshot keeps only its density and
        # current, 2 N complex128, not its triples
        f = gaussian(grid, 0.1)
        trajs = [evolve(f, FlowSpec(kind, 1e-3, t_final, kappa=kappa))
                 for t_final in (0.02, 0.06)]
        micro_residual(trajs[0], 2.0, flavor)  # fills the symbol caches
        peaks = []
        tracemalloc.start()
        try:
            for traj in trajs:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                micro_residual(traj, 2.0, flavor)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        extra = len(trajs[1]) - len(trajs[0])
        assert (peaks[1] - peaks[0]) / (extra * grid.points * 16) <= 2.5


class TestLocalSmoothing:
    def test_zero_trajectory(self, grid):
        traj = frozen_trajectory(grid, Field(grid, np.zeros(grid.points)))
        rep = local_smoothing_norm(traj, -0.25)
        assert rep.value == 0.0 and rep.value_kappa == 0.0

    def test_kappa_below_one_is_a_usage_error(self, grid, small_gaussian):
        traj = frozen_trajectory(grid, small_gaussian)
        with pytest.raises(DiagnosticsSpecError, match="kappa >= 1"):
            local_smoothing_norm(traj, -0.25, kappa=0.5)

    def test_frozen_field_value(self, grid, small_gaussian):
        traj = frozen_trajectory(grid, small_gaussian)
        rep = local_smoothing_norm(traj, -0.25, kappa=2.0, h_count=9)
        sup = max(sobolev_norm(Field(grid, bump(grid.x - h) ** 6 * small_gaussian.values),
                               -0.25) ** 2
                  for h in np.linspace(-16.0, 16.0, 9))
        assert abs(rep.value - rep.window * sup) <= 1e-12 * rep.value

    def test_matches_snapshot_loop(self, grid, small_gaussian):
        # the per-snapshot loop the whole-trajectory transform replaced
        traj = evolve(small_gaussian, FlowSpec("nls", 1e-3, 0.05, snapshot_stride=5))
        rep = local_smoothing_norm(traj, -0.25, kappa=2.0, h_count=5)
        xi = grid.xi
        weights = ((4.0 + xi * xi) ** -0.25,
                   (4.0 + xi * xi) ** 0.75 / (4.0 * 2.0 * 2.0 + xi * xi))
        best = [0.0, 0.0]
        for h in h_lattice(grid, 5):
            psi6 = bump(grid.x - h) ** 6
            for k, w in enumerate(weights):
                series = np.empty(len(traj))
                for i in range(len(traj)):
                    coeffs = np.fft.fft(psi6 * traj.states[i])
                    mags = np.abs((grid.dx / math.sqrt(2 * math.pi)) * coeffs) ** 2
                    series[i] = grid.dxi * float(np.sum(w * mags))
                best[k] = max(best[k], float(simpson(series, x=np.asarray(traj.times))))
        assert (rep.value, rep.value_kappa) == tuple(best)

    def test_translation_robustness(self, grid, small_gaussian):
        spec = FlowSpec("nls", 1e-3, 0.1, snapshot_stride=10)
        base = local_smoothing_norm(evolve(small_gaussian, spec), -0.25).value
        shifted_values = np.fft.ifft(np.exp(-1j * grid.xi * grid.dx)
                                     * np.fft.fft(small_gaussian.values))
        shifted = local_smoothing_norm(
            evolve(Field(grid, shifted_values), spec), -0.25).value
        assert abs(base - shifted) <= 0.02 * base

    def test_bounded_by_data_size_with_stable_constant(self, grid):
        spec = FlowSpec("nls", 1e-3, 0.1, snapshot_stride=10)
        cs = []
        for amp in (0.1, 0.05):
            f = gaussian(grid, amp)
            value = local_smoothing_norm(evolve(f, spec), -0.25 + 0.5).value
            cs.append(math.sqrt(value) / sobolev_norm(f, -0.25))
        assert 0.5 <= cs[0] / cs[1] <= 2.0


class TestEquicontinuityAndTightness:
    def test_zero(self, grid):
        zero = Field(grid, np.zeros(grid.points))
        assert sobolev_norm(zero, -0.5, 4.0) == 0.0
        assert tightness_metric(zero, 8.0, -0.5) == 0.0

    def test_single_mode_tail_value(self, grid):
        f = plane_wave(grid, 1.0, 0.0)
        f = Field(grid, f.values / f.l2_norm())
        assert abs(sobolev_norm(f, -0.5, 4.0) ** 2 - 1.0 / 8.0) < 1e-12

    def test_tail_decreases_in_kappa(self, grid, small_gaussian):
        tails = [sobolev_norm(small_gaussian, -0.5, k) for k in (1.0, 4.0, 16.0)]
        assert tails[0] > tails[1] > tails[2]

    def test_tail_bounded_along_flow(self, grid, small_gaussian):
        traj = evolve(small_gaussian, FlowSpec("nls", 1e-3, 0.5, snapshot_stride=100))
        tails = [sobolev_norm(traj.field(i), -0.25, 16.0)
                 for i in range(len(traj))]
        assert max(tails) <= 4.0 * tails[0]

    def test_profile_supports(self, grid):
        phi = tightness_profile(grid.x, 4.0)
        assert np.all(phi[np.abs(grid.x) <= 4.0] == 0.0)
        assert np.all(phi[np.abs(grid.x) >= 12.0] == 1.0)
        assert np.all((phi >= 0.0) & (phi <= 1.0))

    def test_compact_support_inside_radius(self, grid):
        supported = Field(grid, np.where(np.abs(grid.x) <= 6.0, 1.0, 0.0)
                          * np.exp(-grid.x**2))
        assert tightness_metric(supported, 8.0, -0.25) <= 1e-10

    def test_radius_exceeding_half_box(self, grid, small_gaussian):
        with pytest.raises(DiagnosticsError):
            tightness_metric(small_gaussian, 33.0, -0.5)

    def test_metric_stable_along_flow(self):
        # wide data so the far field is resolvable; unit-time NLS evolution
        g = Grid(256.0, 512)
        f = gaussian(g, 0.05, width=8.0)
        traj = evolve(f, FlowSpec("nls", 1e-3, 1.0, snapshot_stride=200))
        vals = [tightness_metric(traj.field(i), 32.0, -0.25)
                for i in range(len(traj))]
        assert vals[0] > 1e-14  # resolvable baseline
        assert max(vals) <= 4.0 * vals[0]


class TestKappaConvergence:
    def test_zero_data(self, grid):
        zero = Field(grid, np.zeros(grid.points))
        rows = kappa_convergence_study(zero, "nls", 4.0, (8.0,), 0.02, dt=2e-3)
        assert rows[0][1] == 0.0

    def test_zero_time(self, grid, small_gaussian):
        # no snapshot past q0, so nothing to solve and no defect
        rows = kappa_convergence_study(small_gaussian, "nls", 4.0, (8.0, 16.0), 0.0)
        assert rows == [(8.0, 0.0), (16.0, 0.0)]

    @pytest.mark.parametrize("star", ["nls", "mkdv"])
    def test_monotone_in_kappa(self, grid, star):
        f = gaussian(grid, 0.1)
        rows = kappa_convergence_study(f, star, 4.0, (8.0, 16.0, 32.0), 0.1,
                                       dt=2e-3, snapshot_stride=10)
        defects = [d for _, d in rows]
        assert defects[0] > defects[1] > defects[2]

    def test_linear_in_small_time(self, grid):
        f = gaussian(grid, 0.1)
        d1 = kappa_convergence_study(f, "nls", 4.0, (8.0,), 0.04, dt=2e-3,
                                     snapshot_stride=5)[0][1]
        d2 = kappa_convergence_study(f, "nls", 4.0, (8.0,), 0.02, dt=2e-3,
                                     snapshot_stride=5)[0][1]
        assert 1.5 <= d1 / d2 <= 3.0

    def test_rows_match_hand_warm_started_solves(self, grid):
        f = gaussian(grid, 0.1)
        rows = kappa_convergence_study(f, "mkdv", 4.0, (8.0, 16.0), 0.02, dt=2e-3,
                                       snapshot_stride=2)
        g12_ref = np.fft.ifft(fixed_point_raw(grid, np.fft.fft(f.values), np.fft.fft(f.r),
                                              4.0, tol=1e-12)[0])
        psis = [bump(grid.x - h) ** 12 for h in h_lattice(grid, 9)]
        for kappa, defect in rows:
            traj = evolve(f, FlowSpec("mkdv_diff", 2e-3, 0.02, kappa=kappa,
                                      snapshot_stride=2))
            # the chain starts cold at snapshot 1, where q has moved off q0
            want = max(sobolev_norm(Field(grid, psi * (t.g12 - g12_ref)), 0.75)
                       for t in hand_triples(traj, 4.0, 1e-12, start=1) for psi in psis)
            assert defect == want

    def test_parameter_gates(self, grid, small_gaussian):
        with pytest.raises(DiagnosticsError):
            kappa_convergence_study(small_gaussian, "nls", 2.0, (8.0,), 0.02)
        with pytest.raises(DiagnosticsError):
            kappa_convergence_study(small_gaussian, "nls", 4.0, (6.0,), 0.02)

    def test_empty_kappa_list_rejected(self, small_gaussian):
        with pytest.raises(DiagnosticsError, match="at least one kappa"):
            kappa_convergence_study(small_gaussian, "nls", 4.0, (), 0.02)

    def test_every_kappa_checked_before_any_flow(self, monkeypatch, small_gaussian):
        calls = []
        monkeypatch.setattr("aknslab.diagnostics.evolve",
                            lambda *args, **kw: calls.append(args) or evolve(*args, **kw))
        with pytest.raises(DiagnosticsError, match="kappa=4.0"):
            kappa_convergence_study(small_gaussian, "nls", 4.0, (8.0, 4.0), 0.02)
        assert calls == []

    def test_cutoff_count_checked_before_any_flow(self, monkeypatch, small_gaussian):
        # a usage error: a DiagnosticsError that is also a flow SpecError
        monkeypatch.setattr("aknslab.diagnostics.evolve", None)
        assert issubclass(DiagnosticsSpecError, SpecError)
        with pytest.raises(DiagnosticsSpecError, match="cutoff count"):
            kappa_convergence_study(small_gaussian, "nls", 4.0, (8.0,), 0.02, h_count=0)


class TestInflation:
    def test_zero_amplitude_flat_report(self):
        rep = norm_inflation_experiment("even", 0.0, (8.0, 64.0), -0.5,
                                        window=0.05, dt=1e-3, snapshot_stride=10)
        assert not rep.t1_found
        assert all(v == 1.0 for v in rep.growth_ratio.values())

    def test_even_flow_mean_production(self):
        rep = norm_inflation_experiment("even", 0.3, (8.0, 64.0, 512.0), -0.5,
                                        window=1.0, dt=1e-3, snapshot_stride=25)
        assert rep.t1_found and rep.t1 <= 1.0
        assert rep.predicted_imag_sign == -1
        assert rep.production_rate.imag < 0.0
        idx = rep.times.index(rep.t1)
        assert math.copysign(1.0, rep.mean_series[idx].imag) == rep.predicted_imag_sign
        # mean-zero seed: bounded lambda family; evolved: clean log fit
        assert rep.initial_band <= 2.0
        c, d, res = rep.evolved_log_fit
        assert res <= 0.10 and c > 0.0

    def test_odd_flow_mean_production(self):
        rep = norm_inflation_experiment("odd", 0.3, (8.0,), -0.5,
                                        window=1.0, dt=1e-3, snapshot_stride=25)
        assert rep.t1_found and rep.t1 <= 1.0
        assert abs(rep.production_rate.imag) > 0.0

    def test_focusing_flips_production_sign(self):
        rep = norm_inflation_experiment("even", 0.3, (8.0,), -0.5, sign=-1,
                                        window=0.05, dt=1e-3, snapshot_stride=10)
        assert rep.predicted_imag_sign == +1
        assert rep.production_rate.imag > 0.0

    def test_seed_means_vanish(self, grid):
        for build in (mean_zero_even,):
            u0 = build(grid, 0.3)
            assert abs(grid.integrate(u0.values)) <= 1e-12

    def test_sigma_gate(self):
        with pytest.raises(DiagnosticsError):
            norm_inflation_experiment("even", 0.1, (8.0,), -0.25)

    def test_superposition_error_measured(self):
        rep = norm_inflation_experiment("even", 0.3, (8.0,), -0.5, bumps=3,
                                        separation=48.0, window=0.1, dt=1e-3,
                                        snapshot_stride=25)
        errs = rep.superposition_error
        assert errs is not None and errs[0] == 0.0
        assert max(errs) < 1e-10  # far-separated bumps barely interact

    def test_overlap_gate(self):
        with pytest.raises(DiagnosticsError, match="overlap"):
            norm_inflation_experiment("even", 0.3, (8.0,), -0.5, bumps=2,
                                      separation=2.0, window=0.01, dt=1e-3,
                                      snapshot_stride=5)

    def test_overlap_checked_before_any_flow(self, monkeypatch):
        monkeypatch.setattr("aknslab.diagnostics.evolve", None)
        with pytest.raises(DiagnosticsSpecError, match="overlap"):
            norm_inflation_experiment("even", 0.3, (8.0,), -0.5, bumps=2,
                                      separation=2.0, window=0.01, dt=1e-3,
                                      snapshot_stride=5)


class TestScalingFamilies:
    def test_log_divergence_of_nonzero_mean(self):
        lams = np.array([8.0, 64.0, 512.0])
        vals = np.array([scale_family_norm_sq_callable(
            lambda e: np.exp(-e * e), lam, -0.5) for lam in lams])
        c, d, res = log_lambda_fit(lams, vals)
        assert res <= 0.10
        assert c > 0.5  # genuine logarithmic growth

    def test_mean_zero_bounded(self):
        lams = np.array([8.0, 64.0, 512.0])
        vals = np.array([scale_family_norm_sq_callable(
            lambda e: e * np.exp(-e * e), lam, -0.5) for lam in lams])
        assert max(vals) / min(vals) <= 2.0

    def test_grid_spectrum_matches_callable(self, grid):
        f = gaussian(grid, 1.0)
        for lam in (8.0, 64.0):
            a = scale_family_norm_sq(f, lam, -0.5)
            b = scale_family_norm_sq_callable(
                lambda e: np.exp(-e * e / 4.0) / math.sqrt(2.0), lam, -0.5)
            assert abs(a - b) <= 1e-6 * b

    def test_supercritical_rescaled_bump_matches_direct_norm(self, grid):
        # the bookkeeping agrees with the norm of lam q(lam x) taken directly
        # on the box of length L/lam, where q's coefficients land exactly
        f = gaussian(grid, 0.1)
        lam = 2.0
        book = math.sqrt(scale_family_norm_sq(f, lam, -0.5))
        direct_field = Field(Grid(grid.length / lam, grid.points), lam * f.values, f.sign)
        direct = sobolev_norm(direct_field, -0.5)
        assert abs(book - direct) <= 1e-6 * direct
