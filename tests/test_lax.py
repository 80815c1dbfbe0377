"""Green's triples by three routes, and the determinant by two."""

import math

import numpy as np
import pytest

from aknslab.lax import (
    DataTooLarge,
    DivergentSeries,
    GreensTriple,
    LaxError,
    NonContraction,
    alpha,
    density_raw,
    fixed_point_raw,
    greens_fixed_point,
    greens_oracle,
    greens_series,
    operator_pair,
    pdet_integral,
    pdet_trace,
    triple_at_minus_kappa,
)
from aknslab.profiles import constant, gaussian, plane_wave, random_schwartz
from aknslab.spectral import (
    Field,
    Grid,
    apply_multiplier,
    dealiased_mul,
    diff,
    inverse_shift_symbol,
    sobolev_norm,
)

from conftest import l2, rel_l2


def fixed(f, kappa, **kw):
    kw.setdefault("tol", 1e-13)
    return greens_fixed_point(f, kappa, **kw)


class TestOracle:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        tr = greens_oracle(f, 2.0)
        assert l2(grid, tr.g12) == 0.0
        assert l2(grid, tr.gamma) == 0.0

    def test_matches_fixed_point(self, grid):
        f = gaussian(grid, 0.1)
        a = greens_oracle(f, 2.0)
        b = fixed(f, 2.0)
        assert rel_l2(grid, a.g12, b.g12) < 1e-8
        assert rel_l2(grid, a.g21, b.g21) < 1e-8
        assert rel_l2(grid, a.gamma, b.gamma) < 1e-8
        assert a.meta["cond"] < 1e3

    def test_single_mode_gamma_value(self, grid):
        # constant data: gamma ~ -2|a|^2/(4 kappa^2) up to O(a^4)
        f = constant(grid, 0.1)
        tr = greens_oracle(f, 1.0)
        assert np.max(np.abs(tr.gamma - (-0.005))) < 5e-5
        spread = np.max(np.abs(tr.gamma - tr.gamma[0]))
        assert spread < 1e-10

    def test_size_cap_and_domain_gate(self):
        big = Grid(64.0, 2048)
        f = gaussian(big, 0.1)
        with pytest.raises(LaxError, match="capped"):
            greens_oracle(f, 2.0)
        small_box = Grid(16.0, 128)
        with pytest.raises(LaxError, match="periodization"):
            greens_oracle(gaussian(small_box, 0.1), 1.0)

    def test_kappa_gate(self, grid, small_gaussian):
        with pytest.raises(LaxError):
            greens_oracle(small_gaussian, 0.5)


class TestSeries:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        tr = greens_series(f, 2.0, 3)
        assert l2(grid, tr.g12) == 0.0

    def test_first_order_single_mode(self):
        g = Grid(8 * np.pi, 256)
        a, xi0, kappa = 0.1, 1.0, 2.0
        f = plane_wave(g, a, xi0)
        tr = greens_series(f, kappa, 1)
        expected = -f.values / (2 * kappa - 1j * xi0)
        assert np.max(np.abs(tr.g12 - expected)) < 1e-13

    def test_third_order_error_scales_as_fifth_power(self, grid):
        errs = []
        for amp in (0.1, 0.05):
            f = gaussian(grid, amp)
            s = greens_series(f, 2.0, 3)
            o = greens_oracle(f, 2.0)
            errs.append(l2(grid, s.g12 - o.g12))
        ratio = errs[0] / errs[1]
        assert 16.0 <= ratio <= 64.0  # 2^5 within a factor of two

    def test_order_validation(self, grid, small_gaussian):
        with pytest.raises(LaxError):
            greens_series(small_gaussian, 2.0, 2)


class TestFixedPoint:
    def test_zero_field_converges_immediately(self, grid):
        f = Field(grid, np.zeros(grid.points))
        tr = fixed(f, 2.0)
        assert tr.meta["iterations"] == 1
        assert l2(grid, tr.gamma) == 0.0

    def test_agrees_with_oracle(self, grid):
        f = gaussian(grid, 0.1)
        a = fixed(f, 2.0)
        b = greens_oracle(f, 2.0)
        assert rel_l2(grid, a.g12, b.g12) < 1e-8

    def test_derivative_identities(self, grid):
        f = gaussian(grid, 0.1)
        for kappa in (1.0, 2.0, -2.0):
            tr = fixed(f, kappa)
            q, r = f.values, f.r
            res12 = diff(tr.g12, grid) - 2 * kappa * tr.g12 - q * (tr.gamma + 1.0)
            res21 = diff(tr.g21, grid) + 2 * kappa * tr.g21 - r * (tr.gamma + 1.0)
            resg = diff(tr.gamma, grid) - 2.0 * (q * tr.g21 + r * tr.g12)
            for res in (res12, res21, resg):
                assert l2(grid, res) <= 1e-8 * f.l2_norm()

    def test_quadratic_identity(self, grid):
        f = gaussian(grid, 0.1)
        tr = fixed(f, 2.0)
        assert tr.quadratic_residual(grid) <= 10 * 1e-13

    def test_conjugation_symmetry(self, grid):
        for sign in (+1, -1):
            f = gaussian(grid, 0.1, sign=sign)
            plus = fixed(f, 2.0)
            direct = fixed(f, -2.0)
            image = triple_at_minus_kappa(f, plus)
            assert l2(grid, direct.g12 - image.g12) < 1e-10
            assert l2(grid, direct.g21 - image.g21) < 1e-10
            assert l2(grid, direct.gamma - image.gamma) < 1e-10

    def test_small_data_gate(self, grid):
        with pytest.raises(DataTooLarge):
            greens_fixed_point(gaussian(grid, 0.5), 2.0)

    def test_non_contraction_error(self, grid):
        with pytest.raises(NonContraction):
            greens_fixed_point(gaussian(grid, 3.0), 1.0, delta=99.0, max_iter=400)

    def test_kappa_below_one_rejected(self, grid, small_gaussian):
        with pytest.raises(LaxError):
            greens_fixed_point(small_gaussian, 0.9)


def reference_fixed_point(grid, q, r, kappa, tol=1e-12, max_iter=200, gamma0=None):
    """The physical-space fixed point built from dealiased_mul and
    apply_multiplier: the reference the Fourier-resident kernel must match."""
    inv_m = inverse_shift_symbol(2.0 * kappa, -1)(grid.xi)
    inv_p = inverse_shift_symbol(2.0 * kappa, +1)(grid.xi)
    gamma = np.zeros_like(q) if gamma0 is None else gamma0.astype(np.complex128)
    damping = 1.0
    prev_res = np.inf
    growths = 0
    for it in range(1, max_iter + 1):
        g12 = -apply_multiplier(q + dealiased_mul(gamma, q), inv_m, grid)
        g21 = apply_multiplier(r + dealiased_mul(gamma, r), inv_p, grid)
        update = (2.0 * dealiased_mul(g12, g21)
                  - 0.5 * dealiased_mul(gamma, gamma))
        diff_ = update - gamma
        res = math.sqrt(grid.dx * float(np.sum(np.abs(diff_) ** 2)))
        gamma = gamma + damping * diff_
        if res < tol:
            g12 = -apply_multiplier(q + dealiased_mul(gamma, q), inv_m, grid)
            g21 = apply_multiplier(r + dealiased_mul(gamma, r), inv_p, grid)
            return g12, g21, gamma, it, res
        if res >= prev_res:
            growths += 1
            damping = 0.5
            if growths >= 3:
                raise NonContraction("reference diverging")
        else:
            growths = 0
        prev_res = res
    raise NonContraction("reference did not converge")


class TestFixedPointKernel:
    """fixed_point_raw against the physical-space reference loop."""

    @pytest.mark.parametrize("points", [64, 256, 1024])
    @pytest.mark.parametrize("kappa", [1.0, -1.0, 4.0, -4.0, 16.0])
    def test_matches_reference(self, points, kappa):
        grid = Grid(64.0, points)
        rng = np.random.default_rng(points)
        # a Gaussian is under-resolved at N=64, so the top modes take part
        q = gaussian(grid, 0.1).values * np.exp(0.5j * grid.x)
        partners = {"slaved": np.conj(q),
                    "independent": random_schwartz(grid, rng, sign=-1).values}
        for name, r in partners.items():
            cold = reference_fixed_point(grid, q, r, kappa)
            # warm start from the triple of nearby data, as a flow step does
            q1, r1 = 1.01 * q, 0.99 * r
            cases = {"cold": ((q, r, None), cold),
                     "warm": ((q1, r1, cold[2]),
                              reference_fixed_point(grid, q1, r1, kappa, gamma0=cold[2]))}
            for start, ((qq, rr, gamma0), want) in cases.items():
                got = fixed_point_raw(grid, qq, rr, kappa, gamma0=gamma0)
                assert got[3] == want[3], (name, start)
                for k in range(3):
                    err = np.linalg.norm(got[k] - want[k]) / np.linalg.norm(want[k])
                    assert err <= 1e-13, (name, start, k, err)

    def test_non_contraction_still_raised(self, grid):
        f = gaussian(grid, 3.0)
        for solve in (reference_fixed_point, fixed_point_raw):
            with pytest.raises(NonContraction):
                solve(grid, f.values, f.r, 1.0, max_iter=400)


class TestDeterminant:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        tr = fixed(f, 2.0)
        assert pdet_integral(f, 2.0, tr) == 0.0
        assert pdet_trace(f, 2.0, 4).value == 0.0

    def test_constant_field_closed_form(self, grid):
        # constant data solves the scalar quadratic exactly
        amp, kappa = 0.1, 8.0
        f = constant(grid, amp)
        tr = fixed(f, kappa, delta=1.0)
        c = amp**2 / (2 * kappa**2)
        gamma_exact = -(1 + 2 * c) + math.sqrt((1 + 2 * c) ** 2 - 2 * c)
        assert np.max(np.abs(tr.gamma - gamma_exact)) < 1e-12
        rho_exact = 2 * amp**2 * (1 + gamma_exact) / (2 * kappa * (2 + gamma_exact))
        det = pdet_integral(f, kappa, tr)
        assert abs(det - grid.length * rho_exact) < 1e-12
        # leading asymptotics M/(2 kappa) = 0.04
        assert abs(det - 0.04) < 2e-6

    def test_integral_vs_trace(self, grid):
        f = gaussian(grid, 0.1)
        for kappa in (1.0, 2.0, 4.0, 8.0):
            tr = fixed(f, kappa)
            det_i = pdet_integral(f, kappa, tr)
            det_t = pdet_trace(f, kappa, 8)
            assert abs(det_i - det_t.value) <= 1e-8

    def test_trace_term_decay(self, grid):
        f = gaussian(grid, 0.1)
        pair = operator_pair(f, 2.0)
        prod = pair.lam @ pair.gam
        radius = pdet_trace(f, 2.0, 2).spectral_radius
        traces = []
        power = np.eye(prod.shape[0], dtype=complex)
        for m in range(1, 8):
            power = power @ prod
            traces.append(abs(np.trace(power)) / m)
        for m in range(1, 7):
            assert traces[m] / traces[m - 1] <= radius * m / (m + 1) + 1e-12

    def test_dkappa_matches_gamma_integral(self, grid):
        f = gaussian(grid, 0.1)
        h = 1e-3
        tr = fixed(f, 2.0)
        plus = pdet_integral(f, 2.0 + h, fixed(f, 2.0 + h))
        minus = pdet_integral(f, 2.0 - h, fixed(f, 2.0 - h))
        fd = (plus - minus) / (2 * h)
        assert abs(fd - grid.integrate(tr.gamma)) < 1e-6

    def test_conjugation_symmetry_of_determinant(self, grid):
        f = gaussian(grid, 0.1)
        det_p = pdet_integral(f, 2.0, fixed(f, 2.0))
        det_m = pdet_integral(f, -2.0, fixed(f, -2.0))
        assert abs(det_p + np.conj(det_m)) < 1e-12

    def test_trace_divergence_error(self, grid):
        f = gaussian(grid, 3.0)
        with pytest.raises(DivergentSeries):
            pdet_trace(f, 1.0, 4)

    def test_density_denominator_guard(self, grid, small_gaussian):
        bad = GreensTriple(2.0, np.zeros(grid.points), np.zeros(grid.points),
                           np.full(grid.points, -1.8 + 0j), "synthetic")
        with pytest.raises(LaxError, match="denominator"):
            density_raw(small_gaussian.values, small_gaussian.r, bad)

    def test_mismatched_triple_rejected(self, grid, small_gaussian):
        tr = fixed(small_gaussian, 2.0)
        with pytest.raises(LaxError):
            pdet_integral(small_gaussian, 4.0, tr)


class TestAlpha:
    def test_zero(self, grid):
        assert alpha(Field(grid, np.zeros(grid.points)), 2.0) == 0.0

    def test_matches_half_difference(self, grid):
        f = gaussian(grid, 0.1)
        det_p = pdet_integral(f, 2.0, fixed(f, 2.0))
        det_m = pdet_integral(f, -2.0, fixed(f, -2.0))
        assert abs(alpha(f, 2.0) - ((det_p - det_m) / 2.0).real) < 1e-10

    def test_defocusing_coercivity(self, grid, rng):
        for _ in range(5):
            f = random_schwartz(grid, rng, norm=0.1, sign=+1)
            for kappa in (1.0, 2.0, 4.0):
                assert alpha(f, kappa) >= 0.0

    def test_method_cross_check(self, grid):
        f = gaussian(grid, 0.1)
        via_trace = f.sign * pdet_trace(f, 2.0, 10).value.real
        assert abs(alpha(f, 2.0) - via_trace) < 1e-8

    def test_kappa_gate(self, grid, small_gaussian):
        with pytest.raises(LaxError):
            alpha(small_gaussian, 0.5)


class TestOperatorPair:
    def test_hilbert_schmidt_norms_equal(self, grid, rng):
        for sign in (+1, -1):
            f = random_schwartz(grid, rng, norm=0.15, sign=sign)
            a, b = operator_pair(f, 2.0).hs_norms()
            assert abs(a - b) <= 1e-10 * max(a, b)

    def test_hs_scaling_constant_stable(self, grid):
        # ||Lambda||_HS <= C kappa^{-(s+1/2)} ||q||_{H^s_kappa}, C stable in kappa
        f = gaussian(grid, 0.1)
        s = -0.25
        cs = []
        for kappa in (1.0, 2.0, 4.0, 8.0, 16.0):
            hs = operator_pair(f, kappa).hs_norms()[0]
            cs.append(hs / (kappa ** -(s + 0.5) * sobolev_norm(f, s, kappa)))
        assert max(cs) / min(cs) < 2.0

    def test_gradient_check(self, grid, rng):
        # (A(q+ef) - A(q-ef))/(2e) matches the first-variation pairing at
        # O(e^2); kappa = 1 and a sizable perturbation keep the third
        # variation above the solver noise at e = 1e-4
        f = gaussian(grid, 0.18)
        tr = fixed(f, 1.0, tol=1e-14)
        pert = random_schwartz(grid, rng, norm=0.5)
        pairing = (grid.integrate(pert.values * tr.g21)
                   - f.sign * grid.integrate(np.conj(pert.values) * tr.g12))
        errs = []
        for eps in (1e-3, 1e-4):
            fp = Field(grid, f.values + eps * pert.values, f.sign)
            fm = Field(grid, f.values - eps * pert.values, f.sign)
            fd = (pdet_integral(fp, 1.0, fixed(fp, 1.0, tol=1e-14))
                  - pdet_integral(fm, 1.0, fixed(fm, 1.0, tol=1e-14))) / (2 * eps)
            errs.append(abs(fd - pairing))
        ratio = errs[0] / errs[1]
        assert 50.0 <= ratio <= 200.0
