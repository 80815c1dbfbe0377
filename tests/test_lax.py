"""Green's triples by three routes, and the determinant by two."""

import math
import warnings

import numpy as np
import pytest

from aknslab.lax import (
    DataTooLarge,
    DivergentSeries,
    FixedPointChain,
    GreensTriple,
    IllConditioned,
    LaxError,
    NonContraction,
    _power_radius,
    alpha,
    density_raw,
    fixed_point_raw,
    greens_fixed_point,
    greens_oracle,
    greens_series,
    operator_pair,
    pdet_integral,
    pdet_trace,
    series_raw,
    triple_at_minus_kappa,
)
from aknslab.profiles import constant, gaussian, plane_wave, random_schwartz
from aknslab.spectral import (
    Field,
    Grid,
    apply_multiplier,
    dealiased_mul,
    diff,
    fractional_symbol,
    inverse_shift_symbol,
    sobolev_norm,
)

from conftest import l2, rel_l2


def fixed(f, kappa, **kw):
    kw.setdefault("tol", 1e-13)
    return greens_fixed_point(f, kappa, **kw)


def dense_multiplier_matrix(grid, symbol):
    """The multiplier as a dense matrix: the transform of each unit vector."""
    m = np.asarray(symbol(grid.xi), dtype=np.complex128)
    eye = np.eye(grid.points, dtype=np.complex128)
    return np.fft.ifft(m[:, None] * np.fft.fft(eye, axis=0), axis=0)


def dense_reference_oracle(grid, q, r, kappa):
    """The oracle written with 2N x 2N products throughout: the tail
    -L^{-1} V L0^{-1} minus the first four resolvent terms, read on the block
    diagonals.  Returns (g12, g21, gamma, cond)."""
    n = grid.points
    k_minus = dense_multiplier_matrix(grid, lambda xi: kappa - 1j * xi)
    k_plus = dense_multiplier_matrix(grid, lambda xi: kappa + 1j * xi)
    lax = np.block([[k_minus, np.diag(q)], [-np.diag(r), k_plus]])
    zero = np.zeros((n, n), dtype=np.complex128)
    lax0_inv = np.block([
        [dense_multiplier_matrix(grid, inverse_shift_symbol(kappa, -1)), zero],
        [zero, dense_multiplier_matrix(grid, inverse_shift_symbol(kappa, +1))]])
    lax_inv = np.linalg.inv(lax)
    cond = np.linalg.norm(lax, 1) * np.linalg.norm(lax_inv, 1)
    pot = np.block([[zero, np.diag(q)], [-np.diag(r), zero]])
    tail = -(lax_inv @ (pot @ lax0_inv))
    step = pot @ lax0_inv
    acc = lax0_inv
    for order in range(1, 5):
        acc = acc @ step
        tail -= ((-1.0) ** order) * acc
    tail /= grid.dx
    sgn = 1.0 if kappa > 0 else -1.0
    s12, s21, sgam = series_raw(grid, q, r, kappa, 3)
    return (sgn * np.diagonal(tail[:n, n:]) + s12,
            sgn * np.diagonal(tail[n:, :n]) + s21,
            sgn * (np.diagonal(tail[:n, :n]) + np.diagonal(tail[n:, n:])) + sgam,
            float(cond))


class TestOracle:
    def test_matches_dense_reference(self):
        cases = [(points, kappa, sign, False) for points in (64, 128)
                 for kappa in (1.0, -2.0, 4.0) for sign in (+1, -1)]
        cases.append((128, -2.0, -1, True))
        for points, kappa, sign, independent in cases:
            grid = Grid(64.0, points)
            rng = np.random.default_rng(points)
            f = random_schwartz(grid, rng, norm=0.15, sign=sign)
            if independent:
                f = Field(grid, f.values, sign, random_schwartz(grid, rng, norm=0.15).values)
            got = greens_oracle(f, kappa)
            want = dense_reference_oracle(grid, f.values, f.r, kappa)
            case = (points, kappa, sign, independent)
            for k, part in enumerate(("g12", "g21", "gamma")):
                assert rel_l2(grid, getattr(got, part), want[k]) <= 1e-12, (case, part)
            assert abs(got.meta["cond"] - want[3]) <= 1e-12 * want[3], case
        zero = greens_oracle(Field(Grid(64.0, 64), np.zeros(64)), 4.0)
        for part in (zero.g12, zero.g21, zero.gamma):
            assert np.all(part == 0.0)

    def test_non_finite_triple_raises(self):
        # far past every gate the operator is well conditioned (cond ~ 1:
        # the potential dominates) but the subtracted series terms overflow
        f = constant(Grid(64.0, 64), 1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned, match="not finite"):
                greens_oracle(f, 2.0)

    def test_one_inverse_of_size_n(self, monkeypatch, grid, small_gaussian):
        # the only dense inverse is the N x N Schur complement's
        shapes = []
        inv = np.linalg.inv

        def counted(a):
            shapes.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        greens_oracle(small_gaussian, 2.0)
        assert shapes == [(grid.points, grid.points)]

    def test_singular_inverse_raises(self, monkeypatch, small_gaussian):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(IllConditioned, match="singular"):
            greens_oracle(small_gaussian, 2.0)

    def test_given_series_is_the_one_added(self, small_gaussian):
        series = greens_series(small_gaussian, 2.0, 3)
        a = greens_oracle(small_gaussian, 2.0)
        b = greens_oracle(small_gaussian, 2.0, series=series)
        for part in ("g12", "g21", "gamma"):
            assert np.array_equal(getattr(a, part), getattr(b, part))
        for wrong in (greens_series(small_gaussian, 2.0, 1),
                      greens_series(small_gaussian, 4.0, 3)):
            with pytest.raises(LaxError, match="order-3 series"):
                greens_oracle(small_gaussian, 2.0, series=wrong)

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
    """fixed_point_raw, on the coefficients of q, r and the warm start,
    against the physical-space reference loop."""

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
                     "warm": ((q1, r1, np.fft.fft(cold[2])),
                              reference_fixed_point(grid, q1, r1, kappa, gamma0=cold[2]))}
            for start, ((qq, rr, gamma0), want) in cases.items():
                got = fixed_point_raw(grid, np.fft.fft(qq), np.fft.fft(rr), kappa,
                                      gamma0=gamma0)
                assert got[3] == want[3], (name, start)
                for k in range(3):
                    err = (np.linalg.norm(np.fft.ifft(got[k]) - want[k])
                           / np.linalg.norm(want[k]))
                    assert err <= 1e-13, (name, start, k, err)

    def test_non_contraction_still_raised(self, grid):
        f = gaussian(grid, 3.0)
        with pytest.raises(NonContraction):
            reference_fixed_point(grid, f.values, f.r, 1.0, max_iter=400)
        q_hat, r_hat = np.fft.fft(f.values), np.fft.fft(f.r)
        with pytest.raises(NonContraction):
            fixed_point_raw(grid, q_hat, r_hat, 1.0, max_iter=400, delta=99.0)
        # the kernel's own smallness gate fires first at the default delta
        with pytest.raises(DataTooLarge):
            fixed_point_raw(grid, q_hat, r_hat, 1.0, max_iter=400)

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_data_rejected(self, grid, small_gaussian, which):
        # max(size, nan) and nan > delta both let a nan through a naive gate
        qr = [small_gaussian.values.copy(), small_gaussian.r]
        qr[which][5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataTooLarge, match="not finite"):
                fixed_point_raw(grid, *np.fft.fft(qr), 2.0)

    def test_first_growth_raises(self, grid):
        # far past the gate (13x) the residual of this solve grows at
        # iteration 3; halving the step from there would still converge, but
        # the kernel stops at the first growth rather than search past the gate
        q = random_schwartz(grid, np.random.default_rng(5)).values
        q *= 3.2 / sobolev_norm(Field(grid, q), -0.25)
        with pytest.raises(NonContraction, match="grew from"):
            fixed_point_raw(grid, np.fft.fft(q), np.fft.fft(np.conj(q)), 1.0, delta=99.0)


class TestFixedPointChain:
    def test_warm_starts_from_the_previous_solve(self, grid):
        f = random_schwartz(grid, np.random.default_rng(3), norm=0.1)
        chain = FixedPointChain(grid, 4.0, tol=1e-13)
        assert chain.stats() == {}
        first = chain.solve(f.values, f.r)
        q1, r1 = 1.01 * f.values, 0.99 * f.r
        second = chain.solve(q1, r1)
        cold = fixed_point_raw(grid, np.fft.fft(f.values), np.fft.fft(f.r), 4.0, tol=1e-13)
        # the chain keeps gamma's coefficients, not a transform of its grid values
        warm = fixed_point_raw(grid, np.fft.fft(q1), np.fft.fft(r1), 4.0, tol=1e-13,
                               gamma0=cold[2])
        for triple, want in ((first, cold), (second, warm)):
            assert triple.kappa == 4.0 and triple.method == "fixed_point"
            for k, part in enumerate(("g12", "g21", "gamma")):
                assert np.array_equal(getattr(triple, part), np.fft.ifft(want[k]))
            assert (triple.meta["iterations"], triple.meta["residual"]) == want[3:]
        iters = [cold[3], warm[3]]
        assert chain.solves == 2
        assert chain.stats() == {"fp_iterations": {"min": min(iters),
                                                   "mean": sum(iters) / 2,
                                                   "max": max(iters)},
                                 "fp_worst_residual": max(cold[4], warm[4])}

    def test_solve_wraps_solve_raw(self, grid):
        # the grid entry is fft, then solve_raw, then one stacked ifft
        f = random_schwartz(grid, np.random.default_rng(3), norm=0.1)
        grid_chain, raw_chain = FixedPointChain(grid, 4.0), FixedPointChain(grid, 4.0)
        for q, r in ((f.values, f.r), (1.01 * f.values, 0.99 * f.r)):  # cold, then warm
            triple = grid_chain.solve(q, r)
            *hats, iters, res = raw_chain.solve_raw(np.fft.fft(q), np.fft.fft(r))
            for got, want in zip((triple.g12, triple.g21, triple.gamma),
                                 np.fft.ifft(np.stack(hats))):
                assert np.array_equal(got, want)
            assert (triple.meta["iterations"], triple.meta["residual"]) == (iters, res)
            assert np.array_equal(grid_chain.gamma_hat, raw_chain.gamma_hat)
        assert grid_chain.stats() == raw_chain.stats() != {}

    def test_three_transforms_of_size_n_per_solve(self, monkeypatch, grid):
        # q and r in, the stacked triple out; the kernel works at 3N/2 only
        calls = []  # (length, inside the kernel) per transform call
        inside = []

        def counted(fn):
            def wrapped(a, *args, **kwargs):
                calls.append((np.shape(a)[-1], bool(inside)))
                return fn(a, *args, **kwargs)
            return wrapped

        def kernel(*args, **kwargs):
            inside.append(True)
            try:
                return fixed_point_raw(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        monkeypatch.setattr("aknslab.lax.fixed_point_raw", kernel)
        f = random_schwartz(grid, np.random.default_rng(3), norm=0.1)
        chain = FixedPointChain(grid, 4.0)
        n = grid.points
        for q, r in ((f.values, f.r), (1.01 * f.values, 0.99 * f.r)):  # cold, then warm
            calls.clear()
            chain.solve(q, r)
            assert {c[0] for c in calls if c[1]} == {3 * n // 2}
            assert [c for c in calls if c[0] == n] == [(n, False)] * 3


class TestDeterminant:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        tr = fixed(f, 2.0)
        assert pdet_integral(f, 2.0, tr) == 0.0
        assert pdet_trace(f, 2.0).value == 0.0

    def test_constant_field_closed_form(self, grid):
        # constant data solves the scalar quadratic exactly
        amp, kappa = 0.1, 8.0
        f = constant(grid, amp)
        # the constant's H^(-1/4) size is past DELTA_GATE, so open the gate
        hats = fixed_point_raw(grid, np.fft.fft(f.values), np.fft.fft(f.r), kappa,
                               tol=1e-13, delta=1.0)[:3]
        tr = GreensTriple(kappa, *np.fft.ifft(hats), "fixed_point")
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
            det_t = pdet_trace(f, kappa)
            assert abs(det_i - det_t.value) <= 1e-8

    def test_trace_term_decay(self, grid):
        f = gaussian(grid, 0.1)
        pair = operator_pair(f, 2.0)
        prod = pair.lam @ pair.gam
        radius = pdet_trace(f, 2.0).spectral_radius
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

    def test_trace_matches_dense_reference(self):
        grid = Grid(64.0, 128)
        f = random_schwartz(grid, np.random.default_rng(2), norm=0.15)
        q, r = f.values, f.r
        for kappa in (1.0, -2.0, 4.0):
            half_m = dense_multiplier_matrix(grid, fractional_symbol(kappa, -1, 0.5))
            half_p = dense_multiplier_matrix(grid, fractional_symbol(kappa, +1, 0.5))
            lam = half_m @ (q[:, None] * half_p)
            gam = half_p @ (r[:, None] * half_m)
            pair = operator_pair(f, kappa)
            assert rel_l2(grid, pair.lam, lam) <= 1e-12
            assert rel_l2(grid, pair.gam, gam) <= 1e-12
            prod = lam @ gam
            radius = _power_radius(prod)
            sgn = 1.0 if kappa > 0 else -1.0
            mq = apply_multiplier(q, inverse_shift_symbol(2.0 * kappa, -1), grid)
            term = sgn * grid.integrate(r * mq)
            total = term
            power = prod
            for order in range(2, 11):  # the series to order 10
                power = power @ prod
                total += sgn * ((-1.0) ** (order - 1) / order) * np.trace(power)
            got = pdet_trace(f, kappa)
            assert abs(got.value - total) <= 1e-12 * abs(total), kappa
            assert abs(got.spectral_radius - radius) <= 1e-13 * radius

    def test_overflowing_data_raise_divergent_series(self):
        # the dense products overflow to inf and nan; a nan radius is no
        # evidence of convergence
        f = constant(Grid(64.0, 64), 1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentSeries):
                pdet_trace(f, 2.0)

    def test_trace_divergence_error(self, grid):
        f = gaussian(grid, 3.0)
        with pytest.raises(DivergentSeries):
            pdet_trace(f, 1.0)

    def test_branch_guard(self):
        # rho = 0.25 < 1, but |Lambda|_HS |Gamma|_HS / (1 - rho) = 10.1 >= pi:
        # slogdet's principal log could be on the wrong branch
        f = constant(Grid(64.0, 256), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentSeries, match="branch bound"):
                pdet_trace(f, 1.0)

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
        via_trace = f.sign * pdet_trace(f, 2.0).value.real
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

    def test_overflowed_norms_raise_divergent_series(self, grid, small_gaussian):
        # at 1e155 both norms overflow to inf, and inf - inf must not pass
        # the equality check; an explicit partner skips only that check
        f = constant(Grid(64.0, 64), 1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in (f, Field(f.grid, f.values, partner=f.values)):
                with pytest.raises(DivergentSeries, match="not finite"):
                    operator_pair(g, 2.0)
        q = small_gaussian.values
        a, b = operator_pair(Field(grid, q, partner=2.0 * q), 2.0).hs_norms()
        assert abs(b - 2.0 * a) <= 1e-12 * b

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
