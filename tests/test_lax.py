"""Green's triples by three routes, and the determinant by two."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from aknslab.lax import (
    DataTooLarge,
    DivergentSeries,
    FixedPointChain,
    GreensTriple,
    IllConditioned,
    KappaError,
    LaxError,
    NonContraction,
    _arnoldi_radius,
    _multiplier_matrix,
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
    SpectralError,
    apply_multiplier,
    dealiased_mul,
    diff,
    fractional_symbol,
    inverse_shift_symbol,
    sobolev_norm,
)

from conftest import faults_per_call, l2, linux_only, rel_l2


def fixed(f, kappa, **kw):
    kw.setdefault("tol", 1e-13)
    return greens_fixed_point(f, kappa, **kw)


def dense_multiplier_matrix(grid, symbol):
    """The multiplier with lattice values ``symbol`` as a dense matrix: the
    transform of each unit vector."""
    m = np.asarray(symbol, dtype=np.complex128)
    eye = np.eye(grid.points, dtype=np.complex128)
    return np.fft.ifft(m[:, None] * np.fft.fft(eye, axis=0), axis=0)


def dense_pair(f, kappa):
    """The Hilbert-Schmidt pair Lambda = H- Q H+ and Gamma = H+ R H-, with
    H-/+ = (kappa -/+ d)^{-1/2}, as dense matrices."""
    grid = f.grid
    half_m = dense_multiplier_matrix(grid, fractional_symbol(grid, kappa, -1, 0.5))
    half_p = dense_multiplier_matrix(grid, fractional_symbol(grid, kappa, +1, 0.5))
    return half_m @ (f.values[:, None] * half_p), half_p @ (f.r[:, None] * half_m)


def dense_reference_oracle(grid, q, r, kappa):
    """The oracle written with 2N x 2N products throughout: the tail
    -L^{-1} V L0^{-1} minus the first four resolvent terms, read on the block
    diagonals.  Returns (g12, g21, gamma, cond)."""
    n = grid.points
    k_minus = dense_multiplier_matrix(grid, kappa - 1j * grid.xi)
    k_plus = dense_multiplier_matrix(grid, kappa + 1j * grid.xi)
    lax = np.block([[k_minus, np.diag(q)], [-np.diag(r), k_plus]])
    zero = np.zeros((n, n), dtype=np.complex128)
    lax0_inv = np.block([
        [dense_multiplier_matrix(grid, inverse_shift_symbol(grid, kappa, -1)), zero],
        [zero, dense_multiplier_matrix(grid, inverse_shift_symbol(grid, kappa, +1))]])
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
    s12, s21, sgam = series_raw(grid, q, r, kappa)
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

    def test_trace_builds_one_dense_matrix(self, monkeypatch, grid, small_gaussian):
        # the trace determinant's one N x N array is M = R C- Q C+, from one
        # circulant, and its one LU; the pair Lambda, Gamma is never formed
        calls = []
        slogdet = np.linalg.slogdet

        def circulant(m):
            calls.append("circulant")
            return _multiplier_matrix(m)

        def counted(a):
            calls.append(a.shape)
            return slogdet(a)

        monkeypatch.setattr("aknslab.lax._multiplier_matrix", circulant)
        monkeypatch.setattr(np.linalg, "slogdet", counted)
        pdet_trace(small_gaussian, 2.0)
        assert calls == ["circulant", (grid.points, grid.points)]

    @staticmethod
    def peak_dense_arrays(call, points):
        """tracemalloc's peak above the starting level during ``call()``, in
        N x N complex128 arrays.  tracemalloc sees numpy's arrays but not
        LAPACK's internal work buffers (inv's two, slogdet's one)."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return peak / (points * points * 16)

    def test_oracle_holds_four_dense_arrays(self, grid, small_gaussian):
        # at most four N x N arrays at once, the floor np.linalg.inv sets
        # (its input, output and two work buffers); tracemalloc sees the
        # input and output there, and S^{-1} with three blocks later on
        greens_oracle(small_gaussian, 2.0)  # fills the symbol caches
        peak = self.peak_dense_arrays(lambda: greens_oracle(small_gaussian, 2.0), grid.points)
        assert peak <= 4.5

    def test_trace_holds_one_dense_array(self, grid, small_gaussian):
        # M, with |M| and its mask while the tiny entries are zeroed
        pdet_trace(small_gaussian, 2.0)
        peak = self.peak_dense_arrays(lambda: pdet_trace(small_gaussian, 2.0), grid.points)
        assert peak <= 2.5

    def test_circulant_views_are_read_only(self, grid):
        m = inverse_shift_symbol(grid, 2.0, -1)
        mat, mat_t = _multiplier_matrix(m, with_transpose=True)
        assert np.array_equal(mat_t, mat.T)
        for view in (_multiplier_matrix(m), mat, mat_t):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 0.0

    def test_in_place_transforms_leave_inputs_alone(self, grid):
        # the dense work transforms its own arrays in place: the field and
        # the cached symbols stay as they were, and a second call agrees bitwise
        rng = np.random.default_rng(5)
        f = Field(grid, random_schwartz(grid, rng, norm=0.15).values, -1,
                  random_schwartz(grid, rng, norm=0.15).values)
        inputs = (f.values, f.r) + tuple(inverse_shift_symbol(grid, c, sgn)
                                         for c in (2.0, 4.0) for sgn in (-1, +1))
        saved = [a.copy() for a in inputs]
        first, second = greens_oracle(f, 2.0), greens_oracle(f, 2.0)
        for part in ("g12", "g21", "gamma"):
            assert np.array_equal(getattr(first, part), getattr(second, part)), part
        assert first.meta == second.meta
        assert pdet_trace(f, 2.0) == pdet_trace(f, 2.0)
        for now, before in zip(inputs, saved):
            assert np.array_equal(now, before)

    def test_singular_inverse_raises(self, monkeypatch, small_gaussian):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(IllConditioned, match="singular"):
            greens_oracle(small_gaussian, 2.0)

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
        for dense in (greens_oracle, pdet_trace):
            with pytest.raises(LaxError, match="capped"):
                dense(f, 2.0)
        # the Hilbert-Schmidt norms are closed forms, with no cap
        a, b = operator_pair(f, 2.0)
        assert 0.0 < a and abs(a - b) <= 1e-10 * a
        small_box = Grid(16.0, 128)
        with pytest.raises(LaxError, match="periodization"):
            greens_oracle(gaussian(small_box, 0.1), 1.0)

    def test_kappa_gate(self, grid, small_gaussian):
        with pytest.raises(LaxError):
            greens_oracle(small_gaussian, 0.5)


class TestSeries:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        tr = greens_series(f, 2.0)
        assert l2(grid, tr.g12) == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("kappa", [2.0, -2.0, 4.0])
    def test_third_order_single_mode(self, kappa, sign):
        # q = a e^{i xi0 x}: q r q = sign a^2 q and each multiplier is 1/z,
        # z = 2 kappa - i xi0, so g12 = -q/z + 2 sign a^2 q/z^3
        g = Grid(8 * np.pi, 256)
        a, xi0 = 0.1, 1.0
        f = plane_wave(g, a, xi0, sign)
        tr = greens_series(f, kappa)
        z = 2 * kappa - 1j * xi0
        expected = -f.values / z + 2 * sign * a**2 * f.values / z**3
        assert np.max(np.abs(tr.g12 - expected)) < 1e-13

    def test_third_order_error_scales_as_fifth_power(self, grid):
        errs = []
        for amp in (0.1, 0.05):
            f = gaussian(grid, amp)
            s = greens_series(f, 2.0)
            o = greens_oracle(f, 2.0)
            errs.append(l2(grid, s.g12 - o.g12))
        ratio = errs[0] / errs[1]
        assert 16.0 <= ratio <= 64.0  # 2^5 within a factor of two


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
    inv_m = inverse_shift_symbol(grid, 2.0 * kappa, -1)
    inv_p = inverse_shift_symbol(grid, 2.0 * kappa, +1)
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

    @linux_only
    def test_cold_solves_do_not_page_fault(self):
        # without the package's allocator setting each of these solves read
        # about 700 faults for its (2, 3N/2) arrays
        setup = """
            import numpy as np
            from aknslab.lax import fixed_point_raw
            from aknslab.profiles import random_schwartz
            from aknslab.spectral import Grid
            grid = Grid(128.0, 4096)
            q = random_schwartz(grid, np.random.default_rng(0))
            q_hat, r_hat = np.fft.fft(q.values), np.fft.fft(q.r)
            fixed_point_raw(grid, q_hat, r_hat, 2.0)
        """
        per_solve = faults_per_call(setup, "fixed_point_raw(grid, q_hat, r_hat, 2.0)", 10)
        assert per_solve < 50.0, per_solve


class TestBatchedKernel:
    """fixed_point_raw on a (B, N) batch along axis 0, one kappa per row,
    against its one-row solves."""

    @staticmethod
    def rows(grid):
        # different data, kappas of both signs, and cold and warm starts, so
        # the rows converge at different iterations
        rng = np.random.default_rng(11)
        fields = [random_schwartz(grid, rng, norm=0.1, sign=s) for s in (1, -1, 1)]
        kappas = np.array([4.0, -8.0, 16.0])
        q = np.fft.fft([f.values for f in fields])
        r = np.fft.fft([f.r for f in fields])
        warm = fixed_point_raw(grid, q[2], r[2], 16.0)[2]
        gamma0 = np.stack([np.zeros(grid.points), np.zeros(grid.points), warm])
        return q, r, kappas, gamma0

    def test_each_row_is_its_one_row_solve(self, grid):
        q, r, kappas, gamma0 = self.rows(grid)
        got = fixed_point_raw(grid, q, r, kappas, gamma0=gamma0)
        ones = [fixed_point_raw(grid, q[i], r[i], k, gamma0=gamma0[i])
                for i, k in enumerate(kappas)]
        for i, one in enumerate(ones):
            for k in range(3):
                assert np.array_equal(got[k][i], one[k]), (i, k)
        iters = [one[3] for one in ones]
        assert len(set(iters)) > 1  # a converged row left the batch early
        assert type(got[3]) is int and got[3] == max(iters)
        assert type(got[4]) is float and got[4] == max(one[4] for one in ones)

    def test_shared_data_broadcasts_over_kappas(self, grid):
        q, r, kappas, _ = self.rows(grid)
        got = fixed_point_raw(grid, q[0], r[0], kappas)
        for i, k in enumerate(kappas):
            one = fixed_point_raw(grid, q[0], r[0], k)
            assert all(np.array_equal(got[j][i], one[j]) for j in range(3))

    def test_one_row_batch_is_the_one_row_solve(self, grid):
        q, r, _, _ = self.rows(grid)
        batch = fixed_point_raw(grid, q[:1], r[:1], np.array([4.0]))
        one = fixed_point_raw(grid, q[0], r[0], 4.0)
        for k in range(3):
            assert batch[k].shape == (1, grid.points) and one[k].shape == (grid.points,)
            assert np.array_equal(batch[k][0], one[k])
        assert batch[3:] == one[3:]

    def test_row_over_the_gate_names_its_kappa(self, grid):
        q, r, kappas, _ = self.rows(grid)
        q[1], r[1] = 10.0 * q[1], 10.0 * r[1]
        with pytest.raises(DataTooLarge, match=r"kappa=-8\.0"):
            fixed_point_raw(grid, q, r, kappas)

    def test_growing_row_names_its_kappa(self, grid):
        # the data of test_first_growth_raises, whose residual grows at
        # iteration 3 at kappa = 1, beside two rows that converge
        q, r, _, _ = self.rows(grid)
        big = random_schwartz(grid, np.random.default_rng(5)).values
        big *= 3.2 / sobolev_norm(Field(grid, big), -0.25)
        q[2], r[2] = np.fft.fft(big), np.fft.fft(np.conj(big))
        with pytest.raises(NonContraction, match=r"kappa=1\.0: .*grew from"):
            fixed_point_raw(grid, q, r, np.array([4.0, 8.0, 1.0]), delta=99.0)

    def test_empty_batch_rejected(self, grid):
        q, r, _, _ = self.rows(grid)
        with pytest.raises(LaxError, match="at least one row"):
            fixed_point_raw(grid, q[:0], r[:0], np.array([]))

    def test_chain_warm_starts_each_row_from_its_own_gamma(self, grid):
        q, r, kappas, _ = self.rows(grid)
        chain = FixedPointChain(grid, kappas, tol=1e-13)
        first = chain.solve_raw(q, r)
        second = chain.solve_raw(1.01 * q, 0.99 * r)
        for i, k in enumerate(kappas):
            cold = fixed_point_raw(grid, q[i], r[i], k, tol=1e-13)
            warm = fixed_point_raw(grid, 1.01 * q[i], 0.99 * r[i], k, tol=1e-13,
                                   gamma0=cold[2])
            assert np.array_equal(first[2][i], cold[2])
            assert all(np.array_equal(second[j][i], warm[j]) for j in range(3))
        assert np.array_equal(chain.gamma_hat, second[2])
        assert chain.solves == 2 and chain.iterations == first[3] + second[3]


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
        lam, gam = dense_pair(f, 2.0)
        prod = lam @ gam
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
            lam, gam = dense_pair(f, kappa)
            for got, want in zip(operator_pair(f, kappa), map(np.linalg.norm, (lam, gam))):
                assert abs(got - want) <= 1e-12 * want
            prod = lam @ gam
            radius = max(abs(np.linalg.eigvals(prod)))
            sgn = 1.0 if kappa > 0 else -1.0
            mq = apply_multiplier(q, inverse_shift_symbol(grid, 2.0 * kappa, -1), grid)
            term = sgn * grid.integrate(r * mq)
            total = term
            power = prod
            for order in range(2, 11):  # the series to order 10
                power = power @ prod
                total += sgn * ((-1.0) ** (order - 1) / order) * np.trace(power)
            got = pdet_trace(f, kappa)
            assert abs(got.value - total) <= 1e-12 * abs(total), kappa
            assert abs(got.spectral_radius - radius) <= 1e-13 * radius

    def test_radius_is_the_largest_eigenvalue_of_m(self):
        # the top two eigenvalues are close in modulus (|lambda_2/lambda_1| =
        # 0.96): 60 power steps from the same start read 0.9% low here
        grid = Grid(64.0, 1024)
        f = random_schwartz(grid, np.random.default_rng(1), norm=0.2, sign=-1)
        c_m, c_p = (dense_multiplier_matrix(grid, inverse_shift_symbol(grid, 1.0, sgn))
                    for sgn in (-1, +1))
        m = f.r[:, None] * (c_m @ (f.values[:, None] * c_p))  # R C- Q C+
        want = max(abs(np.linalg.eigvals(m)))
        assert abs(pdet_trace(f, 1.0).spectral_radius - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [4, 128, 1024])
    def test_multiplier_matrix_is_scipy_circulant(self, n):
        from scipy.linalg import circulant
        m = inverse_shift_symbol(Grid(64.0, n), 2.0, -1)
        assert np.array_equal(_multiplier_matrix(m), circulant(np.fft.ifft(m)))

    @pytest.mark.parametrize("n", [128, 256, 1024])
    def test_radius_matches_arpack(self, n):
        # the Arnoldi radius against ARPACK's on the same operator and start
        from scipy.sparse.linalg import LinearOperator, eigs
        grid = Grid(64.0, n)
        fields = [random_schwartz(grid, np.random.default_rng(seed), norm=norm)
                  for seed in (0, 1, 3) for norm in (0.1, 0.17, 0.24)] + [gaussian(grid, 0.1)]
        for f in fields:
            for kappa in (1.0, 2.0, 4.0, -2.0):
                inv_m, inv_p = (inverse_shift_symbol(grid, kappa, sgn) for sgn in (-1, +1))

                def matvec(v):
                    return f.r * apply_multiplier(f.values * apply_multiplier(v, inv_p, grid),
                                                  inv_m, grid)

                rng = np.random.default_rng(7)
                v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                got = _arnoldi_radius(matvec, v0, 100)
                want = abs(eigs(LinearOperator((n, n), dtype=np.complex128, matvec=matvec),
                                k=1, which="LM", v0=v0, return_eigenvectors=False)[0])
                assert abs(got - want) <= 1e-13 * want, kappa

    @pytest.mark.parametrize("n", [256, 1024])
    def test_radius_of_spread_out_data(self, n):
        # constant q and a plane wave make M diagonal in Fourier space, with
        # eigenvalues |A|^2 C+(xi) C-(xi + xi0) clustered at the top: 1.5e-4
        # apart, relative, at kappa = 8, far past one Arnoldi basis
        grid = Grid(64.0, n)
        for make, j0 in ((lambda a: constant(grid, a), 0),
                         (lambda a: plane_wave(grid, a, 3 * grid.dxi, sign=-1), 3)):
            for kappa in (1.0, 4.0, 8.0, -8.0):
                a, b = operator_pair(make(1.0), kappa)
                f = make(math.sqrt(0.5 / (a * b)))  # a b = 0.5
                inv_m, inv_p = (inverse_shift_symbol(grid, kappa, sgn) for sgn in (-1, +1))
                want = abs(f.values[0]) ** 2 * max(abs(inv_p * np.roll(inv_m, -j0)))
                got = pdet_trace(f, kappa).spectral_radius
                assert abs(got - want) <= 1e-13 * want, (j0, kappa)

    def test_radius_restarts_match_dense_eigenvalues(self):
        # localized data whose top eigenvalues cluster: a wide Gaussian at
        # kappa = 16 takes about 80 Arnoldi steps, two restarts
        grid = Grid(64.0, 256)
        f = gaussian(grid, 1.0, width=16.0)
        a, b = operator_pair(f, 16.0)
        f = gaussian(grid, math.sqrt(0.5 / (a * b)), width=16.0)
        c_m, c_p = (dense_multiplier_matrix(grid, inverse_shift_symbol(grid, 16.0, sgn))
                    for sgn in (-1, +1))
        want = max(abs(np.linalg.eigvals(f.r[:, None] * (c_m @ (f.values[:, None] * c_p)))))
        assert abs(pdet_trace(f, 16.0).spectral_radius - want) <= 1e-12 * want

    def test_zero_partner_has_zero_radius_without_arpack(self, grid, small_gaussian,
                                                          monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("Arnoldi called on a zero operator")

        monkeypatch.setattr("aknslab.lax._arnoldi_radius", no_solver)
        f = Field(grid, small_gaussian.values, partner=np.zeros(grid.points))
        got = pdet_trace(f, 2.0)
        assert got.spectral_radius == 0.0
        assert got.value == 0.0

    def test_arpack_failure_is_one_line_divergent_series(self, grid, small_gaussian,
                                                         monkeypatch, capfd):
        # two Arnoldi steps leave the top Ritz value far from converged
        monkeypatch.setattr("aknslab.lax._arnoldi_radius",
                            lambda matvec, v0, steps: _arnoldi_radius(matvec, v0, 2))
        with pytest.raises(DivergentSeries, match="kappa=2.0") as info:
            pdet_trace(small_gaussian, 2.0)
        assert "\n" not in str(info.value)
        assert capfd.readouterr() == ("", "")

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

    def test_kappa_gates_are_usage_errors(self, small_gaussian):
        # a numerical-module error that is also a SpectralError, so the CLI
        # exits 2 on a spectral parameter out of range
        assert issubclass(KappaError, LaxError) and issubclass(KappaError, SpectralError)
        for call, kappa in ((alpha, -2.0), (alpha, 0.5), (greens_fixed_point, 0.9)):
            with pytest.raises(KappaError):
                call(small_gaussian, kappa)


class TestOperatorPair:
    def test_hilbert_schmidt_norms_equal(self, grid, rng):
        for sign in (+1, -1):
            f = random_schwartz(grid, rng, norm=0.15, sign=sign)
            a, b = operator_pair(f, 2.0)
            assert abs(a - b) <= 1e-10 * max(a, b)
            want = np.linalg.norm(dense_pair(f, 2.0)[0])
            assert abs(a - want) <= 1e-12 * want

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
        g = Field(grid, q, partner=2.0 * q)
        a, b = operator_pair(g, 2.0)
        assert abs(b - 2.0 * a) <= 1e-12 * b
        for got, want in zip((a, b), map(np.linalg.norm, dense_pair(g, 2.0))):
            assert abs(got - want) <= 1e-12 * want

    def test_hs_scaling_constant_stable(self, grid):
        # ||Lambda||_HS <= C kappa^{-(s+1/2)} ||q||_{H^s_kappa}, C stable in kappa
        f = gaussian(grid, 0.1)
        s = -0.25
        cs = []
        for kappa in (1.0, 2.0, 4.0, 8.0, 16.0):
            hs = operator_pair(f, kappa)[0]
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
