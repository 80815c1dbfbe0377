"""Hamiltonians, densities, currents, and the Poisson bracket."""

import math

import numpy as np
import pytest

from aknslab.hierarchy import (
    HierarchyError,
    current,
    density,
    expansion_error,
    generating_current,
    hamiltonian_gradient,
    hamiltonians,
    poisson_bracket,
)
from aknslab.lax import greens_fixed_point, pdet_integral
from aknslab.profiles import constant, gaussian, plane_wave, random_schwartz
from aknslab.spectral import (Field, Grid, apply_multiplier, dealiased_mul, diff,
                              inverse_shift_symbol)

from conftest import l2, rel_l2


def fixed(f, kappa, **kw):
    kw.setdefault("tol", 1e-13)
    return greens_fixed_point(f, kappa, **kw)


class TestHamiltonians:
    def test_zero_field(self, grid):
        h = hamiltonians(Field(grid, np.zeros(grid.points)))
        assert (h.mass, h.momentum, h.h_nls, h.h_mkdv) == (0.0, 0.0, 0.0, 0.0)

    def test_constant_field(self, grid):
        h = hamiltonians(constant(grid, 0.1))
        assert abs(h.mass - 0.64) < 1e-12
        assert abs(h.momentum) < 1e-12
        assert abs(h.h_nls - 0.0064) < 1e-14
        assert abs(h.h_mkdv) < 1e-14

    def test_plane_wave_momentum(self):
        g = Grid(2 * np.pi * 32, 256)
        h = hamiltonians(plane_wave(g, 0.1, 1.0, sign=+1))
        # P = (1/i) int q r' = -xi0 L |a|^2 in the defocusing convention
        assert abs(h.momentum - (-1.0 * g.length * 0.01)) < 1e-12

    def test_realness_leakage(self, grid, rng):
        f = random_schwartz(grid, rng, norm=0.2, sign=-1)
        h = hamiltonians(f)
        assert h.imag_leakage <= 1e-10

    def test_gradients_match_finite_differences(self, grid, rng):
        f = gaussian(grid, 0.1)
        pert = random_schwartz(grid, rng, norm=0.05)
        eps = 1e-5
        for name in ("mass", "momentum", "h_nls", "h_mkdv"):
            dq, dr = hamiltonian_gradient(f, name)
            plus = getattr(hamiltonians(Field(grid, f.values + eps * pert.values)), name)
            minus = getattr(hamiltonians(Field(grid, f.values - eps * pert.values)), name)
            fd = (plus - minus) / (2 * eps)
            pairing = (grid.integrate(pert.values * dq)
                       + f.sign * grid.integrate(np.conj(pert.values) * dr))
            assert abs(fd - pairing.real) < 1e-9


class TestExpansion:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        assert expansion_error(f, 8.0, 0.0 + 0.0j) == 0.0

    def test_single_term_dominated_by_momentum(self, grid):
        # complex data with nonzero momentum: the one-term error ~ |P|/(2k)^2
        f = Field(grid, 0.1 * np.exp(-grid.x**2) * np.exp(1j * grid.x))
        kappa = 32.0
        det = pdet_integral(f, kappa, fixed(f, kappa))
        h = hamiltonians(f)
        err1 = abs(det - h.mass / (2 * kappa))
        predicted = abs(h.momentum) / (2 * kappa) ** 2
        assert 0.5 <= err1 / predicted <= 2.0

    def test_kappa_gate(self, grid, small_gaussian):
        with pytest.raises(HierarchyError):
            expansion_error(small_gaussian, 2.0, 0.0 + 0.0j)


class TestDensity:
    def test_zero_field(self, grid):
        f = Field(grid, np.zeros(grid.points))
        tr = fixed(f, 2.0)
        assert l2(grid, density(f, tr)) == 0.0

    def test_integral_is_determinant_bit_for_bit(self, grid):
        f = gaussian(grid, 0.1)
        tr = fixed(f, 2.0)
        assert grid.integrate(density(f, tr)) == pdet_integral(f, 2.0, tr)

    def test_quadratic_part(self, grid):
        # rho matches its quadratic truncation (q r/(2k+d) + q/(2k-d) r)/2
        # to O(|a|^4)
        errs = []
        for amp in (0.1, 0.05):
            f = gaussian(grid, amp)
            q, r = f.values, f.r
            pr = apply_multiplier(r, inverse_shift_symbol(grid, 4.0, +1), grid)
            mq = apply_multiplier(q, inverse_shift_symbol(grid, 4.0, -1), grid)
            quadratic = 0.5 * (dealiased_mul(q, pr) + dealiased_mul(mq, r))
            errs.append(l2(grid, density(f, fixed(f, 2.0)) - quadratic))
        assert 8.0 <= errs[0] / errs[1] <= 32.0  # 2^4 within a factor of two

    def test_tilde_variant(self, grid):
        f = gaussian(grid, 0.1)
        tr = fixed(f, 2.0)
        tilde = density(f, tr, tilde=True)
        direct = f.values * f.r - 2.0 * 2.0 * density(f, tr)
        assert rel_l2(grid, tilde, direct) < 1e-7  # plain vs dealiased mass term

    def test_tilde_mass_shift_reality(self, grid, rng):
        # Im of the mass part vanishes; Re int rho-tilde = M - 2 vk Re(A)
        f = random_schwartz(grid, rng, norm=0.15)
        tr = fixed(f, 2.0)
        total = grid.integrate(density(f, tr, tilde=True))
        mass = grid.integrate(f.values * f.r)
        assert abs(mass.imag) <= 1e-10 * max(abs(mass), f.l2_norm() ** 2)
        det = pdet_integral(f, 2.0, tr)
        assert abs(total.real - (mass.real - 4.0 * det.real)) < 1e-12


class TestCurrents:
    def test_zero_field_all_flavors(self, grid):
        f = Field(grid, np.zeros(grid.points))
        vk = fixed(f, 2.0)
        pk = fixed(f, 8.0)
        mk = fixed(f, -8.0)
        for flavor, extra in (("nls", ()), ("mkdv", ()), ("tilde_mkdv", ()),
                              ("a_flow", (pk,)), ("nls_diff", (pk, mk)),
                              ("mkdv_diff", (pk, mk))):
            assert l2(grid, current(f, flavor, vk, extra)) == 0.0

    def test_nls_current_coercivity_sign(self):
        # small single-mode data: Im int j_nls matches 2||q'||^2_{H^{-1}_vk}
        g = Grid(8 * np.pi, 256)
        vk, a, xi0 = 2.0, 0.01, 1.0
        for sign in (+1, -1):
            f = plane_wave(g, a, xi0, sign=sign)
            tr = greens_fixed_point(f, vk, tol=1e-14)
            j = current(f, "nls", tr)
            measured = g.integrate(j).imag
            predicted = sign * 2.0 * xi0**2 * a**2 * g.length / (4 * vk**2 + xi0**2)
            assert abs(measured - predicted) <= 1e-4 * abs(predicted)
            assert math.copysign(1.0, measured) == sign

    def test_currents_decay_at_boundary(self, grid):
        # Schwartz data: integral of the density finite, current over the
        # outer N/40 nodes at each end below 1e-8 of its peak
        f = gaussian(grid, 0.1)
        vk = fixed(f, 2.0)
        pk, mk = fixed(f, 8.0), fixed(f, -8.0)
        edge = grid.points // 40
        for flavor, extra in (("nls", ()), ("mkdv", ()), ("tilde_mkdv", ()),
                              ("a_flow", (pk,)), ("nls_diff", (pk, mk)),
                              ("mkdv_diff", (pk, mk))):
            rho = density(f, vk, tilde=flavor == "tilde_mkdv")
            assert np.isfinite(grid.integrate(rho))
            mags = np.abs(current(f, flavor, vk, extra))
            tail = max(mags[:edge].max(), mags[-edge:].max())
            assert tail <= 1e-8 * mags.max(), (flavor, tail / mags.max())

    def test_generating_current_pole_guard(self, grid, small_gaussian):
        tr2 = fixed(small_gaussian, 2.0)
        with pytest.raises(HierarchyError, match="pole"):
            generating_current(tr2, tr2)

    def test_unknown_flavor(self, grid, small_gaussian):
        tr = fixed(small_gaussian, 2.0)
        with pytest.raises(HierarchyError):
            current(small_gaussian, "bogus", tr)

    def test_quadratic_generating_current_formula(self):
        # single defocusing mode: int j^(2) = i a^2 L / ((2k - i xi)^2 (2vk - i xi))
        g = Grid(8 * np.pi, 256)
        a, xi0, vk, kap = 0.02, 1.0, 2.0, 8.0
        f = plane_wave(g, a, xi0)
        j = generating_current(greens_fixed_point(f, vk, tol=1e-14),
                               greens_fixed_point(f, kap, tol=1e-14))
        total = g.integrate(j)
        expected = 1j * a * a * g.length / ((2 * kap - 1j * xi0) ** 2 * (2 * vk - 1j * xi0))
        assert abs(total - expected) <= 1e-3 * abs(expected)  # O(a^4) remainder


class TestPoissonBracket:
    def test_antisymmetry_diagonal(self, grid, small_gaussian):
        gm = hamiltonian_gradient(small_gaussian, "mass")
        assert poisson_bracket(gm, gm, grid) == 0.0

    def test_mass_momentum_commute(self, grid, rng):
        f = random_schwartz(grid, rng, norm=0.2)
        bracket = poisson_bracket(hamiltonian_gradient(f, "mass"),
                                  hamiltonian_gradient(f, "momentum"), grid)
        assert abs(bracket) < 1e-14

    def test_determinants_commute(self, grid):
        f = gaussian(grid, 0.1)
        t2, t4 = fixed(f, 2.0), fixed(f, 4.0)
        bracket = poisson_bracket((t2.g21, -t2.g12), (t4.g21, -t4.g12), grid)
        scale = l2(grid, t2.g12) * l2(grid, t4.g12)
        assert abs(bracket) <= 1e-8 * scale

    def test_four_hamiltonians_pairwise_commute(self, grid):
        f = gaussian(grid, 0.1)
        names = ("mass", "momentum", "h_nls", "h_mkdv")
        grads = {n: hamiltonian_gradient(f, n) for n in names}
        scale = f.l2_norm() ** 2
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert abs(poisson_bracket(grads[a], grads[b], grid)) < 1e-10 * max(1.0, scale)


class TestIdentities:
    def test_biham_expansion_of_g12(self, grid):
        # -g12 = q/(2k) + q'/(2k)^2 + (q'' - 2 q^2 r)/(2k)^3 + O(k^-4)
        f = gaussian(grid, 0.1)
        q, r = f.values, f.r
        residuals = []
        for kappa in (8.0, 16.0):
            tr = fixed(f, kappa)
            expansion = (q / (2 * kappa) + diff(q, grid) / (2 * kappa) ** 2
                         + (diff(q, grid, 2) - 2 * dealiased_mul(q, q, r))
                         / (2 * kappa) ** 3)
            residuals.append(l2(grid, -tr.g12 - expansion))
        ratio = residuals[0] / residuals[1]
        assert 10.0 <= ratio <= 24.0  # 2^4 within noise
