"""Hamiltonian functionals, conserved densities and their matched currents,
and the Poisson-bracket evaluator.

Current formulas are evaluated verbatim in the form in which they arise as
microscopic conservation laws; no integration-by-parts rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lax import GreensTriple, density_denominator, density_raw
from .spectral import Field, Grid, dealiased_mul, diff

#: Current flavors, each mapped to the flow kind it is conserved under.
FLAVORS = {"a_flow": "a_flow", "nls": "nls", "mkdv": "mkdv", "nls_diff": "nls_diff",
           "mkdv_diff": "mkdv_diff", "tilde_mkdv": "mkdv"}

#: Relative proximity of the two spectral parameters at which the generating
#: current's pole is rejected rather than regularized.
POLE_GUARD = 1e-6


class HierarchyError(RuntimeError):
    pass


@dataclass(frozen=True)
class HamiltonianValue:
    """The four polynomial conserved quantities of a field."""

    mass: float
    momentum: float
    h_nls: float
    h_mkdv: float
    imag_leakage: float

    def as_dict(self) -> dict:
        return {"mass": self.mass, "momentum": self.momentum,
                "h_nls": self.h_nls, "h_mkdv": self.h_mkdv}


def hamiltonians(f: Field, check_real: bool = True) -> HamiltonianValue:
    """Mass, momentum, and the two cubic-hierarchy Hamiltonians.

    M = int q r,  P = (1/i) int q r',  H_nls = int q'r' + q^2 r^2,
    H_mkdv = (1/i) int q'r'' + 3 q^2 r r'.  With a slaved partner they are
    real, and ``check_real`` raises on imaginary leakage above 1e-10.
    """
    grid = f.grid
    q, rr = f.values, f.r
    qp = diff(q, grid)
    rp = diff(rr, grid)
    rpp = diff(rr, grid, 2)
    # huge data overflows the quartic terms: reported below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        mass = grid.integrate(dealiased_mul(q, rr))
        momentum = grid.integrate(dealiased_mul(q, rp)) / 1j
        h_nls = grid.integrate(dealiased_mul(qp, rp) + dealiased_mul(q, q, rr, rr))
        h_mkdv = grid.integrate(dealiased_mul(qp, rpp)
                                + 3.0 * dealiased_mul(q, q, rr, rp)) / 1j
    values = np.array([mass, momentum, h_nls, h_mkdv])
    if not np.all(np.isfinite(values)):
        raise HierarchyError("Hamiltonians are not finite; the data is too large")
    scale = max(float(np.max(np.abs(values))), f.l2_norm() ** 2, 1e-300)
    leakage = float(np.max(np.abs(values.imag))) / scale
    if check_real and f.partner is None and leakage > 1e-10:
        raise HierarchyError(
            f"Hamiltonians have imaginary leakage {leakage:.3e} > 1e-10"
        )
    return HamiltonianValue(mass.real, momentum.real, h_nls.real, h_mkdv.real,
                            leakage)


def hamiltonian_gradient(f: Field, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Analytic functional gradients (dF/dq, dF/dr) of the four Hamiltonians."""
    grid = f.grid
    q = f.values
    rr = f.r
    if name == "mass":
        return rr.copy(), q.copy()
    if name == "momentum":
        return diff(rr, grid) / 1j, -diff(q, grid) / 1j
    if name == "h_nls":
        dq = -diff(rr, grid, 2) + 2.0 * dealiased_mul(q, rr, rr)
        dr = -diff(q, grid, 2) + 2.0 * dealiased_mul(rr, q, q)
        return dq, dr
    if name == "h_mkdv":
        dq = (-diff(rr, grid, 3)
              + 6.0 * dealiased_mul(q, rr, diff(rr, grid))) / 1j
        dr = (diff(q, grid, 3)
              - 6.0 * dealiased_mul(q, rr, diff(q, grid))) / 1j
        return dq, dr
    raise HierarchyError(f"unknown Hamiltonian {name!r}")


def poisson_bracket(grad_f: tuple[np.ndarray, np.ndarray],
                    grad_g: tuple[np.ndarray, np.ndarray],
                    grid: Grid) -> complex:
    """{F, G} = (1/i) int dF/dq dG/dr - dF/dr dG/dq dx."""
    fq, fr = grad_f
    gq, gr = grad_g
    return grid.integrate(fq * gr - fr * gq) / 1j


def expansion_error(f: Field, kappa: float, det: complex) -> float:
    """|A(kappa) - four-term expansion|, the expansion being
    M/(2k) - iP/(2k)^2 - H_nls/(2k)^3 + iH_mkdv/(2k)^4; requires kappa >= 4."""
    if kappa < 4.0:
        raise HierarchyError(f"expansion error requires kappa >= 4, got {kappa}")
    ham = hamiltonians(f)
    tk = 2.0 * kappa
    terms = [ham.mass / tk, -1j * ham.momentum / tk**2,
             -ham.h_nls / tk**3, 1j * ham.h_mkdv / tk**4]
    return abs(det - sum(terms))


# ---------------------------------------------------------------------------
# Densities and currents


def density(f: Field, triple: GreensTriple, tilde: bool = False) -> np.ndarray:
    """Conserved density at the triple's parameter.

    The plain flavor is (q g21 - r g12)/(2 + gamma); the tilde flavor is the
    mass-shifted variant q r - 2*varkappa*rho used for the higher-regularity
    momentum-level law.
    """
    q, rr = f.values, f.r
    rho = density_raw(q, rr, triple)
    if not tilde:
        return rho
    return dealiased_mul(q, rr) - 2.0 * triple.kappa * rho


def generating_current(triple_vk: GreensTriple, triple_k: GreensTriple) -> np.ndarray:
    """Current paired with the density under the generating flow at kappa:

        j(vk, k) = -i (g12(k) g21(vk) + g21(k) g12(vk))
                      / (2 (k - vk) (2 + gamma(vk)))
                   + i gamma(k) / (4 (k - vk)).
    """
    vk, k = triple_vk.kappa, triple_k.kappa
    if abs(k - vk) < POLE_GUARD * max(abs(k), abs(vk)):
        raise HierarchyError(
            f"generating current has a pole at coinciding parameters "
            f"(kappa={k}, varkappa={vk})"
        )
    denom = density_denominator(triple_vk)
    cross = (dealiased_mul(triple_k.g12, triple_vk.g21)
             + dealiased_mul(triple_k.g21, triple_vk.g12))
    return (-1j * cross / (2.0 * (k - vk) * denom)
            + 1j * triple_k.gamma / (4.0 * (k - vk)))


def current(f: Field, flavor: str, triple_vk: GreensTriple,
            kappa_triples: tuple[GreensTriple, ...] = ()) -> np.ndarray:
    """Current matched to ``flavor`` at the parameter of ``triple_vk``.

    ``kappa_triples`` supplies the generating-parameter triples: (at +kappa,)
    for the a_flow flavor and (at +kappa, at -kappa) for the difference
    flavors.
    """
    if flavor not in FLAVORS:
        raise HierarchyError(f"unknown current flavor {flavor!r}")
    grid = f.grid
    q, rr = f.values, f.r
    vk = triple_vk.kappa

    if flavor == "a_flow":
        (triple_k,) = kappa_triples
        return generating_current(triple_vk, triple_k)

    rho = density_raw(q, rr, triple_vk)  # guards |2 + gamma(vk)|
    denom = 2.0 + triple_vk.gamma
    qp = diff(q, grid)
    rp = diff(rr, grid)
    j_nls = -1j * ((dealiased_mul(qp, triple_vk.g21)
                    + dealiased_mul(rp, triple_vk.g12)) / denom
                   - dealiased_mul(q, rr) + 2.0 * vk * rho)
    if flavor == "nls":
        return j_nls
    if flavor == "nls_diff":
        triple_pk, triple_mk = kappa_triples
        kap = triple_pk.kappa
        return j_nls + 4.0 * kap**3 * (generating_current(triple_vk, triple_pk)
                                       - generating_current(triple_vk, triple_mk))

    qpp = diff(q, grid, 2)
    rpp = diff(rr, grid, 2)
    qqr = dealiased_mul(q, q, rr)
    rrq = dealiased_mul(rr, rr, q)
    j_mkdv = ((dealiased_mul(qpp - 2.0 * qqr, triple_vk.g21)
               - dealiased_mul(rpp - 2.0 * rrq, triple_vk.g12)) / denom
              - dealiased_mul(qp, rr) + dealiased_mul(q, rp)
              + 2j * vk * j_nls)
    if flavor == "mkdv":
        return j_mkdv
    if flavor == "mkdv_diff":
        triple_pk, triple_mk = kappa_triples
        kap = triple_pk.kappa
        return (j_mkdv
                + 8j * kap**4 * (generating_current(triple_vk, triple_pk)
                                 + generating_current(triple_vk, triple_mk))
                + 4.0 * kap**2 * rho)
    # tilde_mkdv: (qr)'' - 3(q'r' + q^2 r^2) - 2 vk j_mkdv
    qr = dealiased_mul(q, rr)
    return (diff(qr, grid, 2)
            - 3.0 * (dealiased_mul(qp, rp) + dealiased_mul(q, q, rr, rr))
            - 2.0 * vk * j_mkdv)


def telescoping_residual(triple_a: GreensTriple, triple_b: GreensTriple,
                         grid: Grid) -> float:
    """L2 residual of the exchange identity between two parameters:

    2(ka - kb)[g12(ka) g21(kb) - g21(ka) g12(kb)]
        = d/dx { g12(ka) g21(kb) + g21(ka) g12(kb)
                 - (gamma(ka)+1)(gamma(kb)+1)/2 }.
    """
    ka, kb = triple_a.kappa, triple_b.kappa
    ab = dealiased_mul(triple_a.g12, triple_b.g21)
    ba = dealiased_mul(triple_a.g21, triple_b.g12)
    lhs = 2.0 * (ka - kb) * (ab - ba)
    inner = ab + ba - 0.5 * dealiased_mul(triple_a.gamma + 1.0, triple_b.gamma + 1.0)
    res = lhs - diff(inner, grid)
    return grid.l2_norm(res)
