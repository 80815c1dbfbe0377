"""Diagonal Green's-function quantities of the Lax operator and the
perturbation determinant.

Three independent routes to the diagonal triple (g12, g21, gamma) at a real
spectral parameter kappa, |kappa| >= 1:

* ``greens_oracle``      -- dense inversion of the discrete operator
                            [[kappa - d, q], [-r, kappa + d]]; brute force,
                            used as the reference for everything else;
* ``greens_series``      -- the explicit low-order paraproducts;
* ``greens_fixed_point`` -- iteration of the coupled identities
                            g12 = -(2k-d)^{-1}[q(1+gamma)],
                            g21 =  (2k+d)^{-1}[r(1+gamma)],
                            gamma = 2 g12 g21 - gamma^2/2.

The determinant A(kappa) comes either from the trace series over the
Hilbert-Schmidt pair (Lambda, Gamma) or from integrating the density
(q g21 - r g12)/(2 + gamma).

All entry points accept an explicit conjugate-partner array ``r``; by default
it is the field's slaved partner sign * conj(q).  The explicit form is what
the generating flow needs, where q and r evolve as independent unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .spectral import (
    Field,
    Grid,
    apply_multiplier,
    dealiased_mul,
    fractional_symbol,
    from_fine_grid,
    inverse_shift_symbol,
    sobolev_norm,
    to_fine_grid,
)

#: Smallness gate for the contraction regime (norm of q in H^{-1/4}).
DELTA_GATE = 0.25

#: Dense-oracle limits.
ORACLE_MAX_POINTS = 1024
ORACLE_MIN_KAPPA_L = 40.0
ORACLE_MAX_COND = 1e10


class LaxError(RuntimeError):
    pass


class DataTooLarge(LaxError):
    """Field norm exceeds the small-data gate of the chosen method."""


class NonContraction(LaxError):
    """Fixed-point residual grew repeatedly; data too large for this route."""


class IllConditioned(LaxError):
    """Discrete Lax operator is numerically singular."""


class DivergentSeries(LaxError):
    """Trace series divergent: spectral radius of Lambda*Gamma >= 1."""


def _check_kappa(kappa: float) -> None:
    if not np.isfinite(kappa) or abs(kappa) < 1.0:
        raise LaxError(f"spectral parameter must be real with |kappa| >= 1, got {kappa}")


def _field_qr(f: Field, r: np.ndarray | None) -> tuple[Grid, np.ndarray, np.ndarray]:
    return f.grid, f.values, (f.r if r is None else np.asarray(r, dtype=np.complex128))


@dataclass
class GreensTriple:
    """Diagonal Green's data at one spectral parameter."""

    kappa: float
    g12: np.ndarray
    g21: np.ndarray
    gamma: np.ndarray
    method: str
    meta: dict = dc_field(default_factory=dict)

    def quadratic_residual(self, grid: Grid) -> float:
        """L2 norm of gamma + gamma^2/2 - 2 g12 g21."""
        res = (self.gamma + 0.5 * dealiased_mul(self.gamma, self.gamma)
               - 2.0 * dealiased_mul(self.g12, self.g21))
        return math.sqrt(grid.dx * float(np.sum(np.abs(res) ** 2)))


# ---------------------------------------------------------------------------
# Fixed point


def fixed_point_raw(grid: Grid, q: np.ndarray, r: np.ndarray, kappa: float,
                    tol: float = 1e-12, max_iter: int = 200,
                    gamma0: np.ndarray | None = None):
    """Iterate the three coupled identities from gamma = 0 (or a warm start).

    Returns (g12, g21, gamma, iterations, residual).  Residual growth over
    three consecutive iterations aborts; a single growth engages damping 1/2.

    The iteration lives in Fourier space: gamma is held as its N raw
    ``np.fft`` coefficients (one transform of ``gamma0`` on a warm start),
    and q and r are transformed and put on the 2N padded grid once per
    solve.  Each iteration pads gamma, forms gamma q and gamma r there and
    truncates them, applies (2 kappa -/+ d)^{-1} as a coefficient multiply,
    pads g12 and g21, and truncates 2 g12 g21 - gamma^2/2 once: six
    transforms of size 2N.  The products are the same pairwise Galerkin
    products ``dealiased_mul`` forms, through the same padding, and the
    residual is the L2 norm of the update by Parseval.

    A solve of k iterations makes 6k + 14 transforms (one more on a warm
    start): four to set up q and r, and ten to return.  The returned g12 and
    g21 are rebuilt from the final gamma through ``apply_multiplier``, so
    every solve passes its check that the symbol is finite on the lattice.
    """
    _check_kappa(kappa)
    inv_m = inverse_shift_symbol(2.0 * kappa, -1)(grid.xi)
    inv_p = inverse_shift_symbol(2.0 * kappa, +1)(grid.xi)
    n = grid.points
    q_hat = np.fft.fft(q)
    r_hat = np.fft.fft(r)
    q_fine = to_fine_grid(q_hat)
    r_fine = to_fine_grid(r_hat)
    gamma_hat = (np.zeros(n, dtype=np.complex128) if gamma0 is None
                 else np.fft.fft(gamma0))
    damping = 1.0
    prev_res = np.inf
    growths = 0
    parseval = grid.dx / n
    for it in range(1, max_iter + 1):
        gamma_fine = to_fine_grid(gamma_hat)
        g12_fine = to_fine_grid(-inv_m * (q_hat + from_fine_grid(gamma_fine * q_fine, n)))
        g21_fine = to_fine_grid(inv_p * (r_hat + from_fine_grid(gamma_fine * r_fine, n)))
        update = from_fine_grid(
            2.0 * g12_fine * g21_fine - 0.5 * gamma_fine * gamma_fine, n)
        diff = update - gamma_hat
        res = math.sqrt(parseval * float(np.sum(np.abs(diff) ** 2)))
        gamma_hat = gamma_hat + damping * diff
        if res < tol:
            gamma_fine = to_fine_grid(gamma_hat)
            gamma_q = np.fft.ifft(from_fine_grid(gamma_fine * q_fine, n))
            gamma_r = np.fft.ifft(from_fine_grid(gamma_fine * r_fine, n))
            g12 = -apply_multiplier(q + gamma_q, inv_m, grid)
            g21 = apply_multiplier(r + gamma_r, inv_p, grid)
            return g12, g21, np.fft.ifft(gamma_hat), it, res
        if res >= prev_res:
            growths += 1
            damping = 0.5
            if growths >= 3:
                raise NonContraction(
                    f"fixed point diverging at kappa={kappa}: residual {res:.3e} "
                    "grew three times; reduce the data or use the dense oracle"
                )
        else:
            growths = 0
        prev_res = res
    raise NonContraction(
        f"fixed point did not reach tol={tol:.1e} in {max_iter} iterations "
        f"(last residual {prev_res:.3e})"
    )


def greens_fixed_point(f: Field, kappa: float, tol: float = 1e-12,
                       max_iter: int = 200, r: np.ndarray | None = None,
                       gamma0: np.ndarray | None = None,
                       delta: float = DELTA_GATE) -> GreensTriple:
    grid, q, rr = _field_qr(f, r)
    size = max(sobolev_norm(Field(grid, q), -0.25),
               sobolev_norm(Field(grid, np.conj(rr)), -0.25))
    if size > delta:
        raise DataTooLarge(
            f"|q| in H^(-1/4) is {size:.3f} > {delta}; outside the contraction gate"
        )
    g12, g21, gamma, iters, res = fixed_point_raw(
        grid, q, rr, kappa, tol=tol, max_iter=max_iter, gamma0=gamma0
    )
    return GreensTriple(kappa, g12, g21, gamma, "fixed_point",
                        {"iterations": iters, "residual": res, "tol": tol})


# ---------------------------------------------------------------------------
# Explicit series


def series_raw(grid: Grid, q: np.ndarray, r: np.ndarray, kappa: float, order: int):
    _check_kappa(kappa)
    if order not in (1, 3):
        raise LaxError(f"series order must be 1 or 3, got {order}")
    inv_m = inverse_shift_symbol(2.0 * kappa, -1)(grid.xi)
    inv_p = inverse_shift_symbol(2.0 * kappa, +1)(grid.xi)
    mq = apply_multiplier(q, inv_m, grid)     # q/(2k - d)
    pr = apply_multiplier(r, inv_p, grid)     # r/(2k + d)
    g12 = -mq
    g21 = pr
    gamma = -2.0 * dealiased_mul(mq, pr)
    if order == 3:
        g12_3 = 2.0 * apply_multiplier(
            dealiased_mul(q, dealiased_mul(pr, mq)), inv_m, grid)
        g21_3 = -2.0 * apply_multiplier(
            dealiased_mul(r, dealiased_mul(mq, pr)), inv_p, grid)
        gamma_4 = (2.0 * (dealiased_mul(g12, g21_3) + dealiased_mul(g12_3, g21))
                   - 0.5 * dealiased_mul(gamma, gamma))
        g12 = g12 + g12_3
        g21 = g21 + g21_3
        gamma = gamma + gamma_4
    return g12, g21, gamma


def greens_series(f: Field, kappa: float, order: int = 3,
                  r: np.ndarray | None = None) -> GreensTriple:
    """Triple from the explicit paraproducts: g12, g21 through ``order``
    (1 or 3), gamma through ``order + 1``."""
    grid, q, rr = _field_qr(f, r)
    g12, g21, gamma = series_raw(grid, q, rr, kappa, order)
    return GreensTriple(kappa, g12, g21, gamma, f"series({order})", {"order": order})


# ---------------------------------------------------------------------------
# Dense oracle


def _multiplier_matrix(grid: Grid, symbol) -> np.ndarray:
    m = np.asarray(symbol(grid.xi), dtype=np.complex128)
    eye = np.eye(grid.points, dtype=np.complex128)
    return np.fft.ifft(m[:, None] * np.fft.fft(eye, axis=0), axis=0)


def greens_oracle(f: Field, kappa: float, r: np.ndarray | None = None) -> GreensTriple:
    """Brute-force triple from the dense discrete Lax operator.

    Builds the 2N x 2N operator and forms the kernel difference
    (L^{-1} - L0^{-1}) / dx = -L^{-1} V L0^{-1} / dx.  The kernel difference
    is continuous across the diagonal but has derivative kinks there, so a
    band-limited diagonal read is only first-order accurate.  The first four
    terms of the resolvent expansion carry those kinks; they are subtracted
    as dense matrices (same biased read) and re-added as their exact
    multiplier-form diagonals.  Everything of order five and higher still
    comes from the dense inverse alone.

    The condition number of the dense operator is reported in the metadata
    and gates against near-singular data.
    """
    grid, q, rr = _field_qr(f, r)
    _check_kappa(kappa)
    n = grid.points
    if n > ORACLE_MAX_POINTS:
        raise LaxError(
            f"dense oracle capped at N={ORACLE_MAX_POINTS}; got N={n} "
            "(use the series or fixed-point route)"
        )
    if abs(kappa) * grid.length < ORACLE_MIN_KAPPA_L:
        raise LaxError(
            f"kappa*L = {abs(kappa) * grid.length:.1f} < {ORACLE_MIN_KAPPA_L}; "
            "periodization error would pollute the oracle"
        )
    k_minus = _multiplier_matrix(grid, lambda xi: kappa - 1j * xi)
    k_plus = _multiplier_matrix(grid, lambda xi: kappa + 1j * xi)
    lax = np.block([[k_minus, np.diag(q)], [-np.diag(rr), k_plus]])
    inv0_m = _multiplier_matrix(grid, inverse_shift_symbol(kappa, -1))
    inv0_p = _multiplier_matrix(grid, inverse_shift_symbol(kappa, +1))
    zero = np.zeros((n, n), dtype=np.complex128)
    lax0_inv = np.block([[inv0_m, zero], [zero, inv0_p]])
    try:
        lax_inv = np.linalg.inv(lax)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"discrete Lax operator singular at kappa={kappa}") from exc
    cond = (np.linalg.norm(lax, 1) * np.linalg.norm(lax_inv, 1))
    if cond > ORACLE_MAX_COND:
        raise IllConditioned(
            f"discrete Lax operator ill-conditioned (cond ~ {cond:.2e}) at kappa={kappa}"
        )
    pot = np.block([[zero, np.diag(q)], [-np.diag(rr), zero]])
    tail = -(lax_inv @ (pot @ lax0_inv))
    step = pot @ lax0_inv
    acc = lax0_inv
    for order in range(1, 5):
        acc = acc @ step
        tail -= ((-1.0) ** order) * acc
    tail /= grid.dx
    sgn = 1.0 if kappa > 0 else -1.0
    d11 = np.diagonal(tail[:n, :n])
    d22 = np.diagonal(tail[n:, n:])
    d12 = np.diagonal(tail[:n, n:])
    d21 = np.diagonal(tail[n:, :n])
    s12, s21, sgam = series_raw(grid, q, rr, kappa, 3)
    return GreensTriple(kappa, sgn * d12 + s12, sgn * d21 + s21,
                        sgn * (d11 + d22) + sgam, "oracle", {"cond": float(cond)})


# ---------------------------------------------------------------------------
# Perturbation determinant


@dataclass
class OperatorPair:
    """Dense Hilbert-Schmidt factors of the potential at one kappa."""

    kappa: float
    lam: np.ndarray
    gam: np.ndarray

    def hs_norms(self) -> tuple[float, float]:
        return (float(np.linalg.norm(self.lam)), float(np.linalg.norm(self.gam)))


def operator_pair(f: Field, kappa: float, r: np.ndarray | None = None,
                  validate: bool = True) -> OperatorPair:
    grid, q, rr = _field_qr(f, r)
    _check_kappa(kappa)
    if grid.points > ORACLE_MAX_POINTS:
        raise LaxError(f"dense operator pair capped at N={ORACLE_MAX_POINTS}")
    half_m = _multiplier_matrix(grid, fractional_symbol(kappa, -1, 0.5))
    half_p = _multiplier_matrix(grid, fractional_symbol(kappa, +1, 0.5))
    lam = half_m @ (q[:, None] * half_p)
    gam = half_p @ (rr[:, None] * half_m)
    pair = OperatorPair(kappa, lam, gam)
    if validate and r is None:
        a, b = pair.hs_norms()
        scale = max(a, b)
        if scale > 0 and abs(a - b) > 1e-10 * scale:
            raise LaxError(
                f"Hilbert-Schmidt norms of the pair differ: {a:.12e} vs {b:.12e}"
            )
    return pair


@dataclass
class TraceDeterminant:
    value: complex
    order: int
    last_term: float
    spectral_radius: float


def _power_radius(mat: np.ndarray, iters: int = 60, seed: int = 7) -> float:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
    v /= np.linalg.norm(v)
    radius = 0.0
    for _ in range(iters):
        w = mat @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        radius = norm
        v = w / norm
    return float(radius)


def pdet_trace(f: Field, kappa: float, order: int = 8,
               r: np.ndarray | None = None,
               pair: OperatorPair | None = None) -> TraceDeterminant:
    """Determinant from the alternating trace series, truncated at ``order``.

    The spectral radius of Lambda*Gamma is estimated first; radius >= 1 means
    the series diverges (data outside the small ball) and raises.

    tr(Lambda Gamma) has a slowly decaying tail in the frequency direction
    that a band-limited matrix trace truncates at first order, so the m = 1
    term uses its exact closed form sgn(kappa) * int r (2k-d)^{-1} q dx; all
    higher traces come from the dense pair.
    """
    if order < 1:
        raise LaxError(f"truncation order must be >= 1, got {order}")
    grid, q, rr = _field_qr(f, r)
    if pair is None:
        pair = operator_pair(f, kappa, r=r)
    prod = pair.lam @ pair.gam
    radius = _power_radius(prod)
    if radius >= 1.0:
        raise DivergentSeries(
            f"spectral radius of Lambda*Gamma is {radius:.3f} >= 1 at kappa={kappa}"
        )
    sgn = 1.0 if kappa > 0 else -1.0
    mq = apply_multiplier(q, inverse_shift_symbol(2.0 * kappa, -1), grid)
    term = sgn * grid.integrate(rr * mq)
    total = term
    power = prod
    for m in range(2, order + 1):
        power = power @ prod
        term = sgn * ((-1.0) ** (m - 1) / m) * np.trace(power)
        total += term
    return TraceDeterminant(total, order, abs(term), radius)


def density_raw(q: np.ndarray, r: np.ndarray, triple: GreensTriple,
                guard: float = 0.5) -> np.ndarray:
    """The conserved density (q g21 - r g12) / (2 + gamma)."""
    denom = 2.0 + triple.gamma
    small = float(np.min(np.abs(denom)))
    if small < guard:
        raise LaxError(
            f"density denominator |2 + gamma| reaches {small:.3f} < {guard}; "
            "data too large"
        )
    return (dealiased_mul(q, triple.g21) - dealiased_mul(r, triple.g12)) / denom


def pdet_integral(f: Field, kappa: float, triple: GreensTriple,
                  r: np.ndarray | None = None) -> complex:
    """Determinant as the grid integral of the density."""
    grid, q, rr = _field_qr(f, r)
    if triple.kappa != kappa:
        raise LaxError(
            f"triple computed at kappa={triple.kappa}, requested {kappa}"
        )
    return grid.integrate(density_raw(q, rr, triple))


def alpha(f: Field, kappa: float, tol: float = 1e-12) -> float:
    """The real conserved quantity: (focusing sign) * Re A(kappa), kappa >= 1."""
    if kappa < 1.0:
        raise LaxError(f"alpha requires kappa >= 1, got {kappa}")
    triple = greens_fixed_point(f, kappa, tol=tol)
    a = pdet_integral(f, kappa, triple)
    return f.sign * a.real


def triple_at_minus_kappa(f: Field, triple: GreensTriple) -> GreensTriple:
    """Conjugation image of a triple at -kappa (slaved partner only)."""
    return GreensTriple(
        -triple.kappa,
        f.sign * np.conj(triple.g21),
        f.sign * np.conj(triple.g12),
        np.conj(triple.gamma),
        triple.method + "+symmetry",
        dict(triple.meta),
    )
