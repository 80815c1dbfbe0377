"""Diagonal Green's-function quantities of the Lax operator and the
perturbation determinant.

Three independent routes to the diagonal triple (g12, g21, gamma) at a real
spectral parameter kappa, |kappa| >= 1:

* ``greens_oracle``      -- dense inversion of the discrete operator
                            [[kappa - d, q], [-r, kappa + d]] through its
                            N x N Schur complement, whose inverse is the
                            only cubic step; brute force, used as the
                            reference for everything else;
* ``greens_series``      -- the explicit low-order paraproducts;
* ``greens_fixed_point`` -- iteration of the coupled identities
                            g12 = -(2k-d)^{-1}[q(1+gamma)],
                            g21 =  (2k+d)^{-1}[r(1+gamma)],
                            gamma = 2 g12 g21 - gamma^2/2.

Its kernel ``fixed_point_raw`` works on raw ``np.fft`` coefficients and
checks the H^{-1/4} smallness gate ``DELTA_GATE`` on every solve; it also
takes a batch of independent solves stacked along axis 0, one kappa per
row.  Callers outside this module solve through ``greens_fixed_point``, or
through ``FixedPointChain`` for a sequence of solves at one kappa or one
batch of kappas (flow stages, trajectory snapshots); its ``solve`` is the
one grid boundary, and its ``solve_raw`` serves callers that hold
coefficients already.

The determinant A(kappa) comes either from the trace series over the
Hilbert-Schmidt pair (Lambda, Gamma), summed by Sylvester's identity as
log det(1 + Lambda Gamma) = log det(1 + R C- Q C+), C-/+ = (kappa -/+ d)^{-1},
one dense matrix and one LU, or from integrating the density
(q g21 - r g12)/(2 + gamma).  The pair is never formed: its norms are
closed forms, and its spectral radius is the largest |eigenvalue| of the
same M applied matrix-free, found by a thick-restart Arnoldi iteration in
numpy and exact to about 1e-14.  The module imports no scipy.

Field-level entry points read the conjugate partner as ``Field.r`` (the
generating flow's independent ``partner``, else sign * conj(q)); only the
``*_raw`` kernels take q and r as two arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import as_strided
# imported by name so that numpy 2's lazy numpy.random loads with aknslab,
# not inside the first run
from numpy.random import default_rng

from .spectral import (
    Field,
    Grid,
    SpectralError,
    apply_multiplier,
    dealiased_mul,
    inverse_shift_symbol,
    pad,
    sobolev_weight,
    truncate,
    weighted_norm_sq,
)

#: Smallness gate for the contraction regime (norm of q in H^{-1/4}).
DELTA_GATE = 0.25

#: Smallest |2 + gamma| the density and the currents divide by.
DENSITY_GUARD = 0.5

#: Dense-oracle limits.
ORACLE_MAX_POINTS = 1024
ORACLE_MIN_KAPPA_L = 40.0
ORACLE_MAX_COND = 1e10


class LaxError(RuntimeError):
    pass


class DataTooLarge(LaxError):
    """Field norm exceeds the small-data gate of the chosen method."""


class NonContraction(LaxError):
    """Fixed-point residual grew or missed the tolerance; data too large."""


class IllConditioned(LaxError):
    """Discrete Lax operator is numerically singular."""


class DivergentSeries(LaxError):
    """Trace series outside the small ball: spectral radius or branch bound too large."""


class KappaError(LaxError, SpectralError):
    """A spectral parameter outside the range a routine takes (a usage error)."""


def check_kappa(kappa: float) -> None:
    if not np.isfinite(kappa) or abs(kappa) < 1.0:
        raise KappaError(f"spectral parameter must be real with |kappa| >= 1, got {kappa}")


@dataclass
class GreensTriple:
    """Diagonal Green's data at one spectral parameter; from a batched chain,
    (B, N) rows at the chain's kappa."""

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
        return grid.l2_norm(res)


# ---------------------------------------------------------------------------
# Fixed point


def fixed_point_raw(grid: Grid, q_hat: np.ndarray, r_hat: np.ndarray, kappa,
                    tol: float = 1e-12, max_iter: int = 200,
                    gamma0: np.ndarray | None = None,
                    delta: float = DELTA_GATE):
    """Iterate the three coupled identities from gamma = 0 (or a warm start).

    q_hat, r_hat and the warm start ``gamma0`` are N raw ``np.fft``
    coefficients, and so are the returned (g12_hat, g21_hat, gamma_hat,
    iterations, residual).  The first residual growth raises
    ``NonContraction``: inside the gate the iteration contracts, so a growth
    means the data are too large for this route.

    A batch of B independent solves is stacked along axis 0: q_hat, r_hat
    and gamma0 of shape (B, N), or (N,) shared by every row, and kappa of
    shape (B,), or a scalar shared by every row.  Each row has its own gate,
    residual and ``NonContraction``, naming its kappa, and leaves the batch
    once it converges, so its triple is bitwise that of its one-row solve.
    A batch returns (B, N) rows, the number of iterations the batch ran (the
    largest over its rows) and the largest final residual; both stay Python
    numbers, as for one row.

    Every solve first checks the contraction gate: ``DataTooLarge`` unless
    both |q| and |conj r| in H^{-1/4} are at most ``delta`` (so non-finite
    data, whose norms are nan, never pass).  The two norms are
    ``weighted_norm_sq`` over q_hat and r_hat, so the gate costs no
    transform; the H^{-1/4} weight is even on the lattice, so it also weighs
    r's coefficients for |conj r|.

    q and r are padded to 3N/2 points together, once per solve.  Each
    iteration pads gamma, forms gamma q and gamma r there and truncates them
    together, applies (2 kappa -/+ d)^{-1} as a coefficient multiply, pads
    g12 and g21 together, and truncates 2 g12 g21 - gamma^2/2: four
    transform calls of size 3N/2, each over every row still iterating.
    Every product is quadratic, so ``pad`` and ``truncate`` at 3N/2 give the
    Galerkin products ``dealiased_mul`` forms for two factors, and the
    residual is the L2 norm of the update by Parseval.

    A call of k iterations makes 4k + 3 transform calls, all of size 3N/2:
    one pad of q and r, and two to rebuild g12 and g21 of every row from its
    final gamma.  The symbols need no finiteness check: ``check_kappa``
    gives |2 kappa -/+ i xi| >= 2.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    for k in kappa.flat:
        check_kappa(k)
    n = grid.points
    rows = np.broadcast_shapes(kappa.shape, q_hat.shape[:-1], r_hat.shape[:-1],
                               () if gamma0 is None else gamma0.shape[:-1])
    if len(rows) > 1:
        raise LaxError(f"a batch of solves stacks rows along axis 0, got shape {rows + (n,)}")
    b = rows[0] if rows else 1
    if b == 0:
        raise LaxError("a batch of solves needs at least one row")
    kappas = np.broadcast_to(kappa, (b,))
    qr = np.stack((np.broadcast_to(q_hat, (b, n)), np.broadcast_to(r_hat, (b, n))))
    weight = sobolev_weight(grid, -0.25)
    # huge data overflow the squares to size inf, and non-finite data give a
    # nan size; the gate rejects both
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = np.sqrt(weighted_norm_sq(qr, grid, weight))
    inside = (sizes <= delta).all(axis=0)
    if not inside.all():
        i = int(np.argmin(inside))
        detail = ("the data is not finite" if math.isnan(sizes[0, i] + sizes[1, i])
                  else f"|q| in H^(-1/4) is {max(sizes[:, i]):.3g} > {delta}")
        raise DataTooLarge(f"{detail} at kappa={kappas[i]}; outside the contraction gate")
    twice = tuple(2.0 * k for k in kappas.tolist())
    inv_m, inv_p = (inverse_shift_symbol(grid, twice, sgn) for sgn in (-1, +1))
    parseval = grid.dx / n
    m = 3 * n // 2  # every product below is quadratic
    qr_fine = pad(qr, m)
    gamma_hat = (np.zeros((b, n), dtype=np.complex128) if gamma0 is None
                 else np.array(np.broadcast_to(gamma0, (b, n))))
    worst = 0.0
    # the rows still iterating, and their slices of every per-row array
    live = np.arange(b)
    (q, r), gamma, q_fine, mi, pi = qr, gamma_hat, qr_fine, inv_m, inv_p
    prev_res = np.full(b, np.inf)
    for it in range(1, max_iter + 1):
        gamma_fine = pad(gamma, m)
        prods = truncate(gamma_fine * q_fine, n)
        g_fine = pad(np.stack((-mi * (q + prods[0]), pi * (r + prods[1]))), m)
        update = truncate(2.0 * g_fine[0] * g_fine[1] - 0.5 * gamma_fine * gamma_fine, n)
        diff = update - gamma
        res = np.sqrt(parseval * np.sum(np.abs(diff) ** 2, axis=-1))
        gamma = gamma + diff
        done = res < tol
        grew = ~done & (res >= prev_res)
        if grew.any():
            i = int(np.argmax(grew))
            raise NonContraction(
                f"fixed point diverging at kappa={kappas[live[i]]}: residual "
                f"{res[i]:.3e} grew from {prev_res[i]:.3e}; reduce the data or use "
                "the dense oracle"
            )
        if done.any():
            gamma_hat[live[done]] = gamma[done]
            worst = max(worst, float(np.max(res[done])))
            if done.all():
                break
            keep = ~done
            live, gamma, res = live[keep], gamma[keep], res[keep]
            (q, r), q_fine, mi, pi = qr[:, live], qr_fine[:, live], inv_m[live], inv_p[live]
        prev_res = res
    else:
        raise NonContraction(
            f"fixed point did not reach tol={tol:.1e} in {max_iter} iterations at "
            f"kappa={kappas[live[0]]} (last residual {prev_res[0]:.3e})"
        )
    prods = truncate(pad(gamma_hat, m) * qr_fine, n)
    g12_hat, g21_hat = -inv_m * (qr[0] + prods[0]), inv_p * (qr[1] + prods[1])
    if not rows:
        return g12_hat[0], g21_hat[0], gamma_hat[0], it, worst
    return g12_hat, g21_hat, gamma_hat, it, worst


def greens_fixed_point(f: Field, kappa: float, tol: float = 1e-12) -> GreensTriple:
    """One cold solve: the first of a ``FixedPointChain``, which warm-starts
    a sequence of them."""
    return FixedPointChain(f.grid, kappa, tol).solve(f.values, f.r)


class FixedPointChain:
    """Fixed-point solves at one kappa and tolerance, each warm-started from
    the gamma of the previous one (the first is cold), with their work
    counted.  ``solve_raw`` takes and returns raw ``np.fft`` coefficients and
    keeps gamma's as the next warm start; ``solve`` wraps it for grid values,
    transforming q and r and inverse-transforming the three rows at once.

    A chain of batched solves takes kappa as an array of shape (B,), or
    solves (B, N) data at one kappa; each row warm-starts from its own
    previous gamma, and the counts are the batch's (``fixed_point_raw``)."""

    def __init__(self, grid: Grid, kappa, tol: float = 1e-12):
        self.grid = grid
        self.kappa = kappa
        self.tol = tol
        self.gamma_hat: np.ndarray | None = None  # the next solve's warm start
        self.solves = 0
        self.iterations = 0
        self.min_iterations = math.inf
        self.max_iterations = 0
        self.worst_residual = 0.0

    def solve_raw(self, q_hat: np.ndarray, r_hat: np.ndarray):
        """(g12_hat, g21_hat, gamma_hat, iterations, residual), as from
        ``fixed_point_raw``, warm-started and counted."""
        out = fixed_point_raw(self.grid, q_hat, r_hat, self.kappa, tol=self.tol,
                              gamma0=self.gamma_hat)
        self.gamma_hat, iters, res = out[2:]
        self.min_iterations = min(self.min_iterations, iters)
        self.max_iterations = max(self.max_iterations, iters)
        self.iterations += iters
        self.solves += 1
        self.worst_residual = max(self.worst_residual, res)
        return out

    def solve(self, q: np.ndarray, r: np.ndarray) -> GreensTriple:
        """The triple at the chain's kappa; for a batch, its rows are the
        rows of q and r (or of kappa)."""
        # huge data overflow the transform; the kernel's gate rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            q_hat, r_hat = np.fft.fft(q), np.fft.fft(r)
        *hats, iters, res = self.solve_raw(q_hat, r_hat)
        g12, g21, gamma = np.fft.ifft(np.stack(hats))
        return GreensTriple(self.kappa, g12, g21, gamma, "fixed_point",
                            {"iterations": iters, "residual": res, "tol": self.tol})

    def stats(self) -> dict:
        """Iterations per solve (min, mean, max) and the largest final
        residual over every solve so far; empty before the first."""
        if not self.solves:
            return {}
        return {"fp_iterations": {"min": self.min_iterations,
                                  "mean": self.iterations / self.solves,
                                  "max": self.max_iterations},
                "fp_worst_residual": self.worst_residual}


# ---------------------------------------------------------------------------
# Explicit series


def series_raw(grid: Grid, q: np.ndarray, r: np.ndarray, kappa: float):
    check_kappa(kappa)
    inv_m = inverse_shift_symbol(grid, 2.0 * kappa, -1)
    inv_p = inverse_shift_symbol(grid, 2.0 * kappa, +1)
    mq = apply_multiplier(q, inv_m, grid)     # q/(2k - d)
    pr = apply_multiplier(r, inv_p, grid)     # r/(2k + d)
    g12 = -mq
    g21 = pr
    gamma = -2.0 * dealiased_mul(mq, pr)
    g12_3 = 2.0 * apply_multiplier(dealiased_mul(q, pr, mq), inv_m, grid)
    g21_3 = -2.0 * apply_multiplier(dealiased_mul(r, mq, pr), inv_p, grid)
    gamma_4 = (2.0 * (dealiased_mul(g12, g21_3) + dealiased_mul(g12_3, g21))
               - 0.5 * dealiased_mul(gamma, gamma))
    return g12 + g12_3, g21 + g21_3, gamma + gamma_4


def greens_series(f: Field, kappa: float) -> GreensTriple:
    """Triple from the explicit paraproducts: g12 and g21 through order 3,
    gamma through order 4."""
    g12, g21, gamma = series_raw(f.grid, f.values, f.r, kappa)
    return GreensTriple(kappa, g12, g21, gamma, "series(3)", {"order": 3})


# ---------------------------------------------------------------------------
# Dense oracle
#
# The only dense work is one N x N inverse (and, for the trace determinant,
# one LU).  Every other factor is a diagonal scaling or a Fourier
# multiplier, applied by the FFT along one axis, and only diagonals are read:
# diag(A B) = sum_j A_ij B_ji costs O(N^2) once both factors are known.


def _multiplier_matrix(m: np.ndarray) -> np.ndarray:
    """The matrix of the multiplier C v = ifft(m * fft(v)) with symbol values
    m on the lattice: the circulant C_ij = c[(i - j) mod N], c = ifft(m),
    copied from a strided view of (c reversed, then c[N-1:0:-1])."""
    c = np.fft.ifft(m)
    n = c.size
    ext = np.concatenate((c[::-1], c[:0:-1]))
    step = ext.strides[0]
    return as_strided(ext[n - 1:], shape=(n, n), strides=(-step, step)).copy()


def _apply_right(mat: np.ndarray, m: np.ndarray) -> np.ndarray:
    """mat @ C for the multiplier C with symbol values m: C^T = F diag(m) F^{-1},
    so each row a of mat becomes fft(m * ifft(a)), in one new array."""
    out = np.fft.ifft(mat, axis=1)
    np.multiply(m, out, out=out)
    return np.fft.fft(out, axis=1, out=out)


def _apply_left(mat: np.ndarray, m: np.ndarray) -> np.ndarray:
    """C @ mat for the multiplier C with symbol values m: each column v of mat
    becomes ifft(m * fft(v)), in one new array."""
    out = np.fft.fft(mat, axis=0)
    out *= m[:, None]
    return np.fft.ifft(out, axis=0, out=out)


def _diag_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a @ b) without forming the product: sum_j a_ij b_ji."""
    return np.einsum("ij,ji->i", a, b)


def _column_sums(mat: np.ndarray) -> np.ndarray:
    return np.abs(mat).sum(axis=0)


def greens_oracle(f: Field, kappa: float) -> GreensTriple:
    """Brute-force triple from the dense discrete Lax operator.

    The operator is L = L0 + V, with L0 = diag(A, B), A = kappa - d,
    B = kappa + d, and V = [[0, Q], [-R, 0]] for the diagonal scalings Q
    and R by q and r.  The triple is read from the diagonals of the kernel
    difference (L^{-1} - L0^{-1}) / dx.  That difference is continuous
    across the diagonal but has derivative kinks there, so a band-limited
    diagonal read is only first-order accurate.  The first four terms of the
    resolvent expansion carry those kinks; they are subtracted from the
    dense kernel (same biased read) and re-added as their exact
    multiplier-form diagonals, the order-3 series.  With W = -V L0^{-1} the
    subtracted kernel is

        L^{-1} - L0^{-1}(1 + W + W^2 + W^3 + W^4) = (L^{-1} - R3) W,
        R3 = L0^{-1}(1 + W + W^2 + W^3),

    so everything of order five and higher still comes from the dense
    inverse alone.

    L is never formed.  Its inverse comes from the N x N Schur complement
    S = B + R C- Q, with C-/+ = (kappa -/+ d)^{-1}, block by block:

        [[C- - C- Q S^{-1} R C-, -C- Q S^{-1}],
         [S^{-1} R C-,           S^{-1}      ]].

    ``np.linalg.inv`` of S is the only cubic step.  Every other factor is a
    diagonal scaling or a Fourier multiplier, applied by the FFT along the
    rows (on the right) or the columns (on the left).  W's blocks, -Q C+ and
    R C-, are of the same kind, so each term of R3 is one apply, subtracted
    in place from its block of L^{-1}, and each block diagonal of
    (L^{-1} - R3) W is an O(N^2) read, diag(A D C)_i = sum_j A_ij d_j C_ji.
    Each block is freed once it is read.

    The exact 1-norm condition number of L is reported in the metadata:
    ||L||_1 from the symbols and the largest |q| and |r|, ||L^{-1}||_1 from
    the blocks' column sums.  ``IllConditioned`` is raised when S is singular
    or not finite (data far past every gate overflow it), when the condition
    number exceeds ``ORACLE_MAX_COND`` or is not finite, and when the triple
    is not finite.
    """
    grid, q, rr = f.grid, f.values, f.r
    check_kappa(kappa)
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
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results raise below
        xi = grid.xi
        inv_m = inverse_shift_symbol(grid, kappa, -1)
        inv_p = inverse_shift_symbol(grid, kappa, +1)
        c_m = _multiplier_matrix(inv_m)
        schur = c_m * q
        schur *= rr[:, None]
        schur += _multiplier_matrix(kappa + 1j * xi)
        if not np.all(np.isfinite(schur)):
            raise IllConditioned(
                f"Schur complement of the discrete Lax operator not finite at "
                f"kappa={kappa}; data too large"
            )
        try:
            s_inv = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"discrete Lax operator singular at kappa={kappa}") from exc
        del schur
        # column sums of |L^{-1}| over its left and right block columns
        right = _column_sums(s_inv)
        # block 12 = -C- Q S^{-1} minus its R3 terms -C- Q C+ and
        # -C- Q C+ R C- Q C+; the middle term, top = -C- Q C+ R C-, is block 11's
        err = _apply_left(q[:, None] * s_inv, inv_m)
        np.negative(err, out=err)
        right += _column_sums(err)
        top = _apply_right(c_m * q, inv_p)
        np.negative(top, out=top)
        err -= top
        top *= rr
        top = _apply_right(top, inv_m)
        err += _apply_right(top * q, inv_p)
        # block (i, 0) of (L^{-1} - R3) W is err[i, 1] R C-, block (i, 1) is -err[i, 0] Q C+
        d11 = _diag_of_product(err * rr, c_m) / grid.dx
        del err
        # block 21 = S^{-1} R C-, and block 11 = C- - C- Q (21): its R3 terms
        # C- and top leave -(C- Q (21) + top)
        block21 = _apply_right(s_inv * rr, inv_m)
        left = _column_sums(block21)
        err = _apply_left(q[:, None] * block21, inv_m)
        left += _column_sums(c_m - err)
        err += top
        del top
        c_p = _multiplier_matrix(inv_p)
        d12 = _diag_of_product(err * q, c_p) / grid.dx
        del err
        # block 21 minus its R3 terms C+ R C- and C+ R C- Q C+ R C-; the middle
        # term, bottom = -C+ R C- Q C+, is block 22's with C+, and block 22 =
        # S^{-1} is read first so that S^{-1} is freed
        bottom = _apply_right(c_p * rr, inv_m)
        block21 -= bottom
        bottom *= q
        bottom = _apply_right(bottom, inv_p)
        np.negative(bottom, out=bottom)
        s_inv -= c_p
        s_inv -= bottom
        d21 = _diag_of_product(s_inv * rr, c_m) / grid.dx
        del s_inv
        bottom *= rr
        block21 -= _apply_right(bottom, inv_m)
        del bottom
        d22 = -_diag_of_product(block21 * q, c_p) / grid.dx
        # a block column of L holds one circulant column and one entry of r or q
        norm = max(np.sum(np.abs(np.fft.ifft(kappa - 1j * xi))) + np.max(np.abs(rr)),
                   np.sum(np.abs(np.fft.ifft(kappa + 1j * xi))) + np.max(np.abs(q)))
        cond = float(norm * max(np.max(left), np.max(right)))
        if not cond <= ORACLE_MAX_COND:
            raise IllConditioned(
                f"discrete Lax operator ill-conditioned (cond ~ {cond:.2e}) at kappa={kappa}"
            )
        sgn = 1.0 if kappa > 0 else -1.0
        s12, s21, sgam = series_raw(grid, q, rr, kappa)
        g12 = sgn * d12 + s12
        g21 = sgn * d21 + s21
        gamma = sgn * (d11 + d22) + sgam
    if not all(np.all(np.isfinite(v)) for v in (g12, g21, gamma)):
        raise IllConditioned(
            f"oracle triple not finite at kappa={kappa} (cond ~ {cond:.2e}); data too large"
        )
    return GreensTriple(kappa, g12, g21, gamma, "oracle", {"cond": cond})


# ---------------------------------------------------------------------------
# Perturbation determinant


def operator_pair(f: Field, kappa: float) -> tuple[float, float]:
    """(|Lambda|_HS, |Gamma|_HS) of Lambda = H- Q H+ and Gamma = H+ R H-,
    H-/+ = (kappa -/+ d)^{-1/2}, unformed: |H-/+|^2 are both the circulant
    of the even symbol |kappa - i xi|^{-1}, kernel k, so |Lambda|_HS^2 =
    sum_ij conj(q_i) q_j |k(i-j)|^2 is the weighted norm of q with weight
    fft(|k|^2), and |Gamma|_HS that of r.  They must be finite, and agree to
    1e-10 when the partner is slaved."""
    grid = f.grid
    check_kappa(kappa)
    kernel = np.fft.ifft(np.abs(inverse_shift_symbol(grid, kappa, -1)))
    weight = np.fft.fft(np.abs(kernel) ** 2).real / grid.dx
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite norms raise below
        a, b = np.sqrt(weighted_norm_sq(np.fft.fft(np.stack((f.values, f.r))), grid, weight))
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DivergentSeries(f"Hilbert-Schmidt norms not finite at kappa={kappa}; "
                              "data too large")
    if f.partner is None and not abs(a - b) <= 1e-10 * max(a, b):
        raise LaxError(f"Hilbert-Schmidt norms of the pair differ: {a:.12e} vs {b:.12e}")
    return float(a), float(b)


#: Arnoldi vectors ``_arnoldi_radius`` holds at once; localized data reach the
#: residual test in 9 to 27 steps, before the first restart.
RADIUS_BASIS = 40
#: Arnoldi steps ``pdet_trace`` allows per grid point.  Spread-out data
#: (constant, plane wave) have a clustered top: at N = 1024 and L = 128,
#: constant q needs 191 steps at kappa = 4 and 1,101 at kappa = 32.
RADIUS_STEPS_PER_POINT = 10


def _arnoldi_radius(matvec, v0: np.ndarray, steps: int) -> float | None:
    """Largest |eigenvalue| of the N x N operator ``matvec``, by thick-restart
    Arnoldi from v0 with classical Gram-Schmidt applied twice.

    The Ritz values are the eigenvalues of the projected matrix H (Hessenberg
    until the first restart), and the top Ritz pair (theta, y), |y| = 1,
    after step j has the residual |h_{j+1,j} y_j|.  Returns |theta| once that
    residual is at most 1e-15 |theta| or the basis spans all N dimensions,
    and None if neither happens within ``steps`` steps or H is not finite.
    A full basis of ``RADIUS_BASIS`` vectors restarts from the span of its
    top half of Ritz vectors, orthonormalized; the next step restores the
    decomposition M V = V H + beta v e^T, with H full in its leading block
    (Morgan, Math. Comp. 65, 1996; Wu & Simon, SIAM J. Matrix Anal. Appl.
    22, 2000)."""
    n = v0.size
    m = min(RADIUS_BASIS, n)
    keep = m // 2
    basis = np.empty((m + 1, n), dtype=np.complex128)
    hess = np.zeros((m + 1, m), dtype=np.complex128)
    basis[0] = v0 / np.linalg.norm(v0)
    j = 0
    for _ in range(steps):
        w = matvec(basis[j])
        for _ in range(2):
            h = basis[:j + 1].conj() @ w
            w -= h @ basis[:j + 1]
            hess[:j + 1, j] += h
        beta = np.linalg.norm(w)
        hess[j + 1, j] = beta
        if not np.all(np.isfinite(hess[:j + 2, j])):
            return None
        theta, y = np.linalg.eig(hess[:j + 1, :j + 1])
        top = np.argmax(np.abs(theta))
        if beta * abs(y[j, top]) <= 1e-15 * abs(theta[top]) or j + 1 == n:
            return float(abs(theta[top]))
        basis[j + 1] = w / beta
        j += 1
        if j == m:  # V <- V Q, H <- Q^* H Q, residual row e^T <- e^T Q
            q = np.linalg.qr(y[:, np.argsort(-np.abs(theta), kind="stable")[:keep]])[0]
            lead, row = q.conj().T @ hess[:m] @ q, hess[m] @ q
            basis[:keep] = q.T @ basis[:m]
            basis[keep] = basis[m]
            hess[:] = 0.0
            hess[:keep, :keep] = lead
            hess[keep, :keep] = row
            j = keep
    return None


@dataclass
class TraceDeterminant:
    value: complex
    spectral_radius: float


def pdet_trace(f: Field, kappa: float) -> TraceDeterminant:
    """Determinant from the alternating trace series, summed as
    sgn(kappa) * log det(1 + Lambda Gamma).

    As C-/+ = H-/+^2, Sylvester's identity det(1 + AB) = det(1 + BA) gives
    Lambda Gamma the eigenvalues, the trace and det(1 + .) of the one
    operator M = R C- Q C+, the oracle's R C- Q times C+.  Its spectral
    radius rho comes from Arnoldi (``_arnoldi_radius``, seed-7 start, at most
    ``RADIUS_STEPS_PER_POINT`` * N steps) on M applied matrix-free, two
    multipliers a step, exact to about 1e-14.  slogdet gives
    sum_i arg(1 + lambda_i) only mod 2 pi, and that sum is at most
    a b / (1 - rho) for the Hilbert-Schmidt norms a, b (``operator_pair``).  So ``DivergentSeries``
    is raised, in this order, unless a and b are finite, a b < pi (keeping
    data too large for the branch bound away from the dense work and
    Arnoldi), rho < 1 (rho = 0 if a b = 0; Arnoldi that does not converge
    raises too) and a b / (1 - rho) < pi.

    tr(Lambda Gamma) has a slowly decaying tail in the frequency direction
    that a band-limited matrix trace truncates at first order, so the m = 1
    term uses its exact closed form sgn(kappa) * int r (2k-d)^{-1} q dx; the
    terms m >= 2 sum to log det(1 + M) - tr M.  M is the one N x N array
    (so N <= ``ORACLE_MAX_POINTS``) and its LU (``slogdet``) the only cubic
    step.
    """
    grid, q, rr = f.grid, f.values, f.r
    n = grid.points
    if n > ORACLE_MAX_POINTS:
        raise LaxError(f"dense trace determinant capped at N={ORACLE_MAX_POINTS}; "
                       f"got N={n} (use the density integral)")
    a, b = operator_pair(f, kappa)
    if a * b >= math.pi:
        raise DivergentSeries(f"branch bound |Lambda|_HS |Gamma|_HS / (1 - rho) >= "
                              f"{a * b:.3g} is not below pi at kappa={kappa}")
    inv_m, inv_p = (inverse_shift_symbol(grid, kappa, sgn) for sgn in (-1, +1))
    mat = _multiplier_matrix(inv_m)
    mat *= q
    mat *= rr[:, None]
    mat = _apply_right(mat, inv_p)  # M = R C- Q C+
    # r underflows in decaying tails: entries below 1e-150 move det(1 + M) far
    # below roundoff, but their products in the LU are subnormal and slow
    mat[np.abs(mat) < 1e-150] = 0.0
    trace = np.trace(mat)
    mat.flat[::n + 1] += 1.0  # I + M, in place
    sign, logabs = np.linalg.slogdet(mat)
    radius = 0.0  # a b = 0 makes M zero
    if a * b > 0.0:
        rng = default_rng(7)
        steps = RADIUS_STEPS_PER_POINT * n
        radius = _arnoldi_radius(lambda v: rr * apply_multiplier(
            q * apply_multiplier(v, inv_p, grid), inv_m, grid),  # M = R C- Q C+
            rng.standard_normal(n) + 1j * rng.standard_normal(n), steps)
        if radius is None:
            raise DivergentSeries(f"spectral radius of Lambda*Gamma not found in "
                                  f"{steps} Arnoldi steps at kappa={kappa}")
    if not radius < 1.0:
        raise DivergentSeries(f"spectral radius of Lambda*Gamma is {radius:.3f}, "
                              f"not below 1, at kappa={kappa}")
    bound = a * b / (1.0 - radius)
    if bound >= math.pi:
        raise DivergentSeries(f"branch bound |Lambda|_HS |Gamma|_HS / (1 - rho) = "
                              f"{bound:.3f} is not below pi at kappa={kappa}")
    sgn = 1.0 if kappa > 0 else -1.0
    mq = apply_multiplier(q, inverse_shift_symbol(grid, 2.0 * kappa, -1), grid)
    term = sgn * grid.integrate(rr * mq)
    return TraceDeterminant(term + sgn * (np.log(sign) + logabs - trace), radius)


def density_denominator(triple: GreensTriple) -> np.ndarray:
    """2 + gamma, the denominator of the density and the currents; raises
    when |2 + gamma| comes within ``DENSITY_GUARD`` of zero."""
    denom = 2.0 + triple.gamma
    small = float(np.min(np.abs(denom)))
    if small < DENSITY_GUARD:
        raise LaxError(
            f"density denominator |2 + gamma| reaches {small:.3f} < {DENSITY_GUARD}; "
            "data too large"
        )
    return denom


def density_raw(q: np.ndarray, r: np.ndarray, triple: GreensTriple) -> np.ndarray:
    """The conserved density (q g21 - r g12) / (2 + gamma)."""
    denom = density_denominator(triple)
    return (dealiased_mul(q, triple.g21) - dealiased_mul(r, triple.g12)) / denom


def pdet_integral(f: Field, kappa: float, triple: GreensTriple) -> complex:
    """Determinant as the grid integral of the density."""
    if triple.kappa != kappa:
        raise LaxError(
            f"triple computed at kappa={triple.kappa}, requested {kappa}"
        )
    return f.grid.integrate(density_raw(f.values, f.r, triple))


def alpha(f: Field, kappa: float, tol: float = 1e-12) -> float:
    """The real conserved quantity: (focusing sign) * Re A(kappa), kappa >= 1."""
    if kappa < 1.0:
        raise KappaError(f"alpha requires kappa >= 1, got {kappa}")
    triple = greens_fixed_point(f, kappa, tol=tol)
    a = pdet_integral(f, kappa, triple)
    return f.sign * a.real


def triple_at_minus_kappa(f: Field, triple: GreensTriple) -> GreensTriple:
    """Conjugation image of a triple at -kappa (slaved partner only).

    The image is exact only away from the unpaired Nyquist mode.  On the
    lattice the +kappa solve's g21 carries the symbol 1/(2 kappa + i xi) at
    xi_N = -N/2 dxi, so the image's g12 carries 1/(2 kappa - i xi_N) there,
    where a solve at -kappa applies 1/(2 kappa + i xi_N).  Flows therefore
    derive g12(-kappa) = (2 kappa + d)^{-1} [q (1 + conj gamma(kappa))] from
    the +kappa gamma, which applies the lattice multiplier itself (see
    ``flows.Integrator._g12_pm``).
    """
    return GreensTriple(
        -triple.kappa,
        f.sign * np.conj(triple.g21),
        f.sign * np.conj(triple.g12),
        np.conj(triple.gamma),
        triple.method + "+symmetry",
        dict(triple.meta),
    )
