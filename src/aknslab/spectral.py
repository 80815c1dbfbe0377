"""Periodic pseudo-spectral foundation: grids, fields, Fourier multipliers,
weighted Sobolev norms, and the slowly-varying cutoff family.

The periodic box of length L stands in for the whole line.  The transform
normalization is chosen once so that discrete quantities converge to their
continuum counterparts as L, N grow:

    q_hat(xi_k) = (dx / sqrt(2*pi)) * sum_j q(x_j) exp(-i xi_k x_j)

and all integrals are plain grid quadrature, int f dx ~= dx * sum_j f(x_j).
Every module downstream uses these conventions and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * math.pi

#: Decay scale of the cutoff sech(x / CUTOFF_SCALE).  Kept configurable; the
#: default matches the slowly-varying choice used throughout the diagnostics.
CUTOFF_SCALE = 99.0


class SpectralError(ValueError):
    """Invalid spectral input: singular symbol, off-lattice frequency, ..."""


class SingularSymbolError(SpectralError):
    """A Fourier symbol is singular (or non-finite) on the frequency lattice."""


@lru_cache(maxsize=64)
def _lattice(length: float, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = -0.5 * length + (length / points) * np.arange(points)
    xi = TWO_PI * np.fft.fftfreq(points, d=length / points)
    # node origin -L/2: exp(-i xi_k x_0) = exp(i pi k) alternates in sign
    phase = np.where(np.arange(points) % 2 == 0, 1.0, -1.0)
    x.setflags(write=False)
    xi.setflags(write=False)
    phase.setflags(write=False)
    return x, xi, phase


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: nodes x_j = -L/2 + j L/N, frequencies 2*pi*k/L."""

    length: float
    points: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise SpectralError(f"grid length must be positive, got {self.length}")
        n = self.points
        if n < 4 or (n & (n - 1)) != 0:
            raise SpectralError(f"grid points must be a power of two >= 4, got {n}")

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def dxi(self) -> float:
        return TWO_PI / self.length

    @property
    def x(self) -> np.ndarray:
        return _lattice(self.length, self.points)[0]

    @property
    def xi(self) -> np.ndarray:
        """Frequency lattice in FFT (wrap-around) order."""
        return _lattice(self.length, self.points)[1]

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Forward transform with the continuum-consistent normalization,
        q_hat(xi_k) = (dx / sqrt(2 pi)) sum_j q(x_j) exp(-i xi_k x_j), phases
        taken at the true nodes (so coefficients approximate the line
        transform of data centred in the box)."""
        phase = _lattice(self.length, self.points)[2]
        return (self.dx / math.sqrt(TWO_PI)) * phase * np.fft.fft(values)

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        phase = _lattice(self.length, self.points)[2]
        return np.fft.ifft(phase * coeffs) * (math.sqrt(TWO_PI) / self.dx)

    def integrate(self, values: np.ndarray) -> complex:
        """Grid quadrature of int f dx (spectrally accurate on the torus)."""
        return self.dx * complex(np.sum(values))


@dataclass
class Field:
    """Complex grid function q plus the sign fixing the conjugate partner.

    sign=+1 is the defocusing convention (partner = conj(q)), sign=-1 the
    focusing one (partner = -conj(q)).
    """

    grid: Grid
    values: np.ndarray
    sign: int = +1

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise SpectralError(f"sign must be +1 or -1, got {self.sign}")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.points,):
            raise SpectralError(
                f"values shape {v.shape} does not match grid ({self.grid.points},)"
            )
        if not np.all(np.isfinite(v)):
            raise SpectralError("field contains non-finite values")
        self.values = v

    @property
    def r(self) -> np.ndarray:
        """The conjugate partner sign * conj(q)."""
        return self.sign * np.conj(self.values)

    def hat(self) -> np.ndarray:
        return self.grid.fft(self.values)

    def copy(self, values: np.ndarray | None = None) -> "Field":
        return Field(self.grid, self.values.copy() if values is None else values, self.sign)

    def l2_norm(self) -> float:
        return math.sqrt(self.grid.dx * float(np.sum(np.abs(self.values) ** 2)))

    def boundary_decay(self) -> float:
        """max |q| over the outer 5% of nodes, relative to max |q|."""
        n = self.grid.points
        edge = max(1, int(round(0.025 * n)))
        mags = np.abs(self.values)
        peak = float(mags.max())
        if peak == 0.0:
            return 0.0
        outer = max(float(mags[:edge].max()), float(mags[-edge:].max()))
        return outer / peak

    def check_schwartz(self, rtol: float = 1e-10) -> None:
        """Verify the boundary-decay invariant for fields claiming Schwartz data."""
        ratio = self.boundary_decay()
        if ratio > rtol:
            raise SpectralError(
                f"boundary decay {ratio:.3e} exceeds {rtol:.1e}; "
                "field does not represent Schwartz data on this box"
            )


# ---------------------------------------------------------------------------
# Fourier multipliers


def apply_multiplier(f, symbol, grid: Grid | None = None):
    """Apply a Fourier multiplier: inverse-transform of symbol(xi) * f_hat(xi).

    ``f`` may be a Field (returns a Field) or a raw array (requires ``grid``,
    returns an array).  ``symbol`` is a callable on the frequency lattice or a
    precomputed array.  Singular/non-finite symbol values raise, naming the
    offending frequency.
    """
    if isinstance(f, Field):
        out = apply_multiplier(f.values, symbol, f.grid)
        return Field(f.grid, out, f.sign)
    if grid is None:
        raise SpectralError("grid required when applying a multiplier to a raw array")
    m = np.asarray(symbol(grid.xi) if callable(symbol) else symbol, dtype=np.complex128)
    if m.shape != grid.xi.shape:
        raise SpectralError(f"symbol shape {m.shape} does not match lattice {grid.xi.shape}")
    bad = ~np.isfinite(m)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularSymbolError(
            f"multiplier symbol singular on the lattice at xi = {grid.xi[k]:.6g}"
        )
    return np.fft.ifft(m * np.fft.fft(np.asarray(f, dtype=np.complex128)))


def derivative_symbol(order: int = 1):
    """Symbol of d^order/dx^order."""
    return lambda xi: (1j * xi) ** order


def inverse_shift_symbol(c: float, deriv_sign: int):
    """Symbol of (c + deriv_sign * d/dx)^(-1); requires c != 0."""
    if c == 0:
        raise SingularSymbolError("(c +/- d/dx)^(-1) needs c != 0")
    return lambda xi: 1.0 / (c + deriv_sign * 1j * xi)


def fractional_symbol(kappa: float, deriv_sign: int, sigma: float):
    """Symbol of (kappa + deriv_sign * d/dx)^(-sigma).

    Fractional powers use z^(-sigma) = |z|^(-sigma) exp(-i sigma arg z) with
    arg in (-pi, pi].
    """
    if kappa == 0:
        raise SingularSymbolError("(kappa +/- d/dx)^(-sigma) needs kappa != 0")

    def symbol(xi):
        z = kappa + deriv_sign * 1j * xi
        return np.abs(z) ** (-sigma) * np.exp(-1j * sigma * np.angle(z))

    return symbol


def diff(values: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Spectral derivative of a raw array."""
    return apply_multiplier(values, derivative_symbol(order), grid)


# ---------------------------------------------------------------------------
# Dealiased products (2x zero padding: exact Galerkin product of two
# band-limited factors, so cubic terms built pairwise are alias-free)


def _upsample(coeffs: np.ndarray, m: int) -> np.ndarray:
    n = coeffs.shape[0]
    h = n // 2
    out = np.zeros(m, dtype=np.complex128)
    out[:h] = coeffs[:h]
    out[m - h:] = coeffs[n - h:]
    return out


def _downsample(coeffs: np.ndarray, n: int) -> np.ndarray:
    m = coeffs.shape[0]
    h = n // 2
    out = np.empty(n, dtype=np.complex128)
    out[:h] = coeffs[:h]
    out[n - h:] = coeffs[m - h:]
    return out


def to_fine_grid(coeffs: np.ndarray) -> np.ndarray:
    """Values on the 2N padded grid of the band-limited function whose N raw
    ``np.fft`` coefficients are ``coeffs``."""
    return np.fft.ifft(_upsample(coeffs, 2 * coeffs.shape[0])) * 2.0


def from_fine_grid(values: np.ndarray, n: int) -> np.ndarray:
    """The N raw ``np.fft`` coefficients of the coarse band of values on the
    2N padded grid.  Applied to a product of two ``to_fine_grid`` factors it
    gives the Galerkin product; it is linear, so a sum of such products may
    be truncated once."""
    return _downsample(np.fft.fft(values), n) * 0.5


def dealiased_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product of two grid functions with zero-padded transforms."""
    prod = np.fft.fft(to_fine_grid(np.fft.fft(a)) * to_fine_grid(np.fft.fft(b)))
    # halving after the inverse transform (not before, as in from_fine_grid)
    # keeps this product bit-identical on subnormal data
    return np.fft.ifft(_downsample(prod, a.shape[0])) * 0.5


def dealiased_product(*factors: np.ndarray) -> np.ndarray:
    """Left-to-right dealiased product of several factors."""
    out = factors[0]
    for f in factors[1:]:
        out = dealiased_mul(out, f)
    return out


# ---------------------------------------------------------------------------
# Weighted Sobolev norms


def weighted_norm_sq(coeffs: np.ndarray, xi: np.ndarray, dxi: float,
                     sigma: float, kappa: float = 1.0) -> float:
    w = (4.0 * kappa * kappa + xi * xi) ** sigma
    return dxi * float(np.sum(w * np.abs(coeffs) ** 2))


def sobolev_norm(f: Field, sigma: float, kappa: float = 1.0) -> float:
    """Norm with weight (4*kappa^2 + xi^2)^sigma; kappa >= 1."""
    if kappa < 1.0:
        raise SpectralError(f"sobolev_norm requires kappa >= 1, got {kappa}")
    g = f.grid
    return math.sqrt(weighted_norm_sq(f.hat(), g.xi, g.dxi, sigma, kappa))


# ---------------------------------------------------------------------------
# Cutoff family


def bump(x, scale: float = CUTOFF_SCALE):
    """The slowly-varying cutoff profile sech(x / scale)."""
    u = np.abs(np.asarray(x, dtype=np.float64)) / scale
    e = np.exp(-u)
    return 2.0 * e / (1.0 + e * e)


def _even_power_antiderivative(t: np.ndarray, p: int) -> np.ndarray:
    # int_{-1}^{t} (1-u^2)^(p/2-1) du, the tanh-substituted primitive of sech^p
    m = p // 2 - 1
    acc = np.zeros_like(t)
    for k in range(m + 1):
        c = math.comb(m, k) * (-1.0) ** k / (2 * k + 1)
        acc = acc + c * (t ** (2 * k + 1) + 1.0)
    return acc


@dataclass(frozen=True)
class Cutoff:
    """Translated powers of the cutoff: psi_h^p(x) = sech((x-h)/scale)^p."""

    grid: Grid
    center: float
    power: int
    scale: float = CUTOFF_SCALE

    def __post_init__(self) -> None:
        if not 1 <= self.power <= 12:
            raise SpectralError(f"cutoff power must lie in 1..12, got {self.power}")

    def samples(self) -> np.ndarray:
        return bump(self.grid.x - self.center, self.scale) ** self.power

    def antiderivative(self) -> np.ndarray:
        """phi_h(x) = int_{-inf}^{x} psi_h^p dy, exact via the tanh primitive.

        Only even powers admit the polynomial primitive; the box boundary is
        treated as -infinity, which is accurate once psi_h^p has decayed there.
        """
        if self.power % 2 != 0:
            raise SpectralError("antiderivative implemented for even powers only")
        t = np.tanh((self.grid.x - self.center) / self.scale)
        return self.scale * _even_power_antiderivative(t, self.power)


def partition_constant(scale: float = CUTOFF_SCALE) -> float:
    """Numerically integrate int psi^12 dx (a calibration self-test)."""
    val, _ = quad(lambda x: bump(x, scale) ** 12, -np.inf, np.inf)
    return val
