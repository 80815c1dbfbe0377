"""Periodic pseudo-spectral foundation: grids, fields, Fourier multipliers,
weighted Sobolev norms, and the slowly-varying cutoff family.

The periodic box of length L stands in for the whole line.  There is one
Fourier representation, the raw ``np.fft`` coefficients
X_k = sum_j q(x_j) exp(-2 pi i j k / N), listed on the frequency lattice
``Grid.xi`` in wrap-around order, and one form of a Fourier symbol, its
array of values on that lattice.  ``inverse_shift_symbol`` (one row per c
when given a tuple of them, for a batch of solves) and the Sobolev weight
``sobolev_weight`` are cached per grid and read-only, so every solve and
every norm shares them.  ``fractional_symbol`` is cached the same way; no
solve uses it, only the selftest's fractional-adjoint check and the tests,
whose dense reference is built on it.

The continuum line transform of data centred in the box is

    q_hat(xi_k) = (dx / sqrt(2*pi)) * (-1)^k * X_k,

the sign being the phase of the node origin -L/2.  It is written only where
it has meaning: ``weighted_norm_sq`` scales by dx / sqrt(2*pi), the phase
having modulus one, ``profiles.spectral_profile`` prescribes data by their
line transform, and ``diagnostics.scale_family_norm_sq`` integrates it.
All integrals are plain grid quadrature, int f dx ~= dx * sum_j f(x_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# imported by name so that numpy 2's lazy numpy.fft loads with aknslab, not
# inside the first transform of a run
from numpy.fft import fftfreq

TWO_PI = 2.0 * math.pi

#: Decay scale of the cutoff sech(x / CUTOFF_SCALE), the slowly-varying choice
#: every diagnostic uses.  ``bump`` and ``cutoff_antiderivative`` default to
#: it; their tests check the cutoff algebra at smaller scales.
CUTOFF_SCALE = 99.0


class SpectralError(ValueError):
    """Invalid spectral input: singular symbol, off-lattice frequency, ..."""


class SingularSymbolError(SpectralError):
    """A Fourier symbol is singular (or non-finite) on the frequency lattice."""


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@lru_cache(maxsize=64)
def _lattice(length: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    x = -0.5 * length + (length / points) * np.arange(points)
    xi = TWO_PI * fftfreq(points, d=length / points)
    return _frozen(x), _frozen(xi)


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

    def integrate(self, values: np.ndarray) -> complex:
        """Grid quadrature of int f dx (spectrally accurate on the torus)."""
        return self.dx * complex(np.sum(values))

    def l2_norm(self, values: np.ndarray) -> float:
        """Grid L2 norm, sqrt(dx * sum |v|^2)."""
        return math.sqrt(self.dx * float(np.sum(np.abs(values) ** 2)))


@dataclass(frozen=True)
class Field:
    """Complex grid function q and its conjugate partner r.

    By default r is slaved to q: sign=+1 is the defocusing convention
    (r = conj(q)), sign=-1 the focusing one (r = -conj(q)).  A ``partner``
    array makes r an independent unknown, as the generating flow needs.
    The field is frozen: ``values`` and ``partner`` cannot be rebound past
    the validation below.
    """

    grid: Grid
    values: np.ndarray
    sign: int = +1
    partner: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise SpectralError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "values", self._grid_array("values", self.values))
        if self.partner is not None:
            object.__setattr__(self, "partner", self._grid_array("partner", self.partner))

    def _grid_array(self, name: str, values) -> np.ndarray:
        v = np.asarray(values, dtype=np.complex128)
        if v.shape != (self.grid.points,):
            raise SpectralError(
                f"{name} shape {v.shape} does not match grid ({self.grid.points},)"
            )
        if not np.all(np.isfinite(v)):
            raise SpectralError(f"non-finite entries in the field's {name}")
        return v

    @property
    def r(self) -> np.ndarray:
        """The conjugate partner: ``partner`` when set, else sign * conj(q)."""
        if self.partner is None:
            return self.sign * np.conj(self.values)
        return self.partner

    def l2_norm(self) -> float:
        return self.grid.l2_norm(self.values)

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


def apply_multiplier(values: np.ndarray, symbol: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply a Fourier multiplier to grid values along the last axis: the
    inverse transform of symbol * fft(values), for the symbol's values on
    the lattice (one row, or one row per row of a batch).  Singular or
    non-finite symbol values raise, naming the offending frequency.
    """
    m = np.asarray(symbol, dtype=np.complex128)
    if m.shape[-1:] != grid.xi.shape:
        raise SpectralError(f"symbol shape {m.shape} does not match lattice {grid.xi.shape}")
    bad = ~np.isfinite(m)
    if np.any(bad):
        k = int(np.argmax(bad)) % grid.points
        raise SingularSymbolError(
            f"multiplier symbol singular on the lattice at xi = {grid.xi[k]:.6g}"
        )
    return np.fft.ifft(m * np.fft.fft(np.asarray(values, dtype=np.complex128)))


@lru_cache(maxsize=64)
def inverse_shift_symbol(grid: Grid, c: float | tuple, deriv_sign: int) -> np.ndarray:
    """Lattice values of the symbol of (c + deriv_sign * d/dx)^(-1), cached
    read-only; requires c != 0.  A tuple of c gives one row each, a (B, N)
    batch of symbols."""
    cs = np.asarray(c)
    if np.any(cs == 0):
        raise SingularSymbolError("(c +/- d/dx)^(-1) needs c != 0")
    return _frozen(1.0 / (cs[..., None] + deriv_sign * 1j * grid.xi))


@lru_cache(maxsize=64)
def fractional_symbol(grid: Grid, kappa: float, deriv_sign: int, sigma: float) -> np.ndarray:
    """Lattice values of the symbol of (kappa + deriv_sign * d/dx)^(-sigma),
    cached read-only.

    Fractional powers use z^(-sigma) = |z|^(-sigma) exp(-i sigma arg z) with
    arg in (-pi, pi].
    """
    if kappa == 0:
        raise SingularSymbolError("(kappa +/- d/dx)^(-sigma) needs kappa != 0")
    z = kappa + deriv_sign * 1j * grid.xi
    return _frozen(np.abs(z) ** (-sigma) * np.exp(-1j * sigma * np.angle(z)))


def diff(values: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Spectral derivative d^order/dx^order of grid values."""
    # (i xi)^order overflows on a tiny box; the multiplier rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        symbol = (1j * grid.xi) ** order
    return apply_multiplier(values, symbol, grid)


# ---------------------------------------------------------------------------
# Dealiased products (zero padding: a product of d band-limited factors is
# alias-free on (d+1)N/2 points, so each product is padded and truncated once).
# Each function acts on the last axis, so a stack of rows goes through one
# transform call.


def pad(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Values on m >= N points of the band-limited function whose N raw
    ``np.fft`` coefficients are ``coeffs`` (modes -N/2 .. N/2-1)."""
    n = coeffs.shape[-1]
    h = n // 2
    out = np.zeros(coeffs.shape[:-1] + (m,), dtype=np.complex128)
    out[..., :h] = coeffs[..., :h]
    out[..., m - h:] = coeffs[..., n - h:]
    np.fft.ifft(out, out=out)
    out *= m / n
    return out


def truncate(values: np.ndarray, n: int) -> np.ndarray:
    """The N raw ``np.fft`` coefficients (modes -N/2 .. N/2-1) of values on
    a padded grid.  Applied to a product of ``pad`` factors it gives the
    Galerkin product; it is linear, so a sum of products truncates once."""
    m = values.shape[-1]
    h = n // 2
    full = np.fft.fft(values)
    out = np.empty(values.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = full[..., :h]
    out[..., n - h:] = full[..., m - h:]
    out *= n / m
    return out


@lru_cache(maxsize=16)
def _nyquist_wave(m: int, h: int) -> np.ndarray:
    # exp(-2 pi i h j / m) - exp(2 pi i h j / m), the angle reduced exactly
    w = -2j * np.sin((TWO_PI / m) * ((h * np.arange(m)) % m))
    w.setflags(write=False)
    return w


def pad_partner(padded_q: np.ndarray, q_hat: np.ndarray, sign: int) -> np.ndarray:
    """``pad(np.fft.fft(sign * conj(q)), m)`` without a transform, from
    ``padded_q = pad(q_hat, m)`` and q's N raw coefficients ``q_hat``.

    Conjugation maps mode k to -k, so sign * conj(padded_q) is the padded
    partner except at the unpaired Nyquist mode: it carries conj(q_hat[N/2])
    at +N/2, where the partner keeps it at -N/2.  One cached wave moves it.
    """
    n = q_hat.shape[-1]
    h = n // 2
    wave = _nyquist_wave(padded_q.shape[-1], h)
    return sign * (np.conj(padded_q) + (np.conj(q_hat[..., h:h + 1]) / n) * wave)


def dealiased_mul(*factors: np.ndarray) -> np.ndarray:
    """Galerkin product of d grid functions: each factor is transformed and
    padded once to (d+1)N/2 points, multiplied there and truncated once."""
    n = factors[0].shape[-1]
    m = (len(factors) + 1) * n // 2
    prod = pad(np.fft.fft(factors[0]), m)
    for f in factors[1:]:
        prod *= pad(np.fft.fft(f), m)
    return np.fft.ifft(truncate(prod, n))


# ---------------------------------------------------------------------------
# Weighted Sobolev norms


@lru_cache(maxsize=64)
def sobolev_weight(grid: Grid, sigma: float, kappa: float = 1.0) -> np.ndarray:
    """The H^sigma_kappa weight (4 kappa^2 + xi^2)^sigma on the lattice,
    cached read-only; kappa >= 1.  Where xi^2 overflows (a tiny box) it is
    0 for sigma < 0 and inf for sigma > 0."""
    if not kappa >= 1.0:
        raise SpectralError(f"the Sobolev weight requires kappa >= 1, got {kappa}")
    with np.errstate(over="ignore"):
        return _frozen((4.0 * kappa * kappa + grid.xi * grid.xi) ** sigma)


def weighted_norm_sq(coeffs: np.ndarray, grid: Grid, weight: np.ndarray):
    """dxi * sum weight * |q_hat|^2 along the last axis, for raw ``np.fft``
    coefficients ``coeffs`` (one row or a batch of rows) and lattice values
    ``weight``; q_hat is the line transform, whose node phase drops out."""
    scaled = (grid.dx / math.sqrt(TWO_PI)) * coeffs
    return grid.dxi * np.sum(weight * np.abs(scaled) ** 2, axis=-1)


def sobolev_norm(f: Field, sigma: float, kappa: float = 1.0) -> float:
    """Norm with weight (4*kappa^2 + xi^2)^sigma; kappa >= 1."""
    weight = sobolev_weight(f.grid, sigma, kappa)
    return math.sqrt(weighted_norm_sq(np.fft.fft(f.values), f.grid, weight))


# ---------------------------------------------------------------------------
# Cutoff family


def bump(x, scale: float = CUTOFF_SCALE):
    """The slowly-varying cutoff profile sech(x / scale)."""
    u = np.abs(np.asarray(x, dtype=np.float64)) / scale
    e = np.exp(-u)
    return 2.0 * e / (1.0 + e * e)


def cutoff_antiderivative(x, power: int, scale: float = CUTOFF_SCALE) -> np.ndarray:
    """phi(x) = int_{-inf}^{x} bump(y, scale)^power dy for an even power,
    exact through the tanh primitive int_{-1}^{t} (1-u^2)^(power/2-1) du.

    On the box, phi_h is ``cutoff_antiderivative(grid.x - h, power)``: the
    box boundary stands in for -infinity, which is accurate once the power
    of the bump has decayed there.
    """
    if power % 2 != 0:
        raise SpectralError(f"the cutoff antiderivative takes even powers, got {power}")
    t = np.tanh(np.asarray(x, dtype=np.float64) / scale)
    m = power // 2 - 1
    acc = np.zeros_like(t)
    for k in range(m + 1):
        c = math.comb(m, k) * (-1.0) ** k / (2 * k + 1)
        acc = acc + c * (t ** (2 * k + 1) + 1.0)
    return scale * acc


def partition_constant(scale: float = CUTOFF_SCALE) -> float:
    """Numerically integrate int psi^12 dx (a calibration self-test).

    ``quad`` is imported here, not with the module, so that a run that does
    not calibrate does not load ``scipy.integrate``."""
    from scipy.integrate import quad

    val, _ = quad(lambda x: bump(x, scale) ** 12, -np.inf, np.inf)
    return val
