"""Initial-data profiles used by the experiments and the test suites."""

from __future__ import annotations

import math

import numpy as np

from .spectral import TWO_PI, Field, Grid, SpectralError, sobolev_norm


def gaussian(grid: Grid, amplitude: float = 0.1, width: float = 1.0,
             sign: int = +1) -> Field:
    """amplitude * exp(-(x/width)^2)."""
    if width <= 0:
        raise SpectralError(f"gaussian width must be positive, got {width}")
    # far from the centre of a huge box x^2 overflows; the Gaussian there is 0
    with np.errstate(over="ignore"):
        return Field(grid, amplitude * np.exp(-((grid.x / width) ** 2)), sign)


def constant(grid: Grid, amplitude: complex, sign: int = +1) -> Field:
    return Field(grid, np.full(grid.points, amplitude, dtype=np.complex128), sign)


def plane_wave(grid: Grid, amplitude: complex, xi0: float, sign: int = +1) -> Field:
    """amplitude * exp(i xi0 x); xi0 must sit on the frequency lattice."""
    k = xi0 / grid.dxi
    if abs(k - round(k)) > 1e-9:
        raise SpectralError(
            f"xi0 = {xi0} is not on the frequency lattice (spacing {grid.dxi:.6g})"
        )
    return Field(grid, amplitude * np.exp(1j * xi0 * grid.x), sign)


def spectral_profile(grid: Grid, profile, sign: int = +1) -> Field:
    """Field with prescribed line transform q_hat(xi_k) = profile(xi_k), where
    q_hat(xi_k) = (dx / sqrt(2 pi)) sum_j q(x_j) exp(-i xi_k x_j): the raw
    coefficients times dx / sqrt(2 pi) and the node phase (-1)^k, which the
    origin x_0 = -L/2 gives."""
    # on a tiny box xi^2 overflows and the profile is inf * 0 there
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.asarray(profile(grid.xi), dtype=np.complex128)
    if not np.all(np.isfinite(coeffs)):
        raise SpectralError("profile is not finite on the frequency lattice")
    phase = np.where(np.arange(grid.points) % 2 == 0, 1.0, -1.0)
    return Field(grid, np.fft.ifft(phase * coeffs) * (math.sqrt(TWO_PI) / grid.dx), sign)


def mean_zero_even(grid: Grid, amplitude: float, sign: int = +1) -> Field:
    """Mean-zero data with transform a xi^2 exp(-xi^2) (even-flow seed)."""
    return spectral_profile(grid, lambda xi: amplitude * xi**2 * np.exp(-(xi**2)), sign)


def mean_zero_odd(grid: Grid, amplitude: float, sign: int = +1) -> Field:
    """Mean-zero data with transform a (xi^2 + xi^3) exp(-xi^2) (odd-flow seed)."""
    return spectral_profile(
        grid, lambda xi: amplitude * (xi**2 + xi**3) * np.exp(-(xi**2)), sign
    )


def random_schwartz(grid: Grid, rng: np.random.Generator, norm: float = 0.1,
                    sign: int = +1) -> Field:
    """Random smooth, spatially localized field of size ``norm`` in H^(-1/4).

    Complex noise is shaped by a Gaussian of width 2.5 in frequency,
    localized by a Gaussian envelope of width 4 in space, and finally
    band-limited to 2/3 of the lattice's band, so spectral tails and
    boundary values both sit at machine level on a sensible box.
    """
    n = grid.points
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shaped = noise * np.exp(-((grid.xi / 2.5) ** 2))
    values = np.fft.ifft(shaped) * np.exp(-((grid.x / 4.0) ** 2))
    cut = 2.0 / 3.0 * float(np.max(np.abs(grid.xi)))
    spectrum = np.fft.fft(values)
    spectrum[np.abs(grid.xi) > cut] = 0.0
    values = np.fft.ifft(spectrum)
    f = Field(grid, values, sign)
    current = sobolev_norm(f, -0.25)
    if current == 0.0:
        raise SpectralError("degenerate random field")
    return Field(grid, values * (norm / current), sign)
