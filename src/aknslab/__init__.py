"""Numerical laboratory for the NLS/mKdV integrable hierarchy.

Diagonal Green's functions of the Lax operator, the perturbation
determinant and its conserved densities and currents, the full,
regularized, and difference flows, and the norm-inflation experiment, all
on a periodic pseudo-spectral grid.
"""

from .spectral import Field, Grid, apply_multiplier, sobolev_norm
from .lax import (
    GreensTriple,
    alpha,
    greens_fixed_point,
    greens_oracle,
    greens_series,
    pdet_integral,
    pdet_trace,
)
from .hierarchy import (
    HamiltonianValue,
    current,
    density,
    expansion_error,
    hamiltonians,
    poisson_bracket,
)
from .flows import FlowSpec, Trajectory, evolve
from .diagnostics import (
    InflationReport,
    ResidualReport,
    kappa_convergence_study,
    local_smoothing_norm,
    micro_residual,
    norm_inflation_experiment,
    tightness_metric,
)
from .config import ExperimentConfig

__version__ = "0.1.0"

__all__ = [
    "Field", "Grid", "apply_multiplier", "sobolev_norm",
    "GreensTriple", "alpha", "greens_fixed_point",
    "greens_oracle", "greens_series", "pdet_integral", "pdet_trace",
    "HamiltonianValue", "current", "density", "expansion_error",
    "hamiltonians", "poisson_bracket",
    "FlowSpec", "Trajectory", "evolve",
    "InflationReport", "ResidualReport", "kappa_convergence_study",
    "local_smoothing_norm", "micro_residual", "norm_inflation_experiment",
    "tightness_metric",
    "ExperimentConfig",
]
