"""Numerical laboratory for the NLS/mKdV integrable hierarchy.

Diagonal Green's functions of the Lax operator, the perturbation
determinant and its conserved densities and currents, the full,
regularized, and difference flows, and the norm-inflation experiment, all
on a periodic pseudo-spectral grid.
"""

import ctypes

# glibc's allocator, for the whole process: arrays below 32 MiB come from the
# heap, and freed heap below 256 MiB is kept, so the stages of a flow or a
# solve reuse their temporaries' pages instead of faulting them in anew.
# Where the C library has no mallopt the allocator keeps its own policy.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    _mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD

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
