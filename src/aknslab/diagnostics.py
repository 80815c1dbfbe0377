"""Everything measured on fields and trajectories: conserved-quantity drift,
microscopic conservation residuals, local smoothing norms, tightness,
kappa-convergence of the difference flows, and the norm-inflation
experiment.

The time integrals (the flux side of a microscopic conservation law, the
local smoothing norm) are Simpson sums taken by ``_simpson``, a numpy copy of
``scipy.integrate.simpson``.  scipy's ``quad`` and ``CubicSpline`` are
imported only inside the scale-family quadrature, and ``quad`` inside
``spectral.partition_constant``; ``inflate`` and ``selftest`` alone call
them.  The reason is start-up cost: ``scipy.integrate`` and
``scipy.interpolate`` load ``scipy.special`` and ``scipy.optimize``, which
would otherwise be most of every subcommand's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .flows import FlowSpec, Integrator, SpecError, Trajectory, evolve
from .hierarchy import FLAVORS, POLE_GUARD, current, density, hamiltonians
from .lax import (FixedPointChain, GreensTriple, alpha as alpha_of, check_kappa,
                  greens_fixed_point)
from .profiles import mean_zero_even, mean_zero_odd
from .spectral import (
    TWO_PI,
    Field,
    Grid,
    apply_multiplier,
    bump,
    cutoff_antiderivative,
    diff,
    sobolev_norm,
    sobolev_weight,
    weighted_norm_sq,
)

DEFAULT_H_COUNT_INTEGRATED = 9
DEFAULT_H_COUNT_SUP = 33

#: Snapshots the fourth-order centred time stencil of ``micro_residual`` needs.
STENCIL_SNAPSHOTS = 5


class DiagnosticsError(RuntimeError):
    pass


class DiagnosticsSpecError(DiagnosticsError, SpecError):
    """A diagnostic request that cannot be run as given (a usage error)."""


def h_lattice(grid: Grid, count: int) -> np.ndarray:
    """Cutoff-center lattice spanning [-L/4, L/4]."""
    if count < 1:
        raise DiagnosticsSpecError(f"cutoff count must be >= 1, got {count}")
    return np.linspace(-grid.length / 4.0, grid.length / 4.0, count)


def check_kappas(kappas) -> tuple:
    """``kappas`` after the rule of alpha and the H^s_kappa norms, kappa >= 1."""
    for k in kappas:
        if not k >= 1.0:
            raise DiagnosticsSpecError(f"alpha and H^s_kappa norms need kappa >= 1, got {k}")
    return tuple(kappas)


def _simpson(y: np.ndarray, times: np.ndarray) -> np.float64:
    """``scipy.integrate.simpson(y, x=times)`` for 1-D ``y`` over strictly
    increasing ``times``, bitwise: composite Simpson over pairs of intervals
    with their own spacings, and for an even count Cartwright's correction
    for the last interval (the trapezoid rule at two points).  Each
    operation is scipy 1.17's, in its order, so the sums round alike."""
    n = len(y)
    d = np.diff(times)
    if n == 2:
        return 0.5 * d[-1] * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = d[0:stop:2], d[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2:
        return result
    # the last two spacings stay 0-d arrays, as in scipy: a scalar ** can
    # round differently
    a, b = np.squeeze(d[-2:-1]), np.squeeze(d[-1:])
    alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
    beta = (b ** 2 + 3.0 * a * b) / (6 * a)
    eta = 1 * b ** 3 / (6 * a * (a + b))
    return result + (alpha * y[-1] + beta * y[-2] - eta * y[-3])


# ---------------------------------------------------------------------------
# Conserved-quantity drift


@dataclass
class DriftReport:
    times: list
    table: dict            # name -> list of values along the trajectory
    relative_drift: dict   # name -> max |v(t) - v(0)| / max(|v(0)|, scale)
    scale_floor: float


def conserved_drift(traj: Trajectory, kappas: tuple = (),
                    fp_tol: float = 1e-13) -> DriftReport:
    """Hamiltonians (and alpha at the requested parameters) along a trajectory.

    Relative drift uses max(|v(0)|, ||q0||_L2^2) as denominator so that
    conserved values which vanish identically (momentum of real data, say)
    are still reported against the natural quadratic scale of the data.
    """
    names = ["mass", "momentum", "h_nls", "h_mkdv"]
    table: dict = {n: [] for n in names}
    for k in kappas:
        table[f"alpha({k:g})"] = []
    for i in range(len(traj)):
        f = traj.field(i)
        h = hamiltonians(f, check_real=False)
        for n in names:
            table[n].append(getattr(h, n))
        for k in kappas:
            table[f"alpha({k:g})"].append(alpha_of(f, k, tol=fp_tol))
    scale = traj.field(0).l2_norm() ** 2
    drift = {}
    for name, vals in table.items():
        v0 = vals[0]
        dev = max(abs(v - v0) for v in vals)
        # zero data stays zero, with nothing to scale by
        drift[name] = dev / max(abs(v0), scale) if dev else 0.0
    return DriftReport(list(traj.times), table, drift, scale)


# ---------------------------------------------------------------------------
# Microscopic conservation


@dataclass
class ResidualReport:
    flavor: str
    varkappa: float
    kappa: float | None
    dt: float
    window: float
    pointwise_l1: float
    pointwise_max: float
    integrated: list      # rows (h, lhs, rhs, gap, rel_gap)
    densities: list       # density at each snapshot
    currents: list        # matched current at each snapshot

    def max_rel_gap(self) -> float:
        return max(row[4] for row in self.integrated)


def _triples_along(grid: Grid, fields: list[Field], params: tuple,
                   fp_tol: float) -> list[list[GreensTriple]]:
    """Per field, its triples at each of ``params``: one batched chain, each
    row warm-started from its own triple at the previous field."""
    chain = FixedPointChain(grid, params, fp_tol)
    out = []
    for f in fields:
        t = chain.solve(f.values, f.r)
        out.append([GreensTriple(p, t.g12[i], t.g21[i], t.gamma[i], t.method, t.meta)
                    for i, p in enumerate(params)])
    return out


def _generating_kappas(flavor: str, kappa) -> tuple:
    """The generating parameters whose triples the current of ``flavor`` takes."""
    if flavor == "a_flow":
        return (kappa,)
    if flavor in ("nls_diff", "mkdv_diff"):
        return (kappa, -kappa)
    return ()


def micro_centres(spec: FlowSpec, grid: Grid, flavor: str, varkappa: float,
                  h_count: int) -> np.ndarray:
    """The cutoff centres of ``micro_residual`` for ``flavor`` at ``varkappa``
    on a flow of ``spec``, after every check of the request that needs no
    trajectory: a known flavor that pairs with the flow's kind, |varkappa|
    >= 1 away from the generating current's pole, at least
    ``STENCIL_SNAPSHOTS`` snapshots, a stride that divides the step count
    (so the snapshots are uniformly spaced), and ``h_count >= 1``.  A run
    calls it before its flow, so a usage error costs no step.
    """
    if flavor not in FLAVORS:
        raise DiagnosticsSpecError(f"unknown flavor {flavor!r}; "
                                   f"choose from {', '.join(FLAVORS)}")
    if FLAVORS[flavor] != spec.kind:
        raise DiagnosticsSpecError(f"flavor {flavor!r} pairs with the {FLAVORS[flavor]!r} "
                                   f"flow, but the flow is {spec.kind!r}")
    check_kappa(varkappa)
    for k in _generating_kappas(flavor, spec.kappa):
        if abs(k - varkappa) < POLE_GUARD * max(abs(k), abs(varkappa)):
            raise DiagnosticsSpecError(f"the {flavor} current has a pole at varkappa={k}")
    if spec.snapshots < STENCIL_SNAPSHOTS:
        raise DiagnosticsSpecError(
            f"need at least {STENCIL_SNAPSHOTS} snapshots for the stencil, but t_final, "
            f"dt and snapshot_stride give {spec.snapshots}")
    if spec.steps % spec.snapshot_stride:
        raise DiagnosticsSpecError(
            f"snapshot stride {spec.snapshot_stride} does not divide the "
            f"{spec.steps} steps, so the snapshots are not uniformly spaced")
    return h_lattice(grid, h_count)


def micro_residual(traj: Trajectory, varkappa: float, flavor: str,
                   h_count: int = DEFAULT_H_COUNT_INTEGRATED,
                   fp_tol: float = 1e-13) -> ResidualReport:
    """Pointwise and integrated residual of d_t(density) + d_x(current) = 0.

    Pointwise: fourth-order centred time stencil on uniformly spaced
    snapshots against the spectral x-derivative of the current (reported in
    space-time L1 and sup).  Integrated: for each cutoff centre h, the time
    integral (composite Simpson) of int j psi_h^12 dx against
    int [rho(T) - rho(0)] phi_h dx.
    """
    grid = traj.grid
    centres = micro_centres(traj.spec, grid, flavor, varkappa, h_count)
    # a trajectory that evolve did not make need not hold its spec's times
    times = np.asarray(traj.times)
    steps = np.diff(times)
    if len(times) != traj.spec.snapshots or \
            np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise DiagnosticsSpecError(f"the trajectory's times must be its spec's "
                                   f"{traj.spec.snapshots} snapshots, uniformly spaced")
    delta = float(steps[0])
    fields = [traj.field(i) for i in range(len(traj))]
    kap = traj.spec.kappa
    params = (varkappa,) + _generating_kappas(flavor, kap)
    solved = _triples_along(grid, fields, params, fp_tol)
    vk_triples = [t[0] for t in solved]
    extras = [tuple(t[1:]) for t in solved]

    tilde = flavor == "tilde_mkdv"
    rhos = [density(f, vk, tilde=tilde) for f, vk in zip(fields, vk_triples)]
    currents = [current(f, flavor, vk, extra)
                for f, vk, extra in zip(fields, vk_triples, extras)]

    l1 = 0.0
    sup = 0.0
    for n in range(2, len(traj) - 2):
        drho = (rhos[n - 2] - 8.0 * rhos[n - 1] + 8.0 * rhos[n + 1]
                - rhos[n + 2]) / (12.0 * delta)
        res = drho + diff(currents[n], grid)
        l1 += delta * grid.dx * float(np.sum(np.abs(res)))
        sup = max(sup, float(np.max(np.abs(res))))

    rows = []
    floor = 1e-300
    for h in centres:
        psi12 = bump(grid.x - h) ** 12
        phi = cutoff_antiderivative(grid.x - h, 12)
        flux = np.array([grid.dx * float(np.sum((j * psi12).real))
                         + 1j * grid.dx * float(np.sum((j * psi12).imag))
                         for j in currents])
        lhs = complex(_simpson(flux.real, times) + 1j * _simpson(flux.imag, times))
        rhs = grid.integrate((rhos[-1] - rhos[0]) * phi)
        gap = abs(lhs - rhs)
        rel = gap / max(abs(lhs), abs(rhs), floor)
        rows.append((float(h), lhs, rhs, gap, rel))
    return ResidualReport(flavor, varkappa, kap, traj.spec.dt,
                          float(times[-1] - times[0]), l1, sup, rows, rhos, currents)


def residual_refinement(q0: Field, varkappa: float, flavor: str, dts: tuple,
                        window: float, kappa: float | None = None,
                        fp_tol: float = 1e-13) -> list[ResidualReport]:
    """Rerun the flow at several step sizes and report the residuals."""
    reports = []
    for dt in dts:
        spec = FlowSpec(FLAVORS[flavor], dt, window, kappa=kappa, fp_tol=fp_tol)
        traj = evolve(q0, spec)
        reports.append(micro_residual(traj, varkappa, flavor, fp_tol=fp_tol))
    return reports


# ---------------------------------------------------------------------------
# Local smoothing


@dataclass
class LocalSmoothingReport:
    sigma: float
    kappa: float
    window: float
    value: float          # sup_h of the time-integrated localized H^sigma norm
    value_kappa: float    # the kappa-weighted variant
    h_count: int


def local_smoothing_norm(traj: Trajectory, sigma: float, kappa: float = 1.0,
                         h_count: int = DEFAULT_H_COUNT_SUP) -> LocalSmoothingReport:
    """sup over cutoff centres of the time-integrated localized norms.

    value:       sup_h int ||psi_h^6 q(t)||_{H^sigma}^2 dt
    value_kappa: sup_h int ||(4k^2 - d^2)^{-1/2} psi_h^6 q(t)||_{H^(sigma+1)}^2 dt

    The window is whatever the trajectory covers; it is reported alongside.
    kappa >= 1, as for every H^s_kappa norm.
    """
    check_kappas((kappa,))
    grid = traj.grid
    times = np.asarray(traj.times)
    best_plain = 0.0
    best_kappa = 0.0
    # a huge box or a large sigma overflows the weights or the squared
    # coefficients: reported, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        w_plain = sobolev_weight(grid, sigma)
        w_kappa = sobolev_weight(grid, sigma + 1.0) / sobolev_weight(grid, 1.0, kappa)
        for h in h_lattice(grid, h_count):
            coeffs = np.fft.fft(bump(grid.x - h) ** 6 * traj.states)
            plain = float(_simpson(weighted_norm_sq(coeffs, grid, w_plain), times))
            kap = float(_simpson(weighted_norm_sq(coeffs, grid, w_kappa), times))
            if not (math.isfinite(plain) and math.isfinite(kap)):
                raise DiagnosticsError(f"localized norm at h={h:.3g} is not finite")
            best_plain = max(best_plain, plain)
            best_kappa = max(best_kappa, kap)
    return LocalSmoothingReport(sigma, kappa, float(times[-1] - times[0]),
                                best_plain, best_kappa, h_count)


# ---------------------------------------------------------------------------
# Tightness


@lru_cache(maxsize=1)
def _bump_cdf(samples: int = 20001) -> tuple[np.ndarray, np.ndarray]:
    y = np.linspace(-1.0, 1.0, samples)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(np.abs(y) < 1.0, np.exp(-1.0 / (1.0 - y * y)), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * 0.5 * np.diff(y))])
    return y, cdf / cdf[-1]


def tightness_profile(x: np.ndarray, radius: float) -> np.ndarray:
    """Smooth cutoff to |x| >> radius: 0 on |x| <= radius, 1 on |x| >= 3 radius."""
    y, cdf = _bump_cdf()
    u = np.abs(x) / radius - 2.0
    return np.interp(u, y, cdf, left=0.0, right=1.0)


def tightness_metric(f: Field, radius: float, s: float) -> float:
    """Norm of the far-field part, || phi_R q ||_{H^s}."""
    if radius > f.grid.length / 2.0:
        raise DiagnosticsSpecError(
            f"radius {radius} exceeds the grid half-length {f.grid.length / 2.0}"
        )
    if radius <= 0:
        raise DiagnosticsSpecError("radius must be positive")
    windowed = Field(f.grid, tightness_profile(f.grid.x, radius) * f.values, f.sign)
    return sobolev_norm(windowed, s)


# ---------------------------------------------------------------------------
# kappa-convergence of the difference flows


def kappa_convergence_study(q0: Field, star: str, varkappa: float,
                            kappas: tuple, t_final: float, s: float = -0.25,
                            dt: float = 1e-3,
                            h_count: int = DEFAULT_H_COUNT_INTEGRATED,
                            snapshot_stride: int = 20,
                            fp_tol: float = 1e-12) -> list:
    """Defect of the difference flow against the identity, per kappa.

    For each kappa, evolve under the star-difference flow to ``t_final`` and
    report  max over snapshot times of
    sup_h || psi_h^12 [g12(vk; q(t)) - g12(vk; q0)] ||_{H^(s+1)}.
    Rows come back as (kappa, defect).  The kappas are one family, stepped
    in lockstep, and their snapshots are solved at vk as one batch; each row
    is bitwise that of its own flow and chain.
    """
    if star not in ("nls", "mkdv"):
        raise DiagnosticsSpecError(f"the sweep runs the nls_diff or mkdv_diff flow, "
                                   f"so star must be nls or mkdv, got {star!r}")
    if not kappas:
        raise DiagnosticsSpecError("the sweep needs at least one kappa")
    if varkappa < 4.0:
        raise DiagnosticsSpecError(f"varkappa must be >= 4, got {varkappa}")
    for kap in kappas:
        if kap < 2.0 * varkappa:
            raise DiagnosticsSpecError(
                f"difference-flow parameter kappa={kap} must be >= 2*varkappa"
            )
    grid = q0.grid
    centres = h_lattice(grid, h_count)
    g12_ref = greens_fixed_point(q0, varkappa, tol=fp_tol).g12
    spec = FlowSpec(f"{star}_diff", dt, t_final, kappa=tuple(float(k) for k in kappas),
                    snapshot_stride=snapshot_stride, fp_tol=fp_tol)
    traj = evolve(q0, spec)
    # built after the flow's step gate, which rejects the tiny boxes whose
    # frequencies would overflow the weight
    psis = np.array([bump(grid.x - h) ** 12 for h in centres])
    weight = sobolev_weight(grid, s + 1.0)
    # snapshot 0 is q0 itself; the chain starts cold at snapshot 1
    chain = FixedPointChain(grid, varkappa, fp_tol)
    defect = np.zeros(len(kappas))
    for q in traj.states[1:]:
        g12 = chain.solve(q, q0.sign * np.conj(q)).g12
        coeffs = np.fft.fft(psis * (g12 - g12_ref)[:, None])
        norms_sq = weighted_norm_sq(coeffs, grid, weight)
        defect = np.maximum(defect, np.sqrt(np.max(norms_sq, axis=-1)))
    return [(k, float(d)) for k, d in zip(spec.kappa, defect)]


# ---------------------------------------------------------------------------
# Scaling-family norms and the norm-inflation experiment


def _scale_family_quad(spectrum, lo: float, hi: float, lam: float,
                       sigma: float) -> float:
    """lam * int_lo^hi (4 + lam^2 eta^2)^sigma spectrum(eta) d eta, adaptively,
    with breakpoints where the weight turns over."""
    from scipy.integrate import quad

    def integrand(e):
        return (4.0 + (lam * e) ** 2) ** sigma * spectrum(e)

    pts = [p for p in (-10.0 / lam, -1.0 / lam, 0.0, 1.0 / lam, 10.0 / lam)
           if lo < p < hi]
    val, _ = quad(integrand, lo, hi, points=pts, limit=400)
    return lam * val


def scale_family_norm_sq(f: Field, lam: float, sigma: float) -> float:
    """||q_lam||_{H^sigma}^2 for q_lam(x) = lam q(lam x), by continuum
    quadrature: lam * int (4 + lam^2 eta^2)^sigma |q_hat(eta)|^2 d eta.

    The weight varies on the scale 1/lam, far below the frequency lattice
    spacing for large lam, so the lattice spectrum is interpolated and the
    integral taken adaptively rather than as a plain Riemann sum.  The line
    transform q_hat is (dx / sqrt(2 pi)) (-1)^k times the raw coefficients;
    the node phase (-1)^k drops out of |q_hat|.
    """
    from scipy.interpolate import CubicSpline

    grid = f.grid
    order = np.argsort(grid.xi)
    eta = grid.xi[order]
    mags = np.abs((grid.dx / math.sqrt(TWO_PI)) * np.fft.fft(f.values))[order] ** 2
    spline = CubicSpline(eta, mags)
    return _scale_family_quad(lambda e: float(spline(e)), float(eta[0]), float(eta[-1]),
                              lam, sigma)


def scale_family_norm_sq_callable(profile_hat, lam: float, sigma: float) -> float:
    """Same quadrature for an analytic transform profile, over |eta| <= 40."""
    return _scale_family_quad(lambda e: abs(profile_hat(e)) ** 2, -40.0, 40.0, lam, sigma)


def log_lambda_fit(lams: np.ndarray, values: np.ndarray):
    """Least-squares fit values ~ c log(lam) + d; returns (c, d, max relative
    residual)."""
    logs = np.log(np.asarray(lams, dtype=float))
    vals = np.asarray(values, dtype=float)
    design = np.vstack([logs, np.ones_like(logs)]).T
    (c, d), *_ = np.linalg.lstsq(design, vals, rcond=None)
    fit = design @ np.array([c, d])
    rel = float(np.max(np.abs(fit - vals) / np.abs(vals)))
    return float(c), float(d), rel


@dataclass
class InflationReport:
    sigma: float
    lambdas: tuple
    times: list
    series: dict                 # lam -> list of H^sigma norms of the rescaled family
    growth_ratio: dict           # lam -> max/initial
    mean_series: list            # int q dx per snapshot
    t1: float | None
    t1_found: bool
    threshold: float
    production_rate: complex
    predicted_imag_sign: int
    evolved_log_fit: tuple | None  # log_lambda_fit of the H^(-1/2)^2 family at t1
    initial_band: float            # max/min of that family over lam at t = 0
    bumps: int
    separation: float
    superposition_error: list | None = None


def norm_inflation_experiment(parity: str, amplitude: float, lambdas: tuple,
                              sigma: float, bumps: int = 1,
                              separation: float = 40.0, sign: int = +1,
                              grid: Grid | None = None, window: float = 1.0,
                              dt: float = 1e-3, snapshot_stride: int = 25,
                              threshold_factor: float = 1e-3) -> InflationReport:
    """Mean production and scaling dichotomy behind the norm inflation.

    Builds the mean-zero seed with transform a xi^2 exp(-xi^2) (even parity,
    evolved under nls) or a (xi^2 + xi^3) exp(-xi^2) (odd parity, mkdv),
    verifies the vanishing mean, evolves, and detects the first time the
    mean crosses threshold_factor * ||u0||_L1 in magnitude.  The rescaled
    family lam q(lam x) is tracked through its exact frequency-space
    bookkeeping; growth ratios and the log-lambda dichotomy of the
    H^(-1/2)-squared norms are reported.  With several bumps, the evolved
    superposition is additionally compared against the superposed evolution.
    """
    if sigma > -0.5:
        raise DiagnosticsSpecError(f"inflation experiment needs sigma <= -1/2, got {sigma}")
    if parity not in ("even", "odd"):
        raise DiagnosticsSpecError(f"parity must be even or odd, got {parity!r}")
    if bumps < 1:
        raise DiagnosticsSpecError("bumps must be >= 1")
    if not lambdas or not all(lam > 0 for lam in lambdas):
        raise DiagnosticsSpecError(f"lambdas must be a non-empty list of values > 0, "
                                   f"got {list(lambdas)}")
    if grid is None:
        grid = Grid(64.0, 256)
    build = mean_zero_even if parity == "even" else mean_zero_odd
    kind = "nls" if parity == "even" else "mkdv"
    u0 = build(grid, amplitude, sign)
    l1 = grid.dx * float(np.sum(np.abs(u0.values)))
    mean0 = abs(grid.integrate(u0.values))
    if amplitude != 0 and mean0 > 1e-12 * max(1.0, l1):
        raise DiagnosticsError(f"seed mean {mean0:.3e} fails the vanishing check")

    spec = FlowSpec(kind, dt, window, snapshot_stride=snapshot_stride)
    single = _embedded_bump(u0, bumps, separation) if bumps > 1 else None
    traj = evolve(u0, spec)

    # mean production rate at t = 0 from the vector field itself: dx times
    # the zero mode of its raw coefficients is the grid integral
    field_hat = Integrator(grid, sign, spec).nonlinear(np.fft.fft(u0.values))
    rate = complex(grid.dx * field_hat[0])
    predicted = -sign if parity == "even" else (1 if rate.imag >= 0 else -1)

    threshold = threshold_factor * l1
    mean_series = [complex(grid.integrate(s)) for s in traj.states]
    t1 = None
    if threshold > 0:
        for t, m in zip(traj.times, mean_series):
            if t > 0 and abs(m) > threshold:
                t1 = float(t)
                break

    series: dict = {}
    growth: dict = {}
    for lam in lambdas:
        vals = [math.sqrt(scale_family_norm_sq(traj.field(i), lam, sigma))
                for i in range(len(traj))]
        series[lam] = vals
        if vals[0] > 0:
            growth[lam] = max(vals) / vals[0]
        else:
            growth[lam] = 1.0 if max(vals) == 0 else math.inf

    fam0 = np.array([scale_family_norm_sq(u0, lam, -0.5) for lam in lambdas])
    if np.min(fam0) > 0:
        initial_band = float(np.max(fam0) / np.min(fam0))
    else:
        initial_band = 1.0 if np.max(fam0) == 0 else math.inf
    evolved_fit = None
    if t1 is not None:
        f1 = traj.field(traj.times.index(t1))
        evolved_fit = log_lambda_fit(
            np.asarray(lambdas), np.array([scale_family_norm_sq(f1, lam, -0.5)
                                           for lam in lambdas]))

    sup_err = None
    if single is not None:
        sup_err = _superposition_error(single, bumps, separation, spec)

    return InflationReport(sigma, tuple(lambdas), list(traj.times), series, growth,
                           mean_series, t1, t1 is not None, threshold, rate,
                           predicted, evolved_fit, initial_band, bumps, separation,
                           sup_err)


def _embedded_bump(u0: Field, bumps: int, separation: float) -> Field:
    """The seed in a box for ``bumps`` copies ``separation`` apart, which must not overlap."""
    grid = u0.grid
    need = bumps * separation + grid.length
    factor = 1
    while factor * grid.length < need:
        factor *= 2
    big = Grid(grid.length * factor, grid.points * factor)
    # embed the decayed bump in the larger box (same node spacing)
    big_values = np.zeros(big.points, dtype=np.complex128)
    offset = (big.points - grid.points) // 2
    big_values[offset:offset + grid.points] = u0.values
    single = Field(big, big_values, u0.sign)
    peak = float(np.max(np.abs(single.values)))
    mask = np.abs(big.x) > separation / 2.0
    overlap = float(np.max(np.abs(single.values[mask]))) / peak
    if overlap > 1e-8:
        raise DiagnosticsSpecError(
            f"bump overlap {overlap:.2e} at separation {separation} exceeds 1e-8"
        )
    return single


def _superposition_error(single: Field, bumps: int, separation: float, spec: FlowSpec) -> list:
    """Evolve a train of translated bumps and compare against the superposed
    single-bump evolution, snapshot by snapshot (relative L2)."""
    big = single.grid
    offsets = [(n - (bumps - 1) / 2.0) * separation for n in range(bumps)]

    def translate(values: np.ndarray, shift: float) -> np.ndarray:
        return apply_multiplier(values, np.exp(-1j * big.xi * shift), big)

    multi0 = np.sum([translate(single.values, off) for off in offsets], axis=0)
    multi_traj = evolve(Field(big, multi0, single.sign), spec)
    single_traj = evolve(single, spec)
    errs = []
    for i in range(len(multi_traj)):
        superposed = np.sum([translate(single_traj.states[i], off)
                             for off in offsets], axis=0)
        num = big.l2_norm(multi_traj.states[i] - superposed)
        den = max(big.l2_norm(superposed), 1e-300)
        errs.append(num / den)
    return errs
