"""The property checks behind ``aknslab selftest`` and the acceptance suite.

Every check is written once, as a row ``(name, measured, lower, upper,
passed)``: ``passed`` is the check's own condition (strict or boolean where
the check is) and the bounds, either possibly infinite, say what it asks of
``measured``.  A group returns the rows of one computation, and ``GROUPS`` is
the whole table: ``aknslab selftest`` runs every group, and
tests/test_acceptance.py runs each group as one test (about 13 s in all on a
2-core machine).

Rows named ``criterion N: ...`` are the acceptance criteria, a ``worst`` row
being the maximum over 20 random fields at seed 5011 (and four kappas), and
a Hamiltonian ``worst`` row the maximum over the six pairs; rows named
``compactness: ...`` follow tightness and equicontinuity along an nls flow;
the others are quick checks on one Gaussian and three fields drawn in order
from ``default_rng(0)``.  Shared data is built on first use, not at import.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .diagnostics import (DiagnosticsError, conserved_drift, kappa_convergence_study,
                          log_lambda_fit, micro_residual, norm_inflation_experiment,
                          residual_refinement, scale_family_norm_sq_callable, tightness_metric)
from .flows import FlowError, FlowSpec, evolve
from .hierarchy import (FLAVORS, HierarchyError, expansion_error, hamiltonian_gradient,
                        poisson_bracket, telescoping_residual)
from .lax import (LaxError, greens_fixed_point, greens_oracle, greens_series, pdet_integral,
                  pdet_trace, triple_at_minus_kappa)
from .profiles import gaussian, plane_wave, random_schwartz, spectral_profile
from .spectral import (Field, Grid, SpectralError, apply_multiplier, dealiased_mul, diff,
                       fractional_symbol, inverse_shift_symbol, partition_constant,
                       sobolev_norm, sobolev_weight, weighted_norm_sq)

Row = tuple[str, float, float, float, bool]  # (name, measured, lower, upper, passed)

GRID = Grid(64.0, 256)
KAPPAS = (1.0, 2.0, 4.0, 8.0)


def _row(name: str, measured: float, lower: float = -math.inf, upper: float = math.inf) -> Row:
    return (name, float(measured), lower, upper, lower <= measured <= upper)


@lru_cache(maxsize=1)
def field_set() -> tuple[Field, ...]:
    """20 random Schwartz fields, H^(-1/4) size 0.1-0.2, alternating sign."""
    rng = np.random.default_rng(5011)
    return tuple(random_schwartz(GRID, rng, norm=0.1 + 0.1 * rng.random(),
                                 sign=+1 if i % 2 == 0 else -1) for i in range(20))


@lru_cache(maxsize=1)
def triple_table() -> dict:
    """Fixed-point triple of each field at each of KAPPAS, keyed (i, kappa)."""
    return {(i, kappa): greens_fixed_point(f, kappa, tol=1e-13)
            for i, f in enumerate(field_set()) for kappa in KAPPAS}


@lru_cache(maxsize=1)
def _quick_draws() -> tuple[Field, Field, Field]:
    """The quick checks' random fields, in their draw order."""
    rng = np.random.default_rng(0)
    return tuple(random_schwartz(GRID, rng, norm=norm) for norm in (0.1, 0.1, 0.05))


def _gradient_error(f: Field, pert: Field, kappa: float, eps: float, tol: float) -> float:
    """|central difference of A(kappa) along ``pert`` - <grad A, pert>|."""
    tr = greens_fixed_point(f, kappa, tol=tol)
    pairing = (GRID.integrate(pert.values * tr.g21)
               - f.sign * GRID.integrate(np.conj(pert.values) * tr.g12))
    fp = Field(GRID, f.values + eps * pert.values, f.sign)
    fm = Field(GRID, f.values - eps * pert.values, f.sign)
    fd = (pdet_integral(fp, kappa, greens_fixed_point(fp, kappa, tol=tol))
          - pdet_integral(fm, kappa, greens_fixed_point(fm, kappa, tol=tol))) / (2 * eps)
    return abs(fd - pairing)


def spectral_transforms() -> list[Row]:
    g = GRID
    f = gaussian(g, 0.1)
    noise, other, _ = _quick_draws()
    # e^{-x^2} has line transform e^{-xi^2/4}/sqrt(2)
    line = spectral_profile(g, lambda xi: np.exp(-xi**2 / 4.0) / math.sqrt(2.0))
    line_error = float(np.max(np.abs(line.values - gaussian(g, 1.0).values)))
    plancherel = abs(f.l2_norm() ** 2
                     - weighted_norm_sq(np.fft.fft(f.values), g, sobolev_weight(g, 0.0)))
    m1 = inverse_shift_symbol(g, 4.0, -1)
    m2 = inverse_shift_symbol(g, 2.0, +1)
    composed = apply_multiplier(apply_multiplier(noise.values, m1, g), m2, g)
    direct = apply_multiplier(noise.values, m1 * m2, g)
    sig = fractional_symbol(g, 2.0, -1, 0.5)
    adj = fractional_symbol(g, 2.0, +1, 0.5)
    lhs = g.integrate(np.conj(noise.values) * apply_multiplier(other.values, sig, g))
    rhs = g.integrate(np.conj(apply_multiplier(noise.values, adj, g)) * other.values)
    return [_row("line transform of a Gaussian", line_error, upper=1e-12),
            _row("plancherel", plancherel / f.l2_norm() ** 2, upper=1e-12),
            _row("multiplier composition",
                 g.l2_norm(composed - direct) / g.l2_norm(direct), upper=1e-12),
            _row("fractional adjoint", abs(lhs - rhs) / abs(lhs), upper=1e-12)]


def criterion_1_oracle_equivalence() -> list[Row]:
    fields, table = field_set(), triple_table()
    worst = 0.0
    for i, f in enumerate(fields):
        for kappa in KAPPAS:
            fp = table[i, kappa]
            oracle = greens_oracle(f, kappa)
            for part in ("g12", "g21", "gamma"):
                ref = getattr(oracle, part)
                dev = GRID.l2_norm(getattr(fp, part) - ref) / max(GRID.l2_norm(ref), 1e-300)
                worst = max(worst, dev)
    rows = [_row("criterion 1: fixed point vs oracle relative L2 (worst)", worst, upper=1e-7)]
    for n, f in enumerate(fields[:5]):
        errs = []
        for scale in (1.0, 0.5):
            trial = Field(GRID, scale * f.values, f.sign)
            errs.append(GRID.l2_norm(greens_series(trial, 2.0).g12
                                     - greens_oracle(trial, 2.0).g12))
        rows.append(_row(f"criterion 1: series(3) amplitude-halving error ratio field {n}",
                         errs[0] / errs[1], 16.0, 64.0))
    f = gaussian(GRID, 0.1)
    fp = greens_fixed_point(f, 2.0, tol=1e-13)
    oracle = greens_oracle(f, 2.0)
    rows.append(_row("fixed point vs oracle",
                     GRID.l2_norm(fp.g12 - oracle.g12) / GRID.l2_norm(oracle.g12), upper=1e-7))
    return rows


def criterion_2_identity_suite() -> list[Row]:
    fields, table = field_set(), triple_table()
    worst_quad = worst_deriv = worst_sym = worst_tel = 0.0
    for i, f in enumerate(fields):
        q, r = f.values, f.r
        qnorm = f.l2_norm()
        for kappa in KAPPAS:
            tr = table[i, kappa]
            worst_quad = max(worst_quad, tr.quadratic_residual(GRID))
            res12 = (diff(tr.g12, GRID) - 2 * kappa * tr.g12
                     - dealiased_mul(q, tr.gamma + 1))
            res21 = (diff(tr.g21, GRID) + 2 * kappa * tr.g21
                     - dealiased_mul(r, tr.gamma + 1))
            resg = (diff(tr.gamma, GRID)
                    - 2.0 * (dealiased_mul(q, tr.g21) + dealiased_mul(r, tr.g12)))
            worst_deriv = max(worst_deriv,
                              max(GRID.l2_norm(v) for v in (res12, res21, resg)) / qnorm)
            direct = greens_fixed_point(f, -kappa, tol=1e-13)
            image = triple_at_minus_kappa(f, tr)
            worst_sym = max(worst_sym, max(GRID.l2_norm(direct.g12 - image.g12),
                                           GRID.l2_norm(direct.gamma - image.gamma)))
        worst_tel = max(worst_tel, telescoping_residual(table[i, 2.0], table[i, 4.0], GRID))
    f = gaussian(GRID, 0.1)
    fp = greens_fixed_point(f, 2.0, tol=1e-13)
    g12p = diff(fp.g12, GRID)
    residual = g12p - 2.0 * 2.0 * fp.g12 - f.values * (fp.gamma + 1.0)
    neg = greens_fixed_point(f, -2.0, tol=1e-13)
    sym = triple_at_minus_kappa(f, fp)
    t4 = greens_fixed_point(f, 4.0, tol=1e-13)
    return [_row("criterion 2: quadratic identity (worst)", worst_quad, upper=1e-7),
            _row("criterion 2: derivative identities (worst)", worst_deriv, upper=1e-7),
            _row("criterion 2: conjugation symmetry (worst)", worst_sym, upper=1e-7),
            _row("criterion 2: telescoping identity kappa 2/4 (worst)", worst_tel, upper=1e-7),
            _row("quadratic identity", fp.quadratic_residual(GRID), upper=1e-10),
            _row("derivative identity", GRID.l2_norm(residual) / f.l2_norm(), upper=1e-8),
            _row("conjugation symmetry", GRID.l2_norm(neg.g12 - sym.g12), upper=1e-10),
            _row("telescoping identity", telescoping_residual(fp, t4, GRID), upper=1e-8)]


def criterion_3_determinant_consistency() -> list[Row]:
    fields, table = field_set(), triple_table()
    worst_gap = 0.0
    for i, f in enumerate(fields):
        for kappa in KAPPAS:
            det_i = pdet_integral(f, kappa, table[i, kappa])
            worst_gap = max(worst_gap, abs(det_i - pdet_trace(f, kappa).value))
    f = gaussian(GRID, 0.1)
    h = 1e-3
    tr = greens_fixed_point(f, 2.0, tol=1e-13)
    fd = (pdet_integral(f, 2.0 + h, greens_fixed_point(f, 2.0 + h, tol=1e-13))
          - pdet_integral(f, 2.0 - h, greens_fixed_point(f, 2.0 - h, tol=1e-13))) / (2 * h)
    errs = [expansion_error(f, k, pdet_integral(f, k, greens_fixed_point(f, k, tol=1e-13)))
            for k in (8.0, 16.0, 32.0)]
    return [_row("criterion 3: determinant integral vs trace (worst)", worst_gap, upper=1e-7),
            _row("criterion 3: dA/dkappa vs int gamma", abs(fd - GRID.integrate(tr.gamma)),
                 upper=1e-6),
            _row("criterion 3: expansion error ratio kappa 8/16", errs[0] / errs[1], 24.0, 40.0),
            _row("criterion 3: expansion error ratio kappa 16/32", errs[1] / errs[2], 24.0, 40.0),
            _row("criterion 3: partition constant", abs(partition_constant() - 512.0 / 7.0),
                 upper=1e-8),
            _row("determinant integral vs trace",
                 abs(pdet_integral(f, 2.0, tr) - pdet_trace(f, 2.0).value), upper=1e-7)]


def criterion_4_gradient_check() -> list[Row]:
    # kappa = 1 and a sizable perturbation keep the third variation well
    # above the fixed-point noise floor at eps = 1e-4
    f = gaussian(GRID, 0.18)
    pert = random_schwartz(GRID, np.random.default_rng(77), norm=0.5)
    errs = [_gradient_error(f, pert, 1.0, eps, 1e-14) for eps in (1e-3, 1e-4)]
    quick = _gradient_error(gaussian(GRID, 0.1), _quick_draws()[2], 2.0, 1e-4, 1e-13)
    return [_row("criterion 4: gradient error ratio eps 1e-3/1e-4", errs[0] / errs[1],
                 50.0, 200.0),
            _row("determinant gradient", quick, upper=1e-6)]


def criterion_5_conservation() -> list[Row]:
    f = gaussian(Grid(64.0, 512), 0.1)
    alphas = [f"alpha({k:g})" for k in (1, 2, 4)]
    runs = ((FlowSpec("nls", 1e-3, 1.0, snapshot_stride=500), ("mass", "h_nls")),
            (FlowSpec("mkdv", 1e-3, 1.0, snapshot_stride=500), ("mass", "momentum", "h_mkdv")),
            (FlowSpec("nls_kappa", 1e-3, 1.0, kappa=8.0, snapshot_stride=1000), ()),
            (FlowSpec("mkdv_kappa", 1e-3, 1.0, kappa=8.0, snapshot_stride=1000), ()))
    rows = []
    for spec, names in runs:
        drift = conserved_drift(evolve(f, spec), kappas=(1.0, 2.0, 4.0)).relative_drift
        if names:
            rows.append(_row(f"criterion 5: {spec.kind} Hamiltonian drift",
                             max(drift[n] for n in names), upper=1e-6))
        rows.append(_row(f"criterion 5: {spec.kind} alpha drift",
                         max(drift[a] for a in alphas), upper=1e-6))
    short = evolve(gaussian(GRID, 0.1), FlowSpec("nls", 1e-3, 0.05, snapshot_stride=50))
    drift = conserved_drift(short, kappas=(2.0,))
    rows.append(_row("short-window conservation", max(drift.relative_drift.values()),
                     upper=1e-8))
    return rows


def criterion_6_commutation() -> list[Row]:
    f = gaussian(GRID, 0.1)
    t2 = greens_fixed_point(f, 2.0, tol=1e-13)
    t4 = greens_fixed_point(f, 4.0, tol=1e-13)
    bracket = abs(poisson_bracket((t2.g21, -t2.g12), (t4.g21, -t4.g12), GRID))
    grads = [hamiltonian_gradient(f, name) for name in ("mass", "momentum", "h_nls", "h_mkdv")]
    worst_ham = (max(abs(poisson_bracket(a, b, GRID)) for a, b in combinations(grads, 2))
                 / max(1.0, f.l2_norm() ** 2))

    def defect(star, t, n=8):
        dt = t / n
        full = evolve(f, FlowSpec(star, dt, t)).states[-1]
        mid = evolve(f, FlowSpec(f"{star}_diff", dt, t, kappa=8.0)).states[-1]
        out = evolve(Field(GRID, mid, f.sign),
                     FlowSpec(f"{star}_kappa", dt, t, kappa=8.0)).states[-1]
        return GRID.l2_norm(out - full)

    rows = [_row("criterion 6: Poisson bracket of A(2) and A(4)", bracket, upper=1e-8),
            ("criterion 6: four Hamiltonians pairwise Poisson bracket (worst)", worst_ham,
             -math.inf, 1e-10, worst_ham < 1e-10)]
    times = (0.08, 0.04, 0.02)
    for star in ("nls", "mkdv"):
        ds = [defect(star, t) for t in times]
        rows += [_row(f"criterion 6: {star} splitting-defect ratio t {times[i]:g}/"
                      f"{times[i + 1]:g}", ds[i] / ds[i + 1], lower=3.5) for i in range(2)]
    return rows


def criterion_7_microscopic_conservation() -> list[Row]:
    # residual bound and the integrated identity for every flavor at dt = 1e-3
    f = gaussian(GRID, 0.1)
    reports = {}
    worst_point = worst_gap = 0.0
    for flavor, kind in FLAVORS.items():
        kappa = None if kind in ("nls", "mkdv") else 8.0  # the kappa-flows run at 8
        traj = evolve(f, FlowSpec(kind, 1e-3, 0.02, kappa=kappa, fp_tol=1e-13))
        rep = reports[flavor] = micro_residual(traj, 2.0, flavor, h_count=9)
        worst_point = max(worst_point, rep.pointwise_l1)
        worst_gap = max(worst_gap, rep.max_rel_gap())
    rows = [_row("criterion 7: pointwise residual (worst flavor)", worst_point, upper=1e-5),
            _row("criterion 7: integrated identity gap (worst flavor)", worst_gap, upper=1e-5)]
    # refinement slope measured where the scheme error dominates the floor
    g512 = Grid(64.0, 512)
    modulated = Field(g512, 0.15 * np.exp(-g512.x**2) * np.exp(2j * g512.x))
    for flavor, data, dts in (("nls", modulated, (1.6e-2, 8e-3, 4e-3)),
                              ("mkdv", f, (8e-3, 4e-3, 2e-3))):
        reps = residual_refinement(data, 2.0, flavor, dts, window=0.096)
        rows += [_row(f"criterion 7: {flavor} residual refinement ratio dt {dts[i]:g}/"
                      f"{dts[i + 1]:g}", reps[i].pointwise_l1 / reps[i + 1].pointwise_l1,
                      lower=8.0) for i in range(2)]
    nls = reports["nls"]  # which the quick checks read on its own
    return rows + [_row("pointwise microscopic residual", nls.pointwise_l1, upper=1e-5),
                   _row("integrated microscopic identity", nls.max_rel_gap(), upper=1e-5)]


def criterion_8_kappa_convergence() -> list[Row]:
    f = gaussian(GRID, 0.1)
    rows = []
    for star in ("nls", "mkdv"):
        study = kappa_convergence_study(f, star, 4.0, (8.0, 16.0, 32.0), 0.1,
                                        dt=2e-3, snapshot_stride=10)
        rows += [(f"criterion 8: {star} defect at kappa {k1:g} strictly below kappa {k0:g}",
                  d1, -math.inf, d0, d0 > d1)
                 for (k0, d0), (k1, d1) in zip(study, study[1:])]
    return rows


def criterion_9_norm_inflation_dichotomy() -> list[Row]:
    rep = norm_inflation_experiment("even", 0.3, (8.0, 64.0, 512.0), -0.5,
                                    window=1.0, dt=1e-3, snapshot_stride=25)
    idx = rep.times.index(rep.t1) if rep.t1_found else 0
    mean_sign = math.copysign(1.0, rep.mean_series[idx].imag)
    rate = rep.production_rate.imag
    lams = np.array([8.0, 64.0, 512.0])
    nonzero_mean = np.array([scale_family_norm_sq_callable(
        lambda e: np.exp(-e * e), lam, -0.5) for lam in lams])
    _, _, res_analytic = log_lambda_fit(lams, nonzero_mean)
    res_evolved = rep.evolved_log_fit[2] if rep.evolved_log_fit else math.nan
    flat = [scale_family_norm_sq_callable(
        lambda e: e * np.exp(-e * e), lam, -0.5) for lam in lams]
    return [("criterion 9: first mean-crossing time t1", rep.t1 if rep.t1_found else math.nan,
             -math.inf, 1.0, rep.t1_found and rep.t1 <= 1.0),
            ("criterion 9: Im production rate strictly negative", rate, -math.inf, 0.0, rate < 0),
            ("criterion 9: predicted sign of Im production", float(rep.predicted_imag_sign),
             -1.0, -1.0, rep.predicted_imag_sign == -1),
            ("criterion 9: sign of Im mean at t1", mean_sign, -1.0, -1.0, mean_sign == -1.0),
            _row("criterion 9: log-lambda fit residual analytic nonzero mean", res_analytic,
                 upper=0.10),
            _row("criterion 9: log-lambda fit residual evolved at t1", res_evolved, upper=0.10),
            _row("criterion 9: mean-zero band of the seed", rep.initial_band, upper=2.0),
            _row("mean-zero boundedness (x2 band)", max(flat) / min(flat), upper=2.0)]


def criterion_10_integrator_order() -> list[Row]:
    g = Grid(8 * np.pi, 128)
    wave = plane_wave(g, 1.0, 1.0)
    dts = (0.02, 0.01, 0.005)
    rows = []
    for kind, omega in (("nls", 1.0 + 2.0), ("mkdv", -1.0 - 6.0)):
        exact = np.exp(1j * (g.x - omega))
        errs = []
        for dt in dts:
            traj = evolve(wave, FlowSpec(kind, dt, 1.0))
            errs.append(float(np.max(np.abs(traj.states[-1] - exact))))
        rows += [_row(f"criterion 10: {kind} plane-wave error ratio dt {dts[i]:g}/"
                      f"{dts[i + 1]:g}", errs[i] / errs[i + 1], 12.0, 20.0) for i in range(2)]
    traj = evolve(gaussian(GRID, 0.1), FlowSpec("mkdv", 1e-3, 1.0, snapshot_stride=1000))
    return rows + [_row("criterion 10: mkdv reality leakage",
                        float(np.max(np.abs(traj.states[-1].imag))), upper=1e-12)]


def compactness_along_flows() -> list[Row]:
    # tightness: wide data so the far field is resolvable; unit-time nls
    wide = gaussian(Grid(256.0, 512), 0.05, width=8.0)
    traj = evolve(wide, FlowSpec("nls", 1e-3, 1.0, snapshot_stride=200))
    tight = [tightness_metric(traj.field(i), 32.0, -0.25) for i in range(len(traj))]
    # equicontinuity: the H^(-1/4) norm at kappa = 16 along nls
    traj = evolve(gaussian(GRID, 0.1), FlowSpec("nls", 1e-3, 0.5, snapshot_stride=100))
    tails = [sobolev_norm(traj.field(i), -0.25, 16.0) for i in range(len(traj))]
    return [("compactness: tightness baseline strictly above 1e-14", tight[0],
             1e-14, math.inf, tight[0] > 1e-14),
            _row("compactness: tightness max/initial along nls", max(tight) / tight[0],
                 upper=4.0),
            _row("compactness: equicontinuity H^(-1/4)_16 max/initial along nls",
                 max(tails) / tails[0], upper=4.0)]


GROUPS = (spectral_transforms, criterion_1_oracle_equivalence, criterion_2_identity_suite,
          criterion_3_determinant_consistency, criterion_4_gradient_check,
          criterion_5_conservation, criterion_6_commutation,
          criterion_7_microscopic_conservation, criterion_8_kappa_convergence,
          criterion_9_norm_inflation_dichotomy, criterion_10_integrator_order,
          compactness_along_flows)


def run_selftest() -> list[Row]:
    """Every row of every group in ``GROUPS``.  A group whose computation
    fails (a failed solve, a blown-up flow) gives one failed row naming the
    error, with commas, which would split its CSV cell, made semicolons; the
    groups after it still run."""
    rows = []
    for group in GROUPS:
        try:
            rows += group()
        except (LaxError, FlowError, HierarchyError, DiagnosticsError, SpectralError) as exc:
            name = f"{group.__name__} raised {type(exc).__name__}: {exc}".replace(",", ";")
            rows.append((name, math.nan, -math.inf, math.inf, False))
    return rows


def format_row(row: Row) -> str:
    name, measured, lower, upper, passed = row
    return (f"[{'PASS' if passed else 'FAIL'}] {name}: {measured:.3e} "
            f"in [{lower:.3g}, {upper:.3g}]")


def format_report(rows: list[Row]) -> str:
    failed = sum(1 for row in rows if not row[4])
    return "\n".join([format_row(row) for row in rows]
                     + [f"{len(rows) - failed}/{len(rows)} checks passed"])
