"""Config-driven experiment runner.

Subcommands: green, conserved, evolve, smoothing, micro, inflate, sweep,
selftest.  Each computes first and writes last: a run that fails writes
nothing, and every run that completes writes the resolved config and a
generated reference file beside its outputs.  ``selftest`` runs every check
of ``selftest.GROUPS`` on fixed data (``--seed`` does not change it), one
CSV row each.  Exit codes: 0 pass, 1 property failure, 2 usage error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import diagnostics, flows, hierarchy, lax
from .config import ConfigError, ExperimentConfig, config_reference
from .spectral import Field, SpectralError
from .storage import write_csv, write_json, write_snapshot, write_trajectory

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _prepare_out(cfg: ExperimentConfig, subcommand: str) -> str:
    out = os.path.join(cfg.out, subcommand)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "resolved_config.json"), "w", newline="\n") as fh:
        fh.write(cfg.to_json())
    with open(os.path.join(out, "config_reference.txt"), "w", newline="\n") as fh:
        fh.write(config_reference())
    write_json(os.path.join(out, "format.json"), {"format": "aknslab-v1"})
    return out


def cmd_green(cfg: ExperimentConfig) -> int:
    f = cfg.make_field()
    grid = f.grid
    for kappa in cfg.diagnostics.kappas:  # every kappa before the first solve
        lax.check_kappa(kappa)
    solved = []
    for kappa in cfg.diagnostics.kappas:
        # the fixed point first: its gate rejects data that would overflow the series
        fixed = lax.greens_fixed_point(f, kappa, tol=cfg.flow.fp_tol)
        entries = [("fixed_point", fixed), ("series(3)", lax.greens_series(f, kappa))]
        if grid.points <= lax.ORACLE_MAX_POINTS and \
                abs(kappa) * grid.length >= lax.ORACLE_MIN_KAPPA_L:
            entries.append(("oracle", lax.greens_oracle(f, kappa)))
        solved.append((kappa, entries))
    out = _prepare_out(cfg, "green")
    rows = []
    for kappa, entries in solved:
        reference = dict(entries).get("oracle", entries[0][1])
        for method, triple in entries:
            for part in ("g12", "g21", "gamma"):
                base = os.path.join(out, f"{part}_k{kappa:g}_{method}")
                write_snapshot(base, Field(grid, getattr(triple, part), f.sign),
                               0.0, f"{part} at kappa={kappa:g} via {method}")
            ref_norm = grid.l2_norm(reference.g12)
            dev = grid.l2_norm(triple.g12 - reference.g12)
            rows.append([kappa, method, triple.quadratic_residual(grid),
                         dev / max(ref_norm, 1e-300), triple.meta.get("iterations", 0),
                         triple.meta.get("residual", 0.0)])
        write_json(os.path.join(out, f"meta_k{kappa:g}.json"),
                   {"kappa": kappa,
                    "methods": {m: {k: v for k, v in t.meta.items()}
                                for m, t in entries}})
    write_csv(os.path.join(out, "identities.csv"),
              ["kappa", "method", "quadratic_residual", "l2_vs_reference",
               "iterations", "fp_residual"], rows)
    return EXIT_OK


def cmd_conserved(cfg: ExperimentConfig) -> int:
    f = cfg.make_field()
    for kappa in cfg.diagnostics.kappas:  # every kappa before the first solve
        lax.check_kappa(kappa)
    ham = hierarchy.hamiltonians(f)
    rows = []
    nan = float("nan")
    for kappa in cfg.diagnostics.kappas:
        triple = lax.greens_fixed_point(f, kappa, tol=cfg.flow.fp_tol)
        det_i = lax.pdet_integral(f, kappa, triple)
        # the dense trace route is capped like the oracle's
        det_t = (lax.pdet_trace(f, kappa) if f.grid.points <= lax.ORACLE_MAX_POINTS
                 else lax.TraceDeterminant(nan, nan))
        alp = f.sign * det_i.real
        err = hierarchy.expansion_error(f, kappa, det_i) if kappa >= 4.0 else nan
        rows.append([kappa, det_i, det_t.value, abs(det_i - det_t.value),
                     det_t.spectral_radius, alp, err])
    out = _prepare_out(cfg, "conserved")
    write_json(os.path.join(out, "hamiltonians.json"),
               {**ham.as_dict(), "imag_leakage": ham.imag_leakage})
    write_csv(os.path.join(out, "determinant.csv"),
              ["kappa", "det_integral", "det_trace", "method_gap",
               "spectral_radius", "alpha", "expansion_error"], rows)
    return EXIT_OK


def _flow_spec(cfg: ExperimentConfig) -> flows.FlowSpec:
    return flows.FlowSpec(cfg.flow.kind, cfg.flow.dt, cfg.flow.t_final,
                          snapshot_stride=cfg.flow.snapshot_stride,
                          kappa=cfg.flow.kappa or None,
                          fp_tol=cfg.flow.fp_tol)


def cmd_evolve(cfg: ExperimentConfig) -> int:
    f, spec = cfg.make_field(), _flow_spec(cfg)
    kappas = diagnostics.check_kappas(cfg.diagnostics.kappas)
    traj = flows.evolve(f, spec)
    drift = diagnostics.conserved_drift(traj, kappas=kappas, fp_tol=cfg.flow.fp_tol)
    out = _prepare_out(cfg, "evolve")
    write_trajectory(os.path.join(out, "trajectory"), traj, drift.table)
    rows = [[name, max_dev] for name, max_dev in sorted(drift.relative_drift.items())]
    write_csv(os.path.join(out, "drift.csv"), ["quantity", "relative_drift"], rows)
    write_json(os.path.join(out, "stats.json"),
               {**traj.stats, "conjugacy_violation": traj.conjugacy_violation()})
    return EXIT_OK


def cmd_smoothing(cfg: ExperimentConfig) -> int:
    f, spec = cfg.make_field(), _flow_spec(cfg)
    # the kappas and the cutoff count are checked before the flow
    kappas = diagnostics.check_kappas(cfg.diagnostics.kappas)
    diagnostics.h_lattice(f.grid, cfg.diagnostics.h_count_sup)
    traj = flows.evolve(f, spec)
    rows = []
    for kappa in kappas:
        rep = diagnostics.local_smoothing_norm(
            traj, cfg.diagnostics.sigma, kappa=kappa,
            h_count=cfg.diagnostics.h_count_sup)
        rows.append([cfg.diagnostics.sigma, kappa, rep.window,
                     rep.value, rep.value_kappa])
    out = _prepare_out(cfg, "smoothing")
    write_csv(os.path.join(out, "smoothing.csv"),
              ["sigma", "kappa", "window", "x_norm_sq", "x_kappa_norm_sq"], rows)
    return EXIT_OK


def cmd_micro(cfg: ExperimentConfig) -> int:
    f, spec = cfg.make_field(), _flow_spec(cfg)
    d = cfg.diagnostics
    diagnostics.micro_centres(spec, f.grid, d.flavor, d.varkappa, d.h_count)
    traj = flows.evolve(f, spec)
    rep = diagnostics.micro_residual(traj, d.varkappa, d.flavor, h_count=d.h_count,
                                     fp_tol=cfg.flow.fp_tol)
    out = _prepare_out(cfg, "micro")
    write_csv(os.path.join(out, "integrated.csv"),
              ["h", "flux_side", "density_side", "gap", "relative_gap"],
              [[h, lhs, rhs, gap, rel] for h, lhs, rhs, gap, rel in rep.integrated])
    # the (x, density, current) samples the residual was measured on, one
    # block of N rows per snapshot
    blocks = ((t, traj.grid.x, rho, j)
              for t, rho, j in zip(traj.times, rep.densities, rep.currents))
    write_csv(os.path.join(out, "density_current.csv"),
              ["t", "x", "density", "current"], blocks, blocks=True)
    write_json(os.path.join(out, "pointwise.json"),
               {"flavor": rep.flavor, "varkappa": rep.varkappa,
                "kappa": rep.kappa, "dt": rep.dt, "window": rep.window,
                "l1": rep.pointwise_l1, "max": rep.pointwise_max,
                "max_relative_gap": rep.max_rel_gap()})
    return EXIT_OK


def cmd_inflate(cfg: ExperimentConfig) -> int:
    parity = "odd" if cfg.data.profile == "appendix_odd" else "even"
    rep = diagnostics.norm_inflation_experiment(
        parity, cfg.data.amplitude, tuple(cfg.diagnostics.lambdas),
        cfg.diagnostics.sigma, bumps=cfg.diagnostics.bumps,
        separation=cfg.diagnostics.separation, sign=cfg.data.sign,
        grid=cfg.make_grid(), window=cfg.flow.t_final, dt=cfg.flow.dt,
        snapshot_stride=cfg.flow.snapshot_stride,
        threshold_factor=cfg.diagnostics.threshold_factor)
    out = _prepare_out(cfg, "inflate")
    rows = [[lam, t, v] for lam in rep.lambdas for t, v in zip(rep.times, rep.series[lam])]
    write_csv(os.path.join(out, "series.csv"), ["lambda", "t", "h_sigma_norm"], rows)
    write_csv(os.path.join(out, "mean.csv"), ["t", "mean"],
              [[t, m] for t, m in zip(rep.times, rep.mean_series)])
    summary = {
        "sigma": rep.sigma, "t1": rep.t1, "t1_found": rep.t1_found,
        "threshold": rep.threshold,
        "production_rate_im": rep.production_rate.imag,
        "predicted_imag_sign": rep.predicted_imag_sign,
        "growth_ratio": {str(k): v for k, v in rep.growth_ratio.items()},
        "initial_band": rep.initial_band,
        "evolved_log_fit": rep.evolved_log_fit,
        "bumps": rep.bumps, "separation": rep.separation,
        "superposition_error": rep.superposition_error,
    }
    write_json(os.path.join(out, "summary.json"), summary)
    if not rep.t1_found:
        print("inflate: no mean production detected within the window", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    # the nls or mkdv family of flow.kind picks the difference flow
    star = cfg.flow.kind.split("_")[0]
    # the step count depends on dt and t_final alone
    steps = flows.FlowSpec("nls", cfg.flow.dt, cfg.flow.t_final).steps
    if steps < 1:
        raise ConfigError(f"sweep needs at least one step, but flow.t_final and dt "
                          f"give {steps}")
    f = cfg.make_field()
    rows = diagnostics.kappa_convergence_study(
        f, star, cfg.diagnostics.varkappa, tuple(cfg.diagnostics.sweep_kappas),
        cfg.flow.t_final, s=cfg.diagnostics.s, dt=cfg.flow.dt,
        h_count=cfg.diagnostics.h_count, snapshot_stride=cfg.flow.snapshot_stride,
        fp_tol=cfg.flow.fp_tol)
    monotone = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
    out = _prepare_out(cfg, "sweep")
    write_csv(os.path.join(out, "sweep.csv"), ["kappa", "defect"], rows)
    write_json(os.path.join(out, "summary.json"),
               {"star": star, "varkappa": cfg.diagnostics.varkappa,
                "monotone_decreasing": monotone})
    if not monotone:
        print("sweep: defect table is not monotone decreasing", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_selftest(cfg: ExperimentConfig) -> int:
    # imported here, so no other subcommand compiles and loads the check table
    from .selftest import format_report, run_selftest
    rows = run_selftest()
    report = format_report(rows)
    print(report)
    out = _prepare_out(cfg, "selftest")
    with open(os.path.join(out, "selftest.txt"), "w", newline="\n") as fh:
        fh.write(report + "\n")
    write_csv(os.path.join(out, "selftest.csv"),
              ["check", "passed", "measured", "lower", "upper"],
              [[name, passed, measured, lower, upper]
               for name, measured, lower, upper, passed in rows])
    return EXIT_OK if all(row[4] for row in rows) else EXIT_PROPERTY


COMMANDS = {
    "green": cmd_green,
    "conserved": cmd_conserved,
    "evolve": cmd_evolve,
    "smoothing": cmd_smoothing,
    "micro": cmd_micro,
    "inflate": cmd_inflate,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aknslab",
        description="Numerical laboratory for the NLS/mKdV integrable hierarchy.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default="", help="JSON config path")
        p.add_argument("--out", default="", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed, >= 0")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        if args.out:
            cfg.out = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            cfg.seed = args.seed
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.subcommand](cfg)
    except (ConfigError, SpectralError, flows.SpecError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (lax.LaxError, flows.FlowError, hierarchy.HierarchyError,
            diagnostics.DiagnosticsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
