"""The four benchmark workloads: config, CLI calls, correctness gate, and the
layers that must be busy when the run is traced.

Every workload uses seeded random data (``data.profile = "random"``,
``norm = 0.1``, ``sign = +1``) and the default ``fp_tol``; the benchmark's
``--seed`` is handed to the CLI as ``--seed``.  Config ``threads`` stays 1.

Gate tolerances are the acceptance suite's (tests/test_acceptance.py).
"""

from __future__ import annotations

import csv
import json
import os

DATA = {"profile": "random", "norm": 0.1, "sign": 1}

WORKLOADS = {
    # kappa-convergence of the nls difference flow: warm fixed-point solves
    # with r slaved to q dominate; little output, no dense work.
    "diff_sweep": {
        "calls": ["sweep"],
        "config": {
            "grid": {"length": 64.0, "points": 256},
            "data": DATA,
            "flow": {"kind": "nls_diff", "dt": 0.002, "t_final": 0.6,
                     "snapshot_stride": 25},
            "diagnostics": {"varkappa": 4.0, "sweep_kappas": [8.0, 16.0, 32.0]},
        },
        "busy": ["lax.fixed_point", "spectral.dealiased_mul",
                 "spectral.apply_multiplier", "flows.step", "diagnostics",
                 "storage", "cli"],
    },
    # full mKdV flow (Lawson RK4): dealiased products dominate, the fixed
    # point runs only for alpha at each snapshot; 21 binary snapshots.
    "mkdv_evolve": {
        "calls": ["evolve"],
        "config": {
            "grid": {"length": 128.0, "points": 4096},
            "data": DATA,
            "flow": {"kind": "mkdv", "dt": 5e-4, "t_final": 0.5,
                     "snapshot_stride": 50},
            "diagnostics": {"kappas": [2.0]},
        },
        "busy": ["spectral.dealiased_mul", "spectral.apply_multiplier",
                 "lax.fixed_point", "hierarchy.hamiltonians", "flows.step",
                 "diagnostics", "storage", "cli"],
    },
    # Green's triple three ways, then the determinant two ways: 2048x2048
    # dense matrices (64 MB each, beyond L3) set time and memory.
    "dense_crosscheck": {
        "calls": ["green", "conserved"],
        "config": {
            "grid": {"length": 64.0, "points": 1024},
            "data": DATA,
            "diagnostics": {"kappas": [4.0]},
        },
        "busy": ["lax.greens_oracle", "lax.operator_pair", "lax.pdet_trace",
                 "lax.fixed_point", "hierarchy.hamiltonians", "storage", "cli"],
    },
    # microscopic conservation under the generating flow: r evolves on its
    # own, so no conjugation shortcut; cmd_micro re-solves every snapshot
    # cold and writes an 11 MB text CSV.
    "micro_aflow": {
        "calls": ["micro"],
        "config": {
            "grid": {"length": 64.0, "points": 1024},
            "data": DATA,
            "flow": {"kind": "a_flow", "kappa": 2.0, "dt": 0.01, "t_final": 4.0,
                     "snapshot_stride": 4},
            "diagnostics": {"varkappa": 4.0, "flavor": "a_flow"},
        },
        "busy": ["lax.fixed_point", "spectral.dealiased_mul",
                 "spectral.apply_multiplier", "hierarchy.density",
                 "hierarchy.current", "flows.step", "diagnostics", "storage",
                 "cli"],
    },
}


def largest_array_bytes(name: str) -> int:
    """Largest array the workload holds, for the cache comparison: 1-D fields
    are complex128 on the 2N-point dealiasing grid; the dense workload holds
    2N x 2N complex128 matrices."""
    n = WORKLOADS[name]["config"]["grid"]["points"]
    if name == "dense_crosscheck":
        return (2 * n) ** 2 * 16
    return 2 * n * 16


def cli_argv(name: str, config_path: str, out: str, seed: int) -> list[list[str]]:
    """The argv of each CLI call the workload makes, in order."""
    return [[sub, "--config", config_path, "--out", out, "--seed", str(seed)]
            for sub in WORKLOADS[name]["calls"]]


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check(checks: list, call: int, label: str, value: float, bound: float) -> None:
    checks.append({"call": call, "check": label, "value": value, "bound": bound,
                   "ok": value <= bound})


def gate(name: str, out: str) -> list[dict]:
    """Correctness checks on the outputs of one workload run.

    Each check names the index of the CLI call whose output it reads, so a
    failed check counts against that call.  A missing or malformed output
    file fails the check instead of raising.
    """
    checks: list = []
    try:
        if name == "dense_crosscheck":
            rows = _csv_rows(os.path.join(out, "green", "identities.csv"))
            methods = {row["method"]: row for row in rows}
            # without an oracle row the fixed point is its own reference
            checks.append({"call": 0, "check": "oracle row present",
                           "value": float("oracle" in methods), "bound": 1.0,
                           "ok": "oracle" in methods})
            _check(checks, 0, "fixed_point l2_vs_reference",
                   float(methods["fixed_point"]["l2_vs_reference"]), 1e-7)
            rows = _csv_rows(os.path.join(out, "conserved", "determinant.csv"))
            _check(checks, 1, "determinant method_gap",
                   max(float(row["method_gap"]) for row in rows), 1e-7)
        elif name == "mkdv_evolve":
            rows = _csv_rows(os.path.join(out, "evolve", "drift.csv"))
            names = {row["quantity"] for row in rows}
            checks.append({"call": 0, "check": "drift quantities",
                           "value": float(len(names)), "bound": 5.0,
                           "ok": names == {"mass", "momentum", "h_nls", "h_mkdv",
                                           "alpha(2)"}})
            _check(checks, 0, "max relative_drift",
                   max(float(row["relative_drift"]) for row in rows), 1e-6)
        elif name == "micro_aflow":
            point = _json(os.path.join(out, "micro", "pointwise.json"))
            _check(checks, 0, "max_relative_gap", float(point["max_relative_gap"]), 1e-5)
            _check(checks, 0, "pointwise l1", float(point["l1"]), 1e-5)
        elif name == "diff_sweep":
            summary = _json(os.path.join(out, "sweep", "summary.json"))
            rows = _csv_rows(os.path.join(out, "sweep", "sweep.csv"))
            monotone = summary["monotone_decreasing"] is True and len(rows) == 3
            checks.append({"call": 0, "check": "monotone_decreasing",
                           "value": float(monotone), "bound": 1.0, "ok": monotone})
        else:
            raise KeyError(name)
    except (OSError, KeyError, ValueError) as exc:
        checks.append({"call": 0, "check": f"outputs readable ({exc})",
                       "value": float("nan"), "bound": 0.0, "ok": False})
    return checks
