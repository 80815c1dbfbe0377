"""Persistence formats, configuration round-trips, and the CLI contract."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aknslab import flows, lax, selftest
from aknslab.cli import _flow_spec, main
from aknslab.config import ConfigError, ExperimentConfig, config_reference
from aknslab.diagnostics import micro_residual
from aknslab.flows import FlowSpec, evolve
from aknslab.lax import LaxError, series_raw
from aknslab.profiles import gaussian
from aknslab.spectral import Field, Grid
from aknslab.storage import (
    fmt,
    read_snapshot,
    read_trajectory,
    write_csv,
    write_snapshot,
    write_trajectory,
)

from conftest import run_fresh


class TestSnapshots:
    def test_round_trip(self, tmp_path, grid, small_gaussian):
        base = str(tmp_path / "field")
        write_snapshot(base, small_gaussian, time=0.25, label="probe")
        back, meta = read_snapshot(base)
        assert np.array_equal(back.values, small_gaussian.values)
        assert back.grid == grid and back.sign == small_gaussian.sign
        assert meta["time"] == 0.25 and meta["label"] == "probe"

    def test_raw_layout_is_interleaved_little_endian(self, tmp_path, grid):
        f = Field(grid, (1.0 + 2.0j) * np.ones(grid.points))
        base = str(tmp_path / "flat")
        write_snapshot(base, f)
        raw = np.fromfile(base + ".f64", dtype="<f8")
        assert raw.shape == (2 * grid.points,)
        assert raw[0] == 1.0 and raw[1] == 2.0

    def test_trajectory_round_trip(self, tmp_path, grid, small_gaussian):
        traj = evolve(small_gaussian, FlowSpec("nls", 1e-3, 0.01, snapshot_stride=5))
        write_trajectory(str(tmp_path / "traj"), traj, {"mass": [1.0, 1.0, 1.0]})
        back = read_trajectory(str(tmp_path / "traj"))
        assert back.times == traj.times
        assert all(np.array_equal(a, b) for a, b in zip(back.states, traj.states))
        assert back.spec == traj.spec

    def test_manifest_naming_a_scheme_reads(self, tmp_path, grid, small_gaussian):
        traj = evolve(small_gaussian, FlowSpec("nls", 1e-3, 2e-3))
        write_trajectory(str(tmp_path / "old"), traj)
        path = tmp_path / "old" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["spec"]["scheme"] = "splitting4"
        path.write_text(json.dumps(manifest))
        assert read_trajectory(str(tmp_path / "old")).spec == traj.spec

    def test_kappa_family_trajectory_is_refused(self, tmp_path, grid, small_gaussian):
        # a family's (B, N) states are no snapshot: refused before a file is made
        traj = evolve(small_gaussian, FlowSpec("nls_diff", 1e-3, 2e-3, kappa=(8.0, 16.0)))
        with pytest.raises(ValueError, match="kappa family"):
            write_trajectory(str(tmp_path / "family"), traj)
        assert not (tmp_path / "family").exists()

    def test_pair_trajectory_round_trip(self, tmp_path, grid, small_gaussian):
        traj = evolve(small_gaussian, FlowSpec("a_flow", 1e-3, 0.004, kappa=2.0,
                                               snapshot_stride=2))
        write_trajectory(str(tmp_path / "pair"), traj)
        back = read_trajectory(str(tmp_path / "pair"))
        assert back.r_states is not None
        assert all(np.array_equal(a, b) for a, b in zip(back.r_states, traj.r_states))


class TestConfig:
    def test_round_trip_bit_identical(self):
        cfg = ExperimentConfig()
        text = cfg.to_json()
        again = ExperimentConfig.from_json(text).to_json()
        assert text == again

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"grid": {"lenght": 3.0}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bogus": {}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"threads": 2})

    def test_field_builders(self):
        cfg = ExperimentConfig.from_dict(
            {"data": {"profile": "appendix_even", "amplitude": 0.2}})
        f = cfg.make_field()
        assert abs(f.grid.integrate(f.values)) < 1e-12
        cfg2 = ExperimentConfig.from_dict({"data": {"profile": "nope"}})
        with pytest.raises(ConfigError):
            cfg2.make_field()

    def test_reference_mentions_every_section(self):
        text = config_reference()
        for token in ("[grid]", "[data]", "[flow]", "[diagnostics]"):
            assert token in text
        assert "AKNSLAB_" not in text  # no environment variable overrides a field

    def test_csv_formatting_deterministic(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [[0.1, 1 + 2j], [float(1e-17), True]])
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "0.1,1.0+2.0j"
        assert lines[2] == "1e-17,true"

    def test_csv_quotes_text_fields(self, tmp_path):
        # a comma-free row is the plain comma join; a comma or a quote in a
        # text field is quoted, so the row reads back whole
        path = str(tmp_path / "t.csv")
        plain = ["plain", 0.5, -1 - 2j, False]
        quoted = ["a,b", 'say "x"', 3, float("-inf")]
        write_csv(path, ["name", "note", "value", "flag"], [plain, quoted])
        with open(path, "rb") as fh:
            data = fh.read()
        assert data == (b"name,note,value,flag\n"
                        b"plain,0.5,-1.0-2.0j,false\n"
                        b'"a,b","say ""x""",3,-inf\n')
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["plain", "0.5", "-1.0-2.0j", "false"]
        assert rows[2] == ["a,b", 'say "x"', "3", "-inf"]

    def test_csv_bytes_match_the_row_by_row_writer(self, tmp_path):
        # the column-wise writer gives the bytes of csv.writer fed one fmt
        # string per value, for lists of rows, generators and column blocks
        def row_by_row(path, header, rows):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([fmt(v) for v in row] for row in rows)

        rng = np.random.default_rng(3)
        x = rng.standard_normal(2500)
        x[:4] = [0.0, -0.0, np.inf, np.nan]
        z = rng.standard_normal(2500) + 1j * rng.standard_normal(2500)
        z[:4] = [complex(1.0, -0.0), complex(-0.0, 0.0), complex(np.nan, np.nan),
                 complex(-np.inf, 1e-300)]
        header = ["name", "flag", "count", "x", "z"]
        mixed = [["plain", True, np.int64(-7), 0.1, 1 + 2j],
                 ['a,b "c"', np.bool_(False), 3, np.float32(0.1), np.complex64(-1 - 0.5j)],
                 ["line\nbreak", False, np.uint8(255), float("-inf"), -0.0j],
                 ["", 1, 2, 3, 4]]
        numeric = [[k, np.int32(k), b, v, w]
                   for k, (b, v, w) in enumerate(zip(x > 0, x, z))]
        cases = {
            "mixed": (mixed, mixed),
            "generator": ((row for row in numeric), numeric),
            "text and numbers": (mixed + numeric, mixed + numeric),
        }
        for label, (given, rows) in cases.items():
            got, want = tmp_path / f"{label}.csv", tmp_path / f"{label}.want.csv"
            write_csv(str(got), header, given)
            row_by_row(str(want), header, rows)
            assert got.read_bytes() == want.read_bytes(), label
        blocks = [("t0", np.arange(3) > 0, np.arange(3), x[:3], z[:3]),
                  ("t,1", True, 5, x[3:6], list(z[3:6]))]
        rows = ([["t0", f, c, v, w] for f, c, v, w in zip(*blocks[0][1:])]
                + [["t,1", True, 5, v, w] for v, w in zip(x[3:6], z[3:6])])
        write_csv(str(tmp_path / "blocks.csv"), header, iter(blocks), blocks=True)
        row_by_row(str(tmp_path / "blocks.want.csv"), header, rows)
        assert (tmp_path / "blocks.csv").read_bytes() == \
            (tmp_path / "blocks.want.csv").read_bytes()

    def test_csv_rejects_rows_that_do_not_fit_the_header(self, tmp_path):
        path = str(tmp_path / "t.csv")
        with pytest.raises(ValueError, match="fields"):
            write_csv(path, ["a", "b"], [[1, 2], [3]])
        with pytest.raises(ValueError, match="lengths"):
            write_csv(path, ["a", "b"], [(np.zeros(2), np.zeros(3))], blocks=True)


def run_cli(args, cwd):
    return main(args)


# a valid flow of three snapshots: micro's time stencil needs five, and it
# must say so before stepping the flow
TOO_FEW_FOR_MICRO = {"grid": {"length": 64, "points": 64},
                     "flow": {"t_final": 0.01, "dt": 0.001, "snapshot_stride": 5}}
# a micro flavor that is unknown or does not pair with the flow, and a sweep
# of a flow with no difference flow: usage errors, also before stepping
UNKNOWN_FLAVOR = {"diagnostics": {"flavor": "kdv"}}
MISPAIRED_FLAVOR = {"flow": {"kind": "nls"}, "diagnostics": {"flavor": "mkdv"}}
SWEEP_OF_A_FLOW = {"flow": {"kind": "a_flow", "kappa": 2.0}}
# a sweep whose flows take no step would report a defect of 0 for every kappa
SWEEP_WITHOUT_STEPS = {"flow": {"t_final": 0.0}}
# a sweep over no kappa would write a header-only table
SWEEP_WITHOUT_KAPPAS = {"diagnostics": {"sweep_kappas": []}}


class TestCli:
    @pytest.fixture()
    def base_config(self, tmp_path):
        cfg = {
            "grid": {"length": 64.0, "points": 128},
            "data": {"profile": "gaussian", "amplitude": 0.1},
            "flow": {"kind": "nls", "dt": 0.002, "t_final": 0.02,
                     "snapshot_stride": 2},
            "diagnostics": {"kappas": [1.0, 2.0], "varkappa": 2.0,
                            "h_count": 3, "h_count_sup": 5},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path), cfg

    def test_green_conserved_evolve(self, tmp_path, base_config):
        path, cfg = base_config
        assert main(["green", "--config", path]) == 0
        assert main(["conserved", "--config", path]) == 0
        assert main(["evolve", "--config", path]) == 0
        out = cfg["out"]
        assert os.path.exists(os.path.join(out, "green", "identities.csv"))
        assert os.path.exists(os.path.join(out, "conserved", "determinant.csv"))
        assert os.path.exists(os.path.join(out, "evolve", "trajectory", "manifest.json"))
        for sub in ("green", "conserved", "evolve"):
            assert os.path.exists(os.path.join(out, sub, "resolved_config.json"))
            assert os.path.exists(os.path.join(out, sub, "config_reference.txt"))

    def test_green_oracle_builds_its_own_series(self, monkeypatch, base_config):
        # the series(3) entry and the oracle each build the order-3 series,
        # a few ms against the oracle's dense inverse
        path, cfg = base_config
        calls = []

        def counted(grid, q, r, kappa):
            calls.append(kappa)
            return series_raw(grid, q, r, kappa)

        monkeypatch.setattr(lax, "series_raw", counted)
        assert main(["green", "--config", path]) == 0
        for kappa in cfg["diagnostics"]["kappas"]:
            with open(os.path.join(cfg["out"], "green", f"meta_k{kappa:g}.json")) as fh:
                assert "oracle" in json.load(fh)["methods"]
        assert sorted(calls) == sorted(2 * cfg["diagnostics"]["kappas"])

    def test_micro_and_smoothing(self, tmp_path, base_config):
        path, cfg = base_config
        assert main(["micro", "--config", path]) == 0
        assert main(["smoothing", "--config", path]) == 0
        rows = open(os.path.join(cfg["out"], "micro", "integrated.csv")).read()
        assert rows.startswith("h,")

    def test_micro_csv_is_the_report(self, tmp_path, base_config):
        # density_current.csv holds the very samples the residual was measured on
        path, _ = base_config
        out1, out2 = str(tmp_path / "m1"), str(tmp_path / "m2")
        assert main(["micro", "--config", path, "--out", out1]) == 0
        assert main(["micro", "--config", path, "--out", out2]) == 0
        text = open(os.path.join(out1, "micro", "density_current.csv"), "rb").read()
        assert text == open(os.path.join(out2, "micro", "density_current.csv"), "rb").read()
        cfg = ExperimentConfig.load(path)
        traj = evolve(cfg.make_field(), _flow_spec(cfg))
        rep = micro_residual(traj, cfg.diagnostics.varkappa, cfg.diagnostics.flavor,
                             h_count=cfg.diagnostics.h_count, fp_tol=cfg.flow.fp_tol)
        lines = text.decode().splitlines()
        assert lines[0] == "t,x,density,current"
        rows = [line.split(",") for line in lines[1:]]
        n = traj.grid.points
        assert len(rows) == len(traj) * n
        for k, (t, x, d, c) in enumerate(rows):
            i, j = divmod(k, n)
            assert float(t) == traj.times[i] and float(x) == traj.grid.x[j]
            assert complex(d) == rep.densities[i][j]
            assert complex(c) == rep.currents[i][j]

    def test_generating_flow_drift_on_its_own_partner(self, tmp_path):
        # the generating flow conserves its invariants for the evolved pair
        # (q, r); measured on r = conj(q) instead, momentum and h_mkdv drift
        # by 1e-2 and 3e-2 on this config
        cfg = {"grid": {"length": 64.0, "points": 256},
               "data": {"profile": "gaussian", "amplitude": 0.1},
               "flow": {"kind": "a_flow", "kappa": 2.0, "dt": 1e-3, "t_final": 0.1,
                        "snapshot_stride": 25},
               "diagnostics": {"kappas": [1.0, 2.0, 4.0]},
               "out": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["evolve", "--config", str(path)]) == 0
        with open(os.path.join(cfg["out"], "evolve", "drift.csv")) as fh:
            drift = {row["quantity"]: float(row["relative_drift"])
                     for row in csv.DictReader(fh)}
        assert len(drift) == 7
        assert max(drift.values()) <= 1e-10, drift

    def test_determinism_byte_identical(self, tmp_path, base_config):
        path, _ = base_config
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        assert main(["conserved", "--config", path, "--out", out1]) == 0
        assert main(["conserved", "--config", path, "--out", out2]) == 0
        a = open(os.path.join(out1, "conserved", "determinant.csv"), "rb").read()
        b = open(os.path.join(out2, "conserved", "determinant.csv"), "rb").read()
        assert a == b

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "missing.json")]) == 2

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["evolve", "--seed", "-5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: --seed must be >= 0, got -5"]
        assert not out.exists()

    @pytest.mark.parametrize("tree", [
        {"grid": 5},
        {"diagnostics": {"kappas": 2.0}},
        {"flow": {"dt": float("nan")}},
        {"grid": {"points": "256"}},
        {"seed": "x"},
        {"flow": {"dt": -1}},
        {"flow": {"scheme": "euler"}},
        {"flow": {"scheme": "etd4"}},
        {"flow": {"kind": "nls_kappa"}},
        {"flow": {"t_final": 1e-3, "dt": 3e-4}},
        {"flow": {"kind": "nls_diff", "kappa": 8.0, "scheme": "splitting4"}},
        {"diagnostics": {"radii": [8.0]}},
        TOO_FEW_FOR_MICRO,
        {"flow": {"kind": "mkdv", "scheme": "splitting4"}},
        UNKNOWN_FLAVOR,
        MISPAIRED_FLAVOR,
        SWEEP_OF_A_FLOW,
        SWEEP_WITHOUT_STEPS,
        SWEEP_WITHOUT_KAPPAS,
        {"diagnostics": {"trace_order": 8}},
        {"seed": -5, "data": {"profile": "random"}},
    ])
    def test_bad_config_is_a_usage_error(self, tmp_path, capsys, tree):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tree))
        if any(tree is t for t in (TOO_FEW_FOR_MICRO, UNKNOWN_FLAVOR, MISPAIRED_FLAVOR)):
            command = "micro"
        else:
            command = ("sweep" if any(tree is t for t in (SWEEP_OF_A_FLOW, SWEEP_WITHOUT_STEPS,
                                                          SWEEP_WITHOUT_KAPPAS))
                       else "evolve")
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / command / "sweep.csv").exists()

    def test_numerical_error_exit_code(self, tmp_path):
        cfg = {
            "grid": {"length": 64.0, "points": 128},
            "data": {"profile": "gaussian", "amplitude": 3.0},
            "flow": {"kind": "nls", "dt": 0.002, "t_final": 0.01,
                     "snapshot_stride": 1},
            "diagnostics": {"kappas": [1.0]},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        # data outside the contraction gate: the green subcommand must fail
        assert main(["green", "--config", str(path)]) == 3
        # and so must a flow whose fixed point meets the gate mid-run
        cfg["data"]["amplitude"] = 0.5
        cfg["flow"].update(kind="nls_diff", kappa=8.0)
        path.write_text(json.dumps(cfg))
        assert main(["evolve", "--config", str(path)]) == 3
        # a failed run writes nothing
        assert not os.path.exists(cfg["out"])

    def test_green_zero_field_exports_zeros(self, tmp_path):
        cfg = {
            "grid": {"length": 64.0, "points": 128},
            "data": {"profile": "gaussian", "amplitude": 0.0},
            "diagnostics": {"kappas": [2.0]},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        assert main(["green", "--config", str(path)]) == 0
        f, _ = read_snapshot(os.path.join(cfg["out"], "green", "g12_k2_fixed_point"))
        assert np.all(f.values == 0.0)

    def test_conserved_past_the_dense_cap(self, tmp_path):
        # beyond lax.ORACLE_MAX_POINTS the dense trace columns read nan, and
        # the integral route still runs
        cfg = {"grid": {"length": 64.0, "points": 2048},
               "data": {"profile": "gaussian", "amplitude": 0.1},
               "diagnostics": {"kappas": [2.0]},
               "out": str(tmp_path / "out")}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["conserved", "--config", str(path)]) == 0
        with open(os.path.join(cfg["out"], "conserved", "determinant.csv")) as fh:
            (row,) = list(csv.DictReader(fh))
        assert math.isfinite(complex(row["det_integral"]).real)
        assert math.isfinite(float(row["alpha"]))
        for column in ("det_trace", "method_gap", "spectral_radius"):
            assert row[column] == "nan", column

    def test_conserved_expansion_column_shrinks(self, tmp_path):
        # appendix-even data, kappa doubling: expansion error drops ~2^5
        cfg = {
            "grid": {"length": 64.0, "points": 256},
            "data": {"profile": "appendix_even", "amplitude": 0.1},
            "diagnostics": {"kappas": [8.0, 16.0, 32.0]},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        assert main(["conserved", "--config", str(path)]) == 0
        rows = open(os.path.join(cfg["out"], "conserved", "determinant.csv")).read().splitlines()
        errs = [float(line.split(",")[-1]) for line in rows[1:]]
        assert 20.0 <= errs[0] / errs[1] <= 45.0
        assert 20.0 <= errs[1] / errs[2] <= 45.0

    def test_selftest_runs_every_group(self, tmp_path, monkeypatch):
        # the real table runs in test_acceptance.py; fake groups stand in.  A
        # failed row and a group that raises each fail the run, and both report
        def raising():
            raise LaxError("diverged, twice")

        rows = [("small", 0.5, -math.inf, 1.0, True), ("ratio", 16.0, 12.0, 20.0, True)]
        failing = ("strict", 1.0, -math.inf, 1.0, False)
        tables = {}
        for out, groups, code in (("pass", (lambda: rows[:1], lambda: rows[1:]), 0),
                                  ("fail", (lambda: [failing], raising, lambda: rows), 1)):
            monkeypatch.setattr(selftest, "GROUPS", groups)
            assert main(["selftest", "--out", str(tmp_path / out)]) == code
            with open(tmp_path / out / "selftest" / "selftest.csv", newline="") as fh:
                tables[out] = list(csv.reader(fh))
        assert tables["pass"] == [["check", "passed", "measured", "lower", "upper"],
                                  ["small", "true", "0.5", "-inf", "1.0"],
                                  ["ratio", "true", "16.0", "12.0", "20.0"]]
        assert [row[:2] for row in tables["fail"][1:]] == [
            ["strict", "false"], ["raising raised LaxError: diverged; twice", "false"],
            ["small", "true"], ["ratio", "true"]]

    def test_entry_point_runs(self, tmp_path, base_config):
        path, _ = base_config
        proc = subprocess.run(
            [sys.executable, "-m", "aknslab.cli", "conserved",
             "--config", path, "--out", str(tmp_path / "ep")],
            capture_output=True, text=True, timeout=500)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_quadrature_module(self):
        # scipy.integrate and scipy.interpolate load scipy.special and
        # scipy.optimize, most of a run's start-up; only the scale-family
        # quadrature and partition_constant import them, when called.  No
        # other scipy module loads either, while numpy 2's lazy numpy.fft and
        # numpy.random load at import, not inside the first run.  The check
        # table loads only with the selftest subcommand
        script = ("import sys, aknslab.cli; print(' '.join(m for m in ('scipy.integrate', "
                  "'scipy.interpolate', 'scipy.special', 'scipy.optimize') if m in sys.modules)); "
                  "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                  "print(' '.join(m for m in ('numpy.fft', 'numpy.random') if m in sys.modules)); "
                  "print('aknslab.selftest' in sys.modules)")
        quadrature, loaded, lazy, selftest = run_fresh(script).split("\n")[:4]
        assert quadrature.split() == []
        assert loaded.split() == []
        assert lazy.split() == ["numpy.fft", "numpy.random"]
        assert selftest == "False"

    def test_green_and_conserved_load_no_scipy(self, tmp_path, base_config):
        # the dense oracle, the circulant and the spectral radius are numpy
        path, _ = base_config
        script = ("import sys; from aknslab.cli import main; "
                  f"codes = [main([sub, '--config', {path!r}, '--out', {str(tmp_path / 'o')!r}]) "
                  "for sub in ('green', 'conserved')]; "
                  "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert run_fresh(script).strip() == "[0, 0] []"


# every field and every section of the config tree, as (section, key) with key
# None for a whole section or a top-level scalar
_DEFAULTS = ExperimentConfig()
TARGETS = [(s.name, None) for s in dataclasses.fields(_DEFAULTS)] + [
    (s.name, f.name) for s in dataclasses.fields(_DEFAULTS)
    if dataclasses.is_dataclass(getattr(_DEFAULTS, s.name))
    for f in dataclasses.fields(getattr(_DEFAULTS, s.name))]
# wrong-typed, non-finite and out-of-range values
BAD_VALUES = ["x", "bogus", True, None, {}, {"bogus": 1}, [], [1.0, "x"],
              [float("nan")], [-1.0], [0.0], 3, -1, 0, -1.0, 0.0,
              float("nan"), float("inf"), float("-inf")]
SMALL = {"grid": {"length": 32.0, "points": 64},
         "flow": {"t_final": 0.01, "snapshot_stride": 5},
         "diagnostics": {"kappas": [2.0]}}


def run_counting_steps(sub, path, out):
    """``main`` on one subcommand: its exit code, its stderr, and the number
    of ``Integrator.step`` calls it made."""
    steps = 0
    step = flows.Integrator.step

    def counted(self, *args, **kwargs):
        nonlocal steps
        steps += 1
        return step(self, *args, **kwargs)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(flows.Integrator, "step", counted)
        code = main([sub, "--config", path, "--out", out])
    return code, err.getvalue(), steps


def assert_exits_cleanly(tree):
    """Every subcommand but ``selftest`` on ``tree`` exits 0, 2 or 3 (``sweep``
    also 1, its property failure) with at most one line on stderr, a
    usage error (2) is raised before the first step of any flow, and a run
    that fails (2 or 3) leaves no output directory; a traceback or an
    escaped RuntimeWarning fails by raising.  Returns the exit code of each
    subcommand."""
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(tree, fh)
        for sub in ("green", "evolve", "conserved", "smoothing", "micro", "inflate",
                    "sweep"):
            code, err, steps = run_counting_steps(sub, path, tmp)
            allowed = (0, 1, 2, 3) if sub == "sweep" else (0, 2, 3)
            assert code in allowed, (sub, tree, err)
            assert len(err.splitlines()) <= 1, (sub, tree, err)
            assert code != 2 or steps == 0, (sub, tree, steps, err)
            assert code not in (2, 3) or not os.path.exists(os.path.join(tmp, sub)), \
                (sub, tree, code, err)
            codes[sub] = code
    return codes


def exit_codes_with(key, value):
    """``assert_exits_cleanly`` on SMALL with ``diagnostics.key = value``.
    SMALL's three snapshots stop micro at its five-snapshot check, before it
    reads its diagnostics fields; a stride of 2 gives it six."""
    tree = copy.deepcopy(SMALL)
    tree["flow"]["snapshot_stride"] = 2
    tree["diagnostics"][key] = value
    return assert_exits_cleanly(tree)


class TestConfigProperty:
    @given(st.lists(st.tuples(st.sampled_from(TARGETS), st.sampled_from(BAD_VALUES)),
                    min_size=1, max_size=2))
    def test_mutated_config_exits_cleanly(self, mutations):
        tree = copy.deepcopy(SMALL)
        for (section, key), value in mutations:
            value = copy.deepcopy(value)  # sampled values are shared objects
            if key is None:
                tree[section] = value
            else:
                if not isinstance(tree.get(section), dict):
                    tree[section] = {}
                tree[section][key] = value
        assert_exits_cleanly(tree)

    # huge and tiny magnitudes overflow squares, powers and the step count on
    # the way; a t_final of 1e300 asks for more snapshots than an array holds
    @pytest.mark.parametrize("changes", [
        {"data": {"amplitude": 1e155}}, {"data": {"amplitude": 1e200}},
        {"data": {"amplitude": 1e-300}}, {"grid": {"length": 1e-300}},
        {"grid": {"length": 1e300}}, {"flow": {"t_final": 1e300}},
        {"flow": {"t_final": 1e300, "dt": 1e-300}}])
    def test_extreme_magnitude_exits_cleanly(self, changes):
        tree = copy.deepcopy(SMALL)
        for section, fields in changes.items():
            tree.setdefault(section, {}).update(fields)
        assert_exits_cleanly(tree)

    @pytest.mark.parametrize("key, value, failing", [
        ("h_count", 0, ("micro", "sweep")), ("h_count", -1, ("micro", "sweep")),
        ("h_count_sup", 0, ("smoothing",)), ("lambdas", [], ("inflate",)),
        ("lambdas", [0.0], ("inflate",)), ("lambdas", [-1.0], ("inflate",)),
        ("varkappa", 1.0, ("sweep",)),
        ("kappas", [0.0], ("green", "evolve", "conserved", "smoothing"))])
    def test_bad_diagnostics_field_is_a_usage_error(self, key, value, failing):
        codes = exit_codes_with(key, value)
        assert all(codes[sub] == 2 for sub in failing), codes

    # usage errors found from the config alone, each raised before any step:
    # (exit code, stderr lines, steps), and no output directory
    @staticmethod
    def usage_outcome(tmp_path, sub, changes):
        tree = copy.deepcopy(SMALL)
        tree["flow"]["snapshot_stride"] = 2
        for section, fields in changes.items():
            tree[section].update(fields)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tree))
        code, err, steps = run_counting_steps(sub, str(path), str(tmp_path))
        assert not (tmp_path / sub).exists(), (code, err)
        return code, len(err.splitlines()), steps

    @pytest.mark.parametrize("sub, section, key, value", [
        ("micro", "diagnostics", "h_count", 0), ("micro", "diagnostics", "h_count", -1),
        ("micro", "flow", "snapshot_stride", 3),  # 10 steps: snapshots not uniform
        ("smoothing", "diagnostics", "h_count_sup", 0),
        ("smoothing", "diagnostics", "h_count_sup", -1),
        ("inflate", "diagnostics", "lambdas", []),
        ("sweep", "diagnostics", "varkappa", 1.0),
        ("evolve", "diagnostics", "kappas", [0.5]),
        ("evolve", "diagnostics", "kappas", [-2.0]),
        ("smoothing", "diagnostics", "kappas", [0.5]),
        ("smoothing", "diagnostics", "kappas", [-2.0]),
        ("micro", "diagnostics", "varkappa", 0.5),
        ("green", "diagnostics", "kappas", [0.0]),
        ("conserved", "diagnostics", "kappas", [0.0])])
    def test_usage_error_before_the_first_step(self, tmp_path, sub, section, key, value):
        outcome = self.usage_outcome(tmp_path, sub, {section: {key: value}})
        assert outcome == (2, 1, 0)

    # the generating current's pole at varkappa = +-kappa, and bumps that
    # overlap at their separation
    @pytest.mark.parametrize("sub, changes", [
        ("micro", {"flow": {"kind": "a_flow", "kappa": 4.0},
                   "diagnostics": {"flavor": "a_flow", "varkappa": 4.0}}),
        ("micro", {"flow": {"kind": "nls_diff", "kappa": 8.0},
                   "diagnostics": {"flavor": "nls_diff", "varkappa": 8.0}}),
        ("micro", {"flow": {"kind": "nls_diff", "kappa": 8.0},
                   "diagnostics": {"flavor": "nls_diff", "varkappa": -8.0}}),
        ("inflate", {"diagnostics": {"bumps": 2, "separation": 2.0}})])
    def test_pole_and_overlap_before_the_first_step(self, tmp_path, sub, changes):
        assert self.usage_outcome(tmp_path, sub, changes) == (2, 1, 0)

    @pytest.mark.parametrize("sub", ["green", "conserved"])
    def test_every_kappa_checked_before_any_solve(self, tmp_path, monkeypatch, sub):
        # kappa = 4 is valid, but nothing is solved before 0.5 is refused
        calls = {}
        for name in ("series_raw", "fixed_point_raw"):
            def counted(*args, _name=name, _solve=getattr(lax, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _solve(*args, **kwargs)
            monkeypatch.setattr(lax, name, counted)
        outcome = self.usage_outcome(tmp_path, sub, {"diagnostics": {"kappas": [4.0, 0.5]}})
        assert outcome == (2, 1, 0) and calls == {}, calls

    def test_negative_varkappa_runs(self, tmp_path):
        tree = copy.deepcopy(SMALL)
        tree["flow"]["snapshot_stride"] = 2
        tree["diagnostics"]["varkappa"] = -2.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tree))
        assert main(["micro", "--config", str(path), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("key, value, failing", [
        ("sigma", 400, ("smoothing",))])
    def test_bad_diagnostics_field_is_a_numerical_failure(self, key, value, failing):
        codes = exit_codes_with(key, value)
        assert all(codes[sub] == 3 for sub in failing), codes
