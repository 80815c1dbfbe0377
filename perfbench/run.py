"""aknslab benchmark: time each workload's CLI call(s) end to end, in fresh
processes with fresh output directories, and check every output.

    python3 perfbench/run.py --workload diff_sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Samples run one process at a time, a closed loop of one client, until
``--seconds`` have passed (at least one sample).  With ``--trace 0`` each
sample is untraced and the run reports the medians of ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` samples alternate
untraced and traced, the run reports the per-layer metrics (medians over
traced samples; counts must agree exactly) and ``trace.overhead_s``, and it
writes the spans of the last traced sample under ``.perfbench_runs/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation is one CLI call; it fails when it
exits non-zero or its outputs fail the gate.  The exit code is 0 whenever a
result is printed; it is non-zero, with no result, when the checkout has no
aknslab sources or a sample cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, largest_array_bytes  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(ROOT, "perfbench", "child.py")

#: A sample that takes longer than this is killed and the run aborts.
SAMPLE_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics the run reports; their units.  Layer times that read
#: 0.0 on workloads that never enter the layer (oracle, hierarchy, step
#: percentiles, diagnostics) are in the spans file and printed, not here.
PER_LAYER = {
    "lax.fixed_point.calls": "count",
    "lax.fixed_point.iters_per_call": "iter/call",
    "lax.fixed_point.cold_calls": "count",
    "lax.fixed_point.total_s": "s",
    "lax.fixed_point.self_s": "s",
    "spectral.dealiased_mul.calls": "count",
    "spectral.dealiased_mul.self_s": "s",
    "spectral.dealiased_mul.us_per_call": "us",
    "spectral.apply_multiplier.calls": "count",
    "spectral.apply_multiplier.self_s": "s",
    "spectral.fft.calls": "count",
    "spectral.fft.gflop_computed": "GFLOP",
    "spectral.fft.mb_moved_computed": "MB",
    "flows.step.calls": "count",
    "storage.write_s": "s",
    "storage.bytes_written": "B",
    "storage.files_written": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

#: Counts that must repeat exactly between traced samples of one seed.
EXACT = ("lax.fixed_point.calls", "lax.fixed_point.iters_per_call",
         "lax.fixed_point.cold_calls", "spectral.dealiased_mul.calls",
         "spectral.apply_multiplier.calls", "spectral.fft.calls",
         "flows.step.calls", "storage.files_written")

#: Layer totals whose share of the traced wall time is printed.
SHARES = ("lax.fixed_point.total_s", "spectral.dealiased_mul.self_s",
          "lax.greens_oracle.total_s", "lax.pdet_trace.total_s",
          "storage.write_s", "flows.step.self_s", "cli.self_s")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Machine and environment


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def filesystem_type(path: str) -> str:
    """fstype of the mount holding ``path``, from /proc/self/mountinfo."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    for line in _read("/proc/self/mountinfo").splitlines():
        fields = line.split()
        if " - " not in line or len(fields) < 5:
            continue
        mount = fields[4]
        if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                and len(mount) > len(best):
            best, fstype = mount, line.split(" - ", 1)[1].split()[0]
    return fstype


def machine() -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        size = _read(os.path.join(base, index, "size")).strip()
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    ram = ""
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal"):
            ram = f"{int(line.split()[1]) / 1024 ** 2:.1f} GiB"
    blas = {}
    try:
        import numpy
        import scipy
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
        versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    except (ImportError, KeyError, TypeError) as exc:
        versions = {"numpy/scipy": f"unavailable ({exc})"}
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc, "cpu": cpu, "caches": caches, "ram": ram,
        "python": platform.python_version(), **versions,
        "blas": blas,
        # no threadpoolctl here: OpenBLAS uses nproc threads unless capped
        "blas_threads": threads or f"unset (OpenBLAS default: nproc = {nproc})",
    }


def _mib(text: str) -> float:
    """'2048K' / '32M' / '32768 KB' as MiB."""
    digits = "".join(c for c in text if c.isdigit())
    if not digits:
        return 0.0
    return int(digits) / (1.0 if "M" in text.upper() else 1024.0)


def cache_note(name: str, caches: dict) -> str:
    size = largest_array_bytes(name) / 2 ** 20
    l2, l3 = _mib(caches.get("L2", "")), _mib(caches.get("L3", ""))
    where = ("fits in L2" if size <= l2 else
             "fits in L3" if size <= l3 else "exceeds L3")
    return f"largest array {size:.3g} MiB {where} (L2 {l2:g} MiB, L3 {l3:g} MiB)"


# ---------------------------------------------------------------------------
# Samples


def run_sample(name: str, seed: int, trace: bool) -> dict:
    """Run one child in a new, empty directory; remove it afterwards."""
    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS)
    try:
        config = os.path.join(workdir, "config.json")
        out = os.path.join(workdir, "out")
        os.mkdir(out)
        with open(config, "w") as fh:
            json.dump(WORKLOADS[name]["config"], fh)
        env = {k: v for k, v in os.environ.items() if not k.startswith("AKNSLAB_")}
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        spans = os.path.join(RUNS, f"spans_{name}_seed{seed}.json")
        fstype = filesystem_type(out)
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, name, config, out, str(seed), repr(spawned),
             "1" if trace else "0", spans],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{name}: sample exceeded {SAMPLE_TIMEOUT_S:.0f} s")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name}: sample exited {proc.returncode}: "
                             f"{stderr.strip()[-800:]}")
        sample = json.loads(lines[-1])
        sample["stderr"] = stderr.strip()[-400:]
        sample["fstype"] = fstype
        sample["traced"] = trace
        return sample
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def failed_calls(name: str, sample: dict) -> int:
    bad = {i for i, code in enumerate(sample["codes"]) if code != 0}
    bad |= {c["call"] for c in sample["checks"] if not c["ok"]}
    return len(bad)


def median(values: list) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    samples = []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or not samples
           or (trace and len(samples) < 2)):
        # traced runs alternate untraced and traced samples, untraced first
        samples.append(run_sample(name, seed, trace and len(samples) % 2 == 1))
    attempted = sum(len(s["codes"]) for s in samples)
    failed = sum(failed_calls(name, s) for s in samples)
    correct = failed == 0
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    extra = {}
    if not trace:
        metrics = {m: {"value": median([s[m] for s in plain]), "unit": unit}
                   for m, unit in END_TO_END.items()}
    else:
        layers = [s["layers"] for s in traced]
        metrics = {}
        for m, unit in PER_LAYER.items():
            if m == "trace.overhead_s":
                value = (median([s["wall_s"] for s in traced])
                         - median([s["wall_s"] for s in plain]))
            elif m in EXACT:
                value = layers[0][m]
            else:
                value = median([layer[m] for layer in layers])
            metrics[m] = {"value": value, "unit": unit}
        drifting = [m for m in EXACT if len({layer[m] for layer in layers}) > 1]
        if drifting:
            correct = False
            extra["counts_differ"] = drifting
        extra["all_layers"] = {m: median([layer[m] for layer in layers])
                               for m in layers[0]}
        extra["traced_wall_s"] = median([s["wall_s"] for s in traced])
        extra["fft_calls_by_size"] = traced[0]["fft_calls_by_size"]
        extra["bindings"] = traced[0]["bindings"]
    return {"workload": name, "seed": seed, "samples": samples, "correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics, **extra}


# ---------------------------------------------------------------------------
# Reporting


def describe(result: dict, env: dict) -> list[str]:
    name = result["workload"]
    samples = result["samples"]
    plain = [s for s in samples if not s["traced"]]
    lines = [f"== {name} seed {result['seed']}: {len(samples)} samples "
             f"({len(plain)} untraced), output fs {samples[0]['fstype']}, "
             f"{cache_note(name, env['caches'])}"]
    for m, unit in END_TO_END.items():
        values = sorted(s[m] for s in plain)
        lines.append(f"  {m:<12} median {median(values):.4f} {unit}  "
                     f"min {values[0]:.4f}  max {values[-1]:.4f}  (n={len(values)})")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_ratio':<12} {ratio:.4f} 1  "
                 f"({result['failed']} of {result['attempted']} CLI calls)")
    for s in samples:
        for c in s["checks"]:
            if not c["ok"]:
                lines.append(f"  FAILED {c['check']}: {c['value']!r} (bound {c['bound']!r})"
                             + (f" idle {c['idle']}" if "idle" in c else ""))
        if any(code != 0 for code in s["codes"]):
            lines.append(f"  FAILED exit codes {s['codes']}: {s['stderr']}")
    if "all_layers" in result:
        wall = result["traced_wall_s"]
        lines.append(f"  traced wall_s median {wall:.4f} s; "
                     f"overhead {result['metrics']['trace.overhead_s']['value']:.4f} s")
        for m, value in result["all_layers"].items():
            share = f"  ({100 * value / wall:.1f}% of traced wall)" if m in SHARES else ""
            lines.append(f"  {m:<36} {value:.6g}{share}")
        lines.append(f"  spectral.fft.calls by length: {result['fft_calls_by_size']} "
                     "(flop and byte figures computed from shapes, not measured)")
        if "counts_differ" in result:
            lines.append(f"  FAILED counts differ between traced samples: "
                         f"{result['counts_differ']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "aknslab", "cli.py")):
        print(f"run.py: no aknslab sources under {SRC}", file=sys.stderr)
        return 2
    env = machine()
    print("machine: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(result, env)), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        for result in results:
            path = os.path.join(RUNS, f"trace_{result['workload']}_seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"machine": env, **{k: v for k, v in result.items()
                                              if k != "samples"}}, fh, indent=1)
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        summary = {k: results[0][k] for k in keys}
    else:
        summary = {r["workload"]: {k: r[k] for k in keys} for r in results}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
