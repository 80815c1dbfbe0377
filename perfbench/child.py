"""One benchmark sample: a fresh process that imports aknslab, makes the
workload's CLI call(s), and checks the outputs.

    python3 perfbench/child.py WORKLOAD CONFIG OUT SEED SPAWNED TRACE SPANS

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start
and the import of ``aknslab.cli``.  The result is printed as one JSON line.
Exit code 2 means aknslab could not be imported from the checkout's ``src``.
"""

import time
import sys

try:
    import aknslab.cli
except ImportError as exc:
    print(f"child: cannot import aknslab: {exc}", file=sys.stderr)
    sys.exit(2)
READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from workloads import WORKLOADS, cli_argv, gate  # noqa: E402


def output_size(out: str) -> tuple[int, int]:
    """(bytes, files) under the run's output directory."""
    total, files = 0, 0
    for dirpath, _, names in os.walk(out):
        for name in names:
            total += os.path.getsize(os.path.join(dirpath, name))
            files += 1
    return total, files


def main() -> int:
    name, config, out, seed, spawned, trace, spans_path = sys.argv[1:8]
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.abspath(aknslab.cli.__file__).startswith(src + os.sep):
        print(f"child: aknslab imported from {aknslab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": READY - float(spawned)}
    tracer = None
    if trace == "1":
        from tracing import TraceError, Tracer
        tracer = Tracer()
        try:
            tracer.install(aknslab)
        except TraceError as exc:
            print(f"child: {exc}", file=sys.stderr)
            return 2
    codes = []
    wall = 0.0
    for argv in cli_argv(name, config, out, int(seed)):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = aknslab.cli.main(argv)
            else:
                code = tracer.root("cli", aknslab.cli.main, argv)
        except Exception as exc:  # an uncaught CLI error fails that call
            print(f"child: {argv[0]} raised {exc!r}", file=sys.stderr)
            code = -1
        wall += time.perf_counter() - start
        codes.append(code)
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["codes"] = codes
    result["checks"] = gate(name, out)
    result["bytes_written"], result["files_written"] = output_size(out)
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["storage.bytes_written"] = result["bytes_written"]
        layers["storage.files_written"] = result["files_written"]
        idle = [layer for layer in WORKLOADS[name]["busy"] if tracer.calls(layer) == 0]
        result["checks"].append({"call": 0, "check": "busy layers traced",
                                 "value": float(len(idle)), "bound": 0.0,
                                 "ok": not idle, "idle": idle})
        _, by_size, _, _ = tracer.fft_totals()
        result["layers"] = layers
        result["fft_calls_by_size"] = by_size
        result["bindings"] = tracer.bindings
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
