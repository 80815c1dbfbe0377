"""Per-layer spans and counts for aknslab, recorded from outside ``src/``.

``Tracer.install`` replaces every binding of the traced functions in every
loaded ``aknslab`` module (``from .spectral import dealiased_mul`` copies the
name into lax, hierarchy and flows, so patching only the defining module
would miss most calls).  Each wrapper keeps, per name, the call count, the
total time of its outermost calls, and its self time (span time minus the
time covered by traced spans it caused).  Per layer (the module prefix of
the name) it keeps the time covered by the layer's outermost spans.

The two hot spectral leaves are aggregated only; every other call is also
kept as a span (id, parent id, name, start, end) for the spans file.  numpy
FFT calls are counted by shape and never timed: a prototype that timed them
too made the fixed-point workload about 45% slower.
"""

from __future__ import annotations

import math
import sys
import time

import numpy

# (layer.metric name, module, attribute); methods are "Class.method"
TARGETS = [
    ("spectral.dealiased_mul", "spectral", "dealiased_mul"),
    ("spectral.apply_multiplier", "spectral", "apply_multiplier"),
    ("lax.fixed_point", "lax", "fixed_point_raw"),
    ("lax.greens_fixed_point", "lax", "greens_fixed_point"),
    ("lax.greens_oracle", "lax", "greens_oracle"),
    ("lax.operator_pair", "lax", "operator_pair"),
    ("lax.pdet_trace", "lax", "pdet_trace"),
    ("hierarchy.hamiltonians", "hierarchy", "hamiltonians"),
    ("hierarchy.density", "hierarchy", "density"),
    ("hierarchy.current", "hierarchy", "current"),
    ("flows.step", "flows", "Integrator.step"),
    ("flows.evolve", "flows", "evolve"),
    ("diagnostics.conserved_drift", "diagnostics", "conserved_drift"),
    ("diagnostics.micro_residual", "diagnostics", "micro_residual"),
    ("diagnostics.kappa_convergence_study", "diagnostics", "kappa_convergence_study"),
    ("storage.write_csv", "storage", "write_csv"),
    ("storage.write_snapshot", "storage", "write_snapshot"),
    ("storage.write_json", "storage", "write_json"),
    ("storage.write_trajectory", "storage", "write_trajectory"),
]

LEAVES = ("spectral.dealiased_mul", "spectral.apply_multiplier")

#: Names whose per-call durations are kept for percentiles.
DURATIONS = ("flows.step",)


class TraceError(RuntimeError):
    pass


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "active", "iters", "cold", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.iters = 0
        self.cold = 0
        self.durations: list[float] = []


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.layer_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.fft_calls: dict[tuple, int] = {}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[list] = []
        self._layer_active: dict[str, int] = {}
        self._next_id = 0

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span named ``name``."""
        stat = self.stats.setdefault(name, Stat())
        layer = name.split(".", 1)[0]
        self.layer_s.setdefault(layer, 0.0)
        self._layer_active.setdefault(layer, 0)
        layer_s, layer_active = self.layer_s, self._layer_active
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        leaf = name in LEAVES
        durations = stat.durations if name in DURATIONS else None
        fixed_point = name == "lax.fixed_point"
        tracer = self

        def traced(*args, **kwargs):
            if leaf:
                span_id = -1
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            stat.active += 1
            layer_active[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                stat.self_s += span - frame[0]
                stat.active -= 1
                if stat.active == 0:
                    stat.calls += 1
                    stat.total_s += span
                layer_active[layer] -= 1
                if layer_active[layer] == 0:
                    layer_s[layer] += span
                if stack:
                    stack[-1][0] += span
                if durations is not None:
                    durations.append(span)
                if span_id >= 0:
                    spans.append((span_id, parent, name, start, end))
            if fixed_point:
                stat.iters += result[3]
                if kwargs.get("gamma0") is None and len(args) < 7:
                    stat.cold += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_fft(self, fn):
        counts = self.fft_calls

        def counted(a, *args, **kwargs):
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            key = (a.shape, axis)
            counts[key] = counts.get(key, 0) + 1
            return fn(a, *args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap every binding of each target in the loaded ``package`` modules
        and count numpy's forward and inverse FFT calls."""
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        for name, modname, attr in TARGETS:
            home = sys.modules.get(f"{prefix}.{modname}")
            if home is None:
                raise TraceError(f"module {prefix}.{modname} is not loaded")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or not hasattr(cls, meth):
                    raise TraceError(f"{prefix}.{modname}.{attr} not found")
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                self.bindings[name] = [f"{modname}.{attr}"]
                continue
            original = getattr(home, attr, None)
            if original is None:
                raise TraceError(f"{prefix}.{modname}.{attr} not found")
            wrapper = self.wrap(name, original)
            bound = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bound.append(f"{module.__name__[len(prefix) + 1:] or prefix}.{key}")
            self.bindings[name] = bound
        numpy.fft.fft = self._count_fft(numpy.fft.fft)
        numpy.fft.ifft = self._count_fft(numpy.fft.ifft)

    def root(self, name: str, fn, *args):
        """Call ``fn`` under a root span (the CLI layer)."""
        return self.wrap(name, fn)(*args)

    # -- results ----------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return sum(s.calls for key, s in self.stats.items()
                   if key == prefix or key.startswith(prefix + "."))

    def fft_totals(self) -> tuple[int, dict, float, float]:
        """(calls, calls by transform length, computed GFLOP, computed MB).

        Flops are 5 n log2 n per length-n transform; bytes are one complex128
        read and one write of the whole array.  Both are computed from
        shapes, not measured.
        """
        calls, by_size, flops, nbytes = 0, {}, 0.0, 0.0
        for (shape, axis), count in self.fft_calls.items():
            n = shape[axis]
            size = math.prod(shape)
            calls += count
            by_size[str(n)] = by_size.get(str(n), 0) + count
            flops += count * 5.0 * size * math.log2(n)
            nbytes += count * 2.0 * 16.0 * size
        return calls, dict(sorted(by_size.items(), key=lambda kv: int(kv[0]))), \
            flops / 1e9, nbytes / 1e6

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced child, by name."""
        st = self.stats
        fp, dm, am, step = (st["lax.fixed_point"], st["spectral.dealiased_mul"],
                            st["spectral.apply_multiplier"], st["flows.step"])
        fft_calls, _, gflop, mb = self.fft_totals()
        steps_ms = sorted(1e3 * d for d in step.durations)
        return {
            "lax.fixed_point.calls": fp.calls,
            "lax.fixed_point.iters_per_call": fp.iters / fp.calls if fp.calls else 0.0,
            "lax.fixed_point.cold_calls": fp.cold,
            "lax.fixed_point.total_s": fp.total_s,
            "lax.fixed_point.self_s": fp.self_s,
            "spectral.dealiased_mul.calls": dm.calls,
            "spectral.dealiased_mul.self_s": dm.self_s,
            "spectral.dealiased_mul.us_per_call":
                1e6 * dm.self_s / dm.calls if dm.calls else 0.0,
            "spectral.apply_multiplier.calls": am.calls,
            "spectral.apply_multiplier.self_s": am.self_s,
            "spectral.fft.calls": fft_calls,
            "spectral.fft.gflop_computed": gflop,
            "spectral.fft.mb_moved_computed": mb,
            "lax.greens_oracle.total_s": st["lax.greens_oracle"].total_s,
            "lax.operator_pair.total_s": st["lax.operator_pair"].total_s,
            "lax.pdet_trace.total_s": st["lax.pdet_trace"].total_s,
            "hierarchy.hamiltonians.total_s": st["hierarchy.hamiltonians"].total_s,
            "hierarchy.density.total_s": st["hierarchy.density"].total_s,
            "hierarchy.current.total_s": st["hierarchy.current"].total_s,
            "flows.step.calls": step.calls,
            "flows.step.ms_p50": percentile(steps_ms, 0.5),
            "flows.step.ms_p90": percentile(steps_ms, 0.9),
            "flows.step.self_s": step.self_s,
            "diagnostics.self_s": sum(s.self_s for key, s in st.items()
                                      if key.startswith("diagnostics.")),
            "storage.write_s": self.layer_s.get("storage", 0.0),
            "cli.self_s": st["cli"].self_s if "cli" in st else 0.0,
        }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
