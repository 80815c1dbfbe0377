"""Time integration of the hierarchy flows on the periodic grid.

Seven flow kinds: the two full equations, the generating flow at a spectral
parameter kappa, the two regularized kappa-flows, and the two difference
flows.  All schemes integrate the full linearization exactly in Fourier
space; for the kappa-regularized and difference flows that linearization is
the bounded rational symbol produced by the leading Green's-function term,
so the step size never couples to kappa.

The generating flow evolves q and its partner r as independent unknowns (its
Hamiltonian is complex, so it does not preserve r = sign * conj(q)); the
departure of r from the slaved partner is a measured diagnostic, not an
enforced constraint.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lax import fixed_point_raw
from .spectral import Field, Grid, dealiased_mul, dealiased_product

KINDS = ("nls", "mkdv", "a_flow", "nls_kappa", "mkdv_kappa", "nls_diff", "mkdv_diff")
SCHEMES = ("splitting4", "etd4", "rk4_spectral")

#: Exponent of the dispersive symbol entering the step-size gate.
DISPERSION_ORDER = {"nls": 2, "nls_kappa": 2, "nls_diff": 2,
                    "mkdv": 3, "mkdv_kappa": 3, "mkdv_diff": 3, "a_flow": 0}

#: Gate on dt * max|xi|^order.  The linear part is integrated exactly by all
#: three schemes, so these are generous guards against absurd step sizes
#: rather than tight CFL constants.
STABILITY_BOUND = {"splitting4": 2000.0, "etd4": 2000.0, "rk4_spectral": 2000.0}

DEFAULT_SCHEME = {"nls": "splitting4", "mkdv": "rk4_spectral", "a_flow": "rk4_spectral",
                  "nls_kappa": "rk4_spectral", "mkdv_kappa": "rk4_spectral",
                  "nls_diff": "rk4_spectral", "mkdv_diff": "rk4_spectral"}

_KAPPA_KINDS = ("a_flow", "nls_kappa", "mkdv_kappa", "nls_diff", "mkdv_diff")

_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1


class FlowError(RuntimeError):
    pass


class UnstableStep(FlowError):
    """Requested dt violates the scheme's stability gate."""


class NumericalBlowup(FlowError):
    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = last_valid_time


@dataclass(frozen=True)
class FlowSpec:
    """What to integrate and how."""

    kind: str
    dt: float
    t_final: float
    scheme: str = ""
    snapshot_stride: int = 1
    kappa: float | None = None
    fp_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FlowError(f"unknown flow kind {self.kind!r}")
        scheme = self.scheme or DEFAULT_SCHEME[self.kind]
        object.__setattr__(self, "scheme", scheme)
        if scheme not in SCHEMES:
            raise FlowError(f"unknown scheme {scheme!r}")
        if self.dt <= 0 or self.t_final < 0:
            raise FlowError("dt must be positive and t_final nonnegative")
        if self.snapshot_stride < 1:
            raise FlowError("snapshot stride must be >= 1")
        if self.kind in _KAPPA_KINDS:
            if self.kappa is None or self.kappa < 1.0:
                raise FlowError(f"flow kind {self.kind!r} requires kappa >= 1")
        elif self.kappa is not None:
            raise FlowError(f"flow kind {self.kind!r} takes no kappa")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "dt": self.dt, "t_final": self.t_final,
                "scheme": self.scheme, "snapshot_stride": self.snapshot_stride,
                "kappa": self.kappa, "fp_tol": self.fp_tol}


@dataclass
class Trajectory:
    """Time-stamped snapshots produced by one flow."""

    spec: FlowSpec
    grid: Grid
    sign: int
    times: list
    states: list
    r_states: list | None = None
    stats: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise FlowError("trajectory timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def field(self, i: int) -> Field:
        return Field(self.grid, self.states[i], self.sign)

    def partner(self, i: int) -> np.ndarray:
        if self.r_states is not None:
            return self.r_states[i]
        return self.sign * np.conj(self.states[i])

    def conjugacy_violation(self) -> float:
        """max over snapshots of ||r - sign*conj(q)|| / ||q|| (L2)."""
        worst = 0.0
        for i in range(len(self.times)):
            q = self.states[i]
            dev = self.partner(i) - self.sign * np.conj(q)
            qn = math.sqrt(float(np.sum(np.abs(q) ** 2)))
            if qn > 0:
                worst = max(worst, math.sqrt(float(np.sum(np.abs(dev) ** 2))) / qn)
        return worst


class Integrator:
    """One-step integrator bound to a grid, a sign, and a FlowSpec."""

    def __init__(self, grid: Grid, sign: int, spec: FlowSpec):
        self.grid = grid
        self.sign = sign
        self.spec = spec
        xi = grid.xi
        ximax = float(np.max(np.abs(xi)))
        order = DISPERSION_ORDER[spec.kind]
        gate = spec.dt * ximax ** order
        if gate > STABILITY_BOUND[spec.scheme]:
            raise UnstableStep(
                f"dt * max|xi|^{order} = {gate:.1f} exceeds the "
                f"{spec.scheme} bound {STABILITY_BOUND[spec.scheme]:.0f}"
            )
        self.mu = self._linear_symbol(xi)
        self._warm: dict[float, np.ndarray] = {}
        self.fp_solves = 0
        self.fp_iterations = 0
        self.fp_min_iterations = math.inf
        self.fp_max_iterations = 0
        self.fp_worst_residual = 0.0
        if spec.scheme == "etd4":
            self._etd = _etd4_coefficients(self.mu, spec.dt)

    # -- linearization ------------------------------------------------------

    def _linear_symbol(self, xi: np.ndarray) -> np.ndarray:
        kind = self.spec.kind
        kap = self.spec.kappa
        if kind == "nls":
            return -1j * xi**2
        if kind == "mkdv":
            return 1j * xi**3
        if kind == "a_flow":
            return np.zeros_like(xi, dtype=np.complex128)
        denom = 4.0 * kap**2 + xi**2
        if kind == "nls_kappa":
            return -4j * kap**2 * xi**2 / denom
        if kind == "mkdv_kappa":
            return 4j * kap**2 * xi**3 / denom
        if kind == "nls_diff":
            return -1j * xi**4 / denom
        return 1j * xi**5 / denom  # mkdv_diff

    def _pm_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        kap = self.spec.kappa
        xi = self.grid.xi
        return (1.0 / (2.0 * kap - 1j * xi), 1.0 / (2.0 * kap + 1j * xi))

    def _solve(self, q: np.ndarray, r: np.ndarray, kappa: float):
        """Warm-started fixed point at ``kappa``; records its work."""
        g12, g21, gamma, iters, res = fixed_point_raw(
            self.grid, q, r, kappa, tol=self.spec.fp_tol,
            gamma0=self._warm.get(kappa))
        self._warm[kappa] = gamma
        self.fp_solves += 1
        self.fp_iterations += iters
        self.fp_min_iterations = min(self.fp_min_iterations, iters)
        self.fp_max_iterations = max(self.fp_max_iterations, iters)
        self.fp_worst_residual = max(self.fp_worst_residual, res)
        return g12, g21

    def fp_stats(self) -> dict:
        """Fixed-point iterations per solve (min, mean, max) and the largest
        final residual over every solve so far; empty before the first."""
        if not self.fp_solves:
            return {}
        return {"fp_iterations": {"min": self.fp_min_iterations,
                                  "mean": self.fp_iterations / self.fp_solves,
                                  "max": self.fp_max_iterations},
                "fp_worst_residual": self.fp_worst_residual}

    def _g12_pm(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g12 at +/-kappa with warm-started fixed points."""
        kap = self.spec.kappa
        r = self.sign * np.conj(q)
        return self._solve(q, r, kap)[0], self._solve(q, r, -kap)[0]

    def rhs(self, q: np.ndarray, r: np.ndarray | None = None):
        """Full right-hand side dq/dt (and dr/dt for the generating flow)."""
        if self.spec.kind == "a_flow":
            rr = self.sign * np.conj(q) if r is None else r
            g12, g21 = self._solve(q, rr, self.spec.kappa)
            return 1j * g12, 1j * g21
        lin = np.fft.ifft(self.mu * np.fft.fft(q))
        return lin + self._nonlinear(q)

    def _nonlinear(self, q: np.ndarray) -> np.ndarray:
        """RHS minus the exactly-integrated linearization."""
        kind = self.spec.kind
        kap = self.spec.kappa
        r = self.sign * np.conj(q)
        if kind == "nls":
            return -2j * dealiased_product(q, q, r)
        if kind == "mkdv":
            qp = np.fft.ifft(1j * self.grid.xi * np.fft.fft(q))
            return 6.0 * dealiased_product(q, r, qp)
        inv_m, inv_p = self._pm_symbols()
        qh = np.fft.fft(q)
        if kind == "nls_kappa":
            gp, gm = self._g12_pm(q)
            linear_part = np.fft.ifft(-(inv_m + inv_p) * qh)
            return -4j * kap**3 * ((gp - gm) - linear_part)
        if kind == "mkdv_kappa":
            gp, gm = self._g12_pm(q)
            linear_part = np.fft.ifft((-inv_m + inv_p) * qh)
            return 8.0 * kap**4 * ((gp + gm) - linear_part)
        if kind == "nls_diff":
            gp, gm = self._g12_pm(q)
            linear_part = np.fft.ifft(-(inv_m + inv_p) * qh)
            return (-2j * dealiased_product(q, q, r)
                    + 4j * kap**3 * ((gp - gm) - linear_part))
        # mkdv_diff
        gp, gm = self._g12_pm(q)
        linear_part = np.fft.ifft((-inv_m + inv_p) * qh)
        qp = np.fft.ifft(1j * self.grid.xi * np.fft.fft(q))
        return (6.0 * dealiased_product(q, r, qp)
                - 8.0 * kap**4 * ((gp + gm) - linear_part))

    # -- steppers ------------------------------------------------------------

    def step(self, q: np.ndarray, r: np.ndarray | None = None):
        if self.spec.kind == "a_flow":
            return self._step_pair_rk4(q, self.sign * np.conj(q) if r is None else r)
        if self.spec.scheme == "rk4_spectral":
            return self._step_lawson(q)
        if self.spec.scheme == "etd4":
            return self._step_etd4(q)
        return self._step_splitting(q)

    def _step_lawson(self, q: np.ndarray) -> np.ndarray:
        h = self.spec.dt
        eh = np.exp(self.mu * h)
        e2 = np.exp(self.mu * (0.5 * h))
        fq = np.fft.fft(q)
        n1 = np.fft.fft(self._nonlinear(q))
        q2 = np.fft.ifft(e2 * (fq + 0.5 * h * n1))
        n2 = np.fft.fft(self._nonlinear(q2))
        q3 = np.fft.ifft(e2 * fq + 0.5 * h * n2)
        n3 = np.fft.fft(self._nonlinear(q3))
        q4 = np.fft.ifft(eh * fq + h * e2 * n3)
        n4 = np.fft.fft(self._nonlinear(q4))
        return np.fft.ifft(eh * fq + (h / 6.0) * (eh * n1 + 2.0 * e2 * (n2 + n3) + n4))

    def _step_etd4(self, q: np.ndarray) -> np.ndarray:
        e1, e2, qc, f1, f2, f3 = self._etd
        fq = np.fft.fft(q)
        nv = np.fft.fft(self._nonlinear(q))
        a = np.fft.ifft(e2 * fq + qc * nv)
        na = np.fft.fft(self._nonlinear(a))
        b = np.fft.ifft(e2 * fq + qc * na)
        nb = np.fft.fft(self._nonlinear(b))
        c = np.fft.ifft(e2 * np.fft.fft(a) + qc * (2.0 * nb - nv))
        nc = np.fft.fft(self._nonlinear(c))
        return np.fft.ifft(e1 * fq + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc)

    def _strang(self, q: np.ndarray, tau: float) -> np.ndarray:
        half = np.exp(self.mu * (0.5 * tau))
        q = np.fft.ifft(half * np.fft.fft(q))
        if self.spec.kind == "nls":
            # i q' = 2 q^2 r has the exact pointwise phase solution
            qr = (q * (self.sign * np.conj(q))).real
            q = q * np.exp(-2j * tau * qr)
        else:
            q = _rk4_plain(q, tau, self._mkdv_transport)
        return np.fft.ifft(half * np.fft.fft(q))

    def _mkdv_transport(self, q: np.ndarray) -> np.ndarray:
        qp = np.fft.ifft(1j * self.grid.xi * np.fft.fft(q))
        return 6.0 * dealiased_product(q, self.sign * np.conj(q), qp)

    def _step_splitting(self, q: np.ndarray) -> np.ndarray:
        h = self.spec.dt
        q = self._strang(q, _YOSHIDA_W1 * h)
        q = self._strang(q, _YOSHIDA_W0 * h)
        return self._strang(q, _YOSHIDA_W1 * h)

    def _step_pair_rk4(self, q: np.ndarray, r: np.ndarray):
        h = self.spec.dt

        def rhs(state):
            return self.rhs(state[0], state[1])

        k1 = rhs((q, r))
        k2 = rhs((q + 0.5 * h * k1[0], r + 0.5 * h * k1[1]))
        k3 = rhs((q + 0.5 * h * k2[0], r + 0.5 * h * k2[1]))
        k4 = rhs((q + h * k3[0], r + h * k3[1]))
        qn = q + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        rn = r + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return qn, rn


def _rk4_plain(q: np.ndarray, h: float, rhs) -> np.ndarray:
    k1 = rhs(q)
    k2 = rhs(q + 0.5 * h * k1)
    k3 = rhs(q + 0.5 * h * k2)
    k4 = rhs(q + h * k3)
    return q + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _etd4_coefficients(mu: np.ndarray, h: float, n_contour: int = 32):
    e1 = np.exp(mu * h)
    e2 = np.exp(mu * (0.5 * h))
    theta = (np.arange(1, n_contour + 1) - 0.5) * (2.0 * np.pi / n_contour)
    ring = np.exp(1j * theta)
    z = h * mu[:, None] + ring[None, :]
    qc = h * np.mean((np.exp(0.5 * z) - 1.0) / z, axis=1)
    f1 = h * np.mean((-4.0 - z + np.exp(z) * (4.0 - 3.0 * z + z**2)) / z**3, axis=1)
    f2 = h * np.mean((2.0 + z + np.exp(z) * (-2.0 + z)) / z**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * z - z**2 + np.exp(z) * (4.0 - z)) / z**3, axis=1)
    return e1, e2, qc, f1, f2, f3


# ---------------------------------------------------------------------------
# Driving loops and the public one-step operations


def evolve(f: Field, spec: FlowSpec, r0: np.ndarray | None = None) -> Trajectory:
    """Integrate to t_final, snapshotting every ``snapshot_stride`` steps."""
    stepper = Integrator(f.grid, f.sign, spec)
    n_steps = int(round(spec.t_final / spec.dt))
    if abs(n_steps * spec.dt - spec.t_final) > 1e-9 * max(1.0, spec.t_final):
        raise FlowError(
            f"t_final {spec.t_final} is not an integer number of steps of {spec.dt}"
        )
    pair = spec.kind == "a_flow"
    q = f.values.copy()
    r = (f.r.copy() if r0 is None else np.asarray(r0, np.complex128)) if pair else None
    times = [0.0]
    states = [q.copy()]
    r_states = [r.copy()] if pair else None
    started = _time.perf_counter()
    # overflow and NaN in a failing step are caught by the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            if pair:
                q, r = stepper.step(q, r)
            else:
                q = stepper.step(q)
            if not np.all(np.isfinite(q)) or (pair and not np.all(np.isfinite(r))):
                raise NumericalBlowup(
                    f"non-finite state at t = {n * spec.dt:.6g}; "
                    f"last valid time {(n - 1) * spec.dt:.6g}",
                    (n - 1) * spec.dt,
                )
            if n % spec.snapshot_stride == 0 or n == n_steps:
                times.append(n * spec.dt)
                states.append(q.copy())
                if pair:
                    r_states.append(r.copy())
    stats = {"steps": n_steps, "wall_time": _time.perf_counter() - started,
             **stepper.fp_stats()}
    return Trajectory(spec, f.grid, f.sign, times, states, r_states, stats)


def step_full(f: Field, kind: str, dt: float, scheme: str = "",
              fp_tol: float = 1e-12) -> Field:
    if kind not in ("nls", "mkdv"):
        raise FlowError(f"step_full handles nls/mkdv, got {kind!r}")
    spec = FlowSpec(kind, dt, dt, scheme=scheme, fp_tol=fp_tol)
    q = Integrator(f.grid, f.sign, spec).step(f.values.copy())
    return Field(f.grid, q, f.sign)


def step_a_flow(f: Field, kappa: float, dt: float, r: np.ndarray | None = None,
                fp_tol: float = 1e-12) -> tuple[Field, np.ndarray]:
    spec = FlowSpec("a_flow", dt, dt, kappa=kappa, fp_tol=fp_tol)
    q, rr = Integrator(f.grid, f.sign, spec).step(
        f.values.copy(), f.r.copy() if r is None else np.asarray(r, np.complex128))
    return Field(f.grid, q, f.sign), rr


def step_regularized(f: Field, kind: str, kappa: float, dt: float,
                     scheme: str = "", fp_tol: float = 1e-12) -> Field:
    if kind not in ("nls_kappa", "mkdv_kappa"):
        raise FlowError(f"step_regularized handles nls_kappa/mkdv_kappa, got {kind!r}")
    spec = FlowSpec(kind, dt, dt, scheme=scheme, kappa=kappa, fp_tol=fp_tol)
    q = Integrator(f.grid, f.sign, spec).step(f.values.copy())
    return Field(f.grid, q, f.sign)


def step_difference(f: Field, kind: str, kappa: float, dt: float,
                    scheme: str = "", fp_tol: float = 1e-12) -> Field:
    if kind not in ("nls_diff", "mkdv_diff"):
        raise FlowError(f"step_difference handles nls_diff/mkdv_diff, got {kind!r}")
    spec = FlowSpec(kind, dt, dt, scheme=scheme, kappa=kappa, fp_tol=fp_tol)
    q = Integrator(f.grid, f.sign, spec).step(f.values.copy())
    return Field(f.grid, q, f.sign)


def rescale(f: Field, lam: float, m: int) -> tuple[Field, float]:
    """Scaling-symmetry image lam * q(lam x) and its time dilation lam^m.

    The transform is exact on band-limited data: the coefficient array is
    reinterpreted on the box of length L/lam, whose frequency lattice is the
    source lattice scaled by lam (so the rescaled band always fits).
    """
    if lam <= 0:
        raise FlowError(f"scaling factor must be positive, got {lam}")
    if m < 0:
        raise FlowError(f"flow order m must be nonnegative, got {m}")
    if lam == 1.0:
        return f.copy(), 1.0
    target = Grid(f.grid.length / lam, f.grid.points)
    return Field(target, lam * f.values, f.sign), float(lam) ** m
