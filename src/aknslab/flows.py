"""Time integration of the hierarchy flows on the periodic grid.

Seven flow kinds: the two full equations, the generating flow at a spectral
parameter kappa, the two regularized kappa-flows, and the two difference
flows.  Every kind steps by one scheme, Lawson-RK4: classical RK4 in the
variable exp(-t mu) q_hat, which integrates the full linearization mu
exactly in Fourier space; for the kappa-regularized and difference flows
that linearization is the bounded rational symbol produced by the leading
Green's-function term, so the step size never couples to kappa.
``evolve`` is the one way to step a flow; a single step is
``evolve(f, FlowSpec(kind, dt, dt, ...))``.  The kappa-kinds make their
Green's solves through one ``lax.FixedPointChain`` per integrator.

A kappa family is one regularized or difference flow at several kappa, from
the same data: a ``FlowSpec`` whose kappa is a tuple.  ``evolve`` steps it
in lockstep as one (B, N) state, row b at ``kappa[b]``; the integrator holds
kappa as a (B, 1) column, so the linear symbols, the step exponentials and
the leading Green's terms are per row, and each stage makes one batched
solve for the whole family.  Every row is bitwise the flow at its own kappa.

A flow's state is the raw ``np.fft`` coefficients q_hat: ``evolve``
transforms the initial state once and inverse-transforms each recorded
snapshot, and is a flow's only boundary with grid values.
``Integrator.step`` and ``Integrator.nonlinear``, the one vector field, take
and return coefficients for every kind; a step's exponentials are computed
once per integrator.  The full fields are exact Galerkin products formed on
2N points with ``spectral.pad`` and ``truncate``; the slaved partner's
padded values come from q's by ``spectral.pad_partner``, with no transform
of their own.  The regularized fields transform q_hat back once per stage
for the Green's solve, which works on grid values.  A difference flow's
field is the full nls or mkdv field minus the kappa-flow's field beyond its
leading Green's term; the linear symbols stay in closed form, since full
minus regularized would cancel at low modes.  Every stage acts on the last
axis, so a kappa family's rows go through each transform call together.

The generating flow evolves q and its partner r as independent unknowns (its
Hamiltonian is complex, so it does not preserve r = sign * conj(q)); the
departure of r from the slaved partner is a measured diagnostic, not an
enforced constraint.  Its state is the stacked coefficient pair
(q_hat, r_hat), started from ``Field.r``.  Its linear symbol is zero, so its
Lawson-RK4 step is classical RK4; ``nonlinear`` solves through
``FixedPointChain.solve_raw``.  ``Trajectory.field(i)`` carries snapshot i's
own r as ``partner``, so diagnostics see the evolved pair.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lax import FixedPointChain, LaxError
from .spectral import (Field, Grid, apply_multiplier, dealiased_mul, inverse_shift_symbol,
                       pad, pad_partner, truncate)

_REGULARIZED_KINDS = ("nls_kappa", "mkdv_kappa", "nls_diff", "mkdv_diff")
_KAPPA_KINDS = ("a_flow",) + _REGULARIZED_KINDS
KINDS = ("nls", "mkdv") + _KAPPA_KINDS

#: Exponent of the dispersive symbol entering the step-size gate.
DISPERSION_ORDER = {"nls": 2, "nls_kappa": 2, "nls_diff": 2,
                    "mkdv": 3, "mkdv_kappa": 3, "mkdv_diff": 3, "a_flow": 0}

#: Gate on dt * max|xi|^order, the same for every kind.  The Lawson step
#: integrates the linear part exactly, so this is a generous guard against
#: absurd step sizes rather than a tight CFL constant.
STABILITY_BOUND = 2000.0


class FlowError(RuntimeError):
    pass


class SpecError(FlowError):
    """A flow request that cannot be run as given (a usage error)."""


class UnstableStep(SpecError):
    """Requested dt violates the step-size gate ``STABILITY_BOUND``."""


class NumericalBlowup(FlowError):
    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = last_valid_time


@dataclass(frozen=True)
class FlowSpec:
    """What to integrate, for how long, and what to record."""

    kind: str
    dt: float
    t_final: float
    snapshot_stride: int = 1
    kappa: float | tuple | None = None  # a tuple steps a kappa family
    fp_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SpecError(f"unknown flow kind {self.kind!r}")
        if not (math.isfinite(self.dt) and self.dt > 0
                and math.isfinite(self.t_final) and self.t_final >= 0
                and math.isfinite(self.t_final / self.dt)):
            raise SpecError("dt must be positive and t_final nonnegative, both finite, "
                            "with a finite number of steps")
        if abs(self.steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise SpecError(
                f"t_final {self.t_final} is not an integer number of steps of {self.dt}"
            )
        if self.snapshot_stride < 1:
            raise SpecError("snapshot stride must be >= 1")
        if self.kind in _KAPPA_KINDS:
            family = isinstance(self.kappa, tuple)
            if family and self.kind not in _REGULARIZED_KINDS:
                raise SpecError(f"flow kind {self.kind!r} takes one kappa, not a family")
            kappas = self.kappa if family else (self.kappa,)
            if not kappas or any(k is None or not math.isfinite(k) or k < 1.0
                                 for k in kappas):
                raise SpecError(f"flow kind {self.kind!r} requires finite kappa >= 1")
        elif self.kappa is not None:
            raise SpecError(f"flow kind {self.kind!r} takes no kappa")

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def snapshots(self) -> int:
        """Snapshots ``evolve`` records: 1 + ceil(steps / stride)."""
        return 1 - (-self.steps // self.snapshot_stride)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "dt": self.dt, "t_final": self.t_final,
                "snapshot_stride": self.snapshot_stride,
                "kappa": self.kappa, "fp_tol": self.fp_tol}


@dataclass
class Trajectory:
    """Snapshots of one flow: row i of ``states`` (and of ``r_states``, for the
    generating flow) is the state at ``times[i]``; a list of rows is stacked.
    For a kappa family ``states`` is (snapshots, B, N), row b at
    ``spec.kappa[b]``."""

    spec: FlowSpec
    grid: Grid
    sign: int
    times: list
    states: np.ndarray               # (snapshots, N), or (snapshots, B, N)
    r_states: np.ndarray | None = None
    stats: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise FlowError("trajectory timestamps must be strictly increasing")
        self.states = np.asarray(self.states, dtype=np.complex128)
        if self.r_states is not None:
            self.r_states = np.asarray(self.r_states, dtype=np.complex128)

    def __len__(self) -> int:
        return len(self.times)

    def field(self, i: int) -> Field:
        """Snapshot i, with partner ``r_states[i]`` when the flow evolved one."""
        partner = None if self.r_states is None else self.r_states[i]
        return Field(self.grid, self.states[i], self.sign, partner)

    def conjugacy_violation(self) -> float:
        """max over snapshots of ||r - sign*conj(q)|| / ||q|| (L2)."""
        if self.r_states is None:
            return 0.0
        dev = self.r_states - self.sign * np.conj(self.states)
        qn = np.sqrt(np.sum(np.abs(self.states) ** 2, axis=1))
        devn = np.sqrt(np.sum(np.abs(dev) ** 2, axis=1))
        return float(np.max(devn[qn > 0] / qn[qn > 0], initial=0.0))


class Integrator:
    """One-step integrator bound to a grid, a sign, and a FlowSpec."""

    def __init__(self, grid: Grid, sign: int, spec: FlowSpec):
        self.grid = grid
        self.sign = sign
        self.spec = spec
        xi = grid.xi
        ximax = float(np.max(np.abs(xi)))
        order = DISPERSION_ORDER[spec.kind]
        try:
            gate = spec.dt * ximax ** order
        except OverflowError:  # max|xi|^order overflows on a tiny box
            gate = math.inf
        if gate > STABILITY_BOUND:
            raise UnstableStep(
                f"dt * max|xi|^{order} = {gate:.1f} exceeds the "
                f"step-size bound {STABILITY_BOUND:.0f}"
            )
        family = isinstance(spec.kappa, tuple)
        # one row per member of a kappa family
        self.kappa = np.reshape(spec.kappa, (-1, 1)) if family else spec.kappa
        mu = self._linear_symbol(xi)
        self._eh, self._e2 = np.exp(mu * spec.dt), np.exp(mu * (0.5 * spec.dt))
        if spec.kind in _REGULARIZED_KINDS:
            # (2 kappa - d)^{-1} and (2 kappa + d)^{-1}, the leading Green's terms
            twice = tuple(2.0 * k for k in spec.kappa) if family else 2.0 * spec.kappa
            self._inv_m, self._inv_p = (inverse_shift_symbol(grid, twice, sgn)
                                        for sgn in (-1, +1))
        # every solve is at spec.kappa, one row per member of a family; the
        # full equations make none
        self.chain = FixedPointChain(grid, spec.kappa, spec.fp_tol)

    # -- linearization ------------------------------------------------------

    def _linear_symbol(self, xi: np.ndarray) -> np.ndarray:
        kind = self.spec.kind
        kap = self.kappa
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

    def _g12_pm(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g12 at +/-kappa from one warm-started fixed point at +kappa.

        With r slaved to q, gamma(-kappa) = conj gamma(kappa), so
        g12(-kappa) = (2 kappa + d)^{-1} [q (1 + conj gamma(kappa))]: one
        quadratic product and one multiplier instead of a second solve.  It
        applies the lattice symbol of (2 kappa + d)^{-1} itself, so unlike the
        conjugation image of g21(kappa) it has no error at the unpaired
        Nyquist mode.  What remains is the gap between gamma(-kappa) and conj
        gamma(kappa) at gamma_hat's own Nyquist coefficient, which the products
        fill even where q_hat(N/2) is zero (3e-8 to 1.4e-6 of |gamma_hat| on
        ``random_schwartz`` data, norm 0.1-0.2, N = 256, kappa = 1-32).
        """
        plus = self.chain.solve(q, self.sign * np.conj(q))
        conj_gamma_q = dealiased_mul(np.conj(plus.gamma), q)
        return plus.g12, apply_multiplier(q + conj_gamma_q, self._inv_p, self.grid)

    def nonlinear(self, state: np.ndarray) -> np.ndarray:
        """The vector field minus its exactly-integrated linearization, as
        raw ``np.fft`` coefficients of the state in and out; for a_flow, whose
        state is the stacked pair (q_hat, r_hat), all of (i g12, i g21)."""
        if self.spec.kind == "a_flow":
            g12_hat, g21_hat, *_ = self.chain.solve_raw(state[0], state[1])
            return 1j * np.stack((g12_hat, g21_hat))
        star, _, flavor = self.spec.kind.partition("_")
        if flavor == "kappa":
            return self._regularized(star, state)
        full = self._full(star, state)
        return full - self._regularized(star, state) if flavor == "diff" else full

    def _full(self, star: str, q_hat: np.ndarray) -> np.ndarray:
        """The nls or mkdv field beyond its dispersive term: one cubic
        Galerkin product, padded to 2N points and truncated once."""
        n = q_hat.shape[-1]
        q_fine = pad(q_hat, 2 * n)
        r_fine = pad_partner(q_fine, q_hat, self.sign)
        if star == "nls":
            return -2j * truncate(q_fine * q_fine * r_fine, n)
        qp_fine = pad(1j * self.grid.xi * q_hat, 2 * n)
        return 6.0 * truncate(q_fine * r_fine * qp_fine, n)

    def _regularized(self, star: str, q_hat: np.ndarray) -> np.ndarray:
        """The kappa-flow field beyond its leading Green's term."""
        kap = self.kappa
        inv_m, inv_p = self._inv_m, self._inv_p
        gp, gm = self._g12_pm(np.fft.ifft(q_hat))
        if star == "nls":
            return -4j * kap**3 * (np.fft.fft(gp - gm) + (inv_m + inv_p) * q_hat)
        return 8.0 * kap**4 * (np.fft.fft(gp + gm) + (inv_m - inv_p) * q_hat)

    # -- stepper -------------------------------------------------------------

    def step(self, fq: np.ndarray) -> np.ndarray:
        """One Lawson-RK4 step of dt from the raw coefficients of the state:
        q_hat, or the stacked (q_hat, r_hat) for a_flow."""
        h, eh, e2 = self.spec.dt, self._eh, self._e2
        n1 = self.nonlinear(fq)
        n2 = self.nonlinear(e2 * (fq + 0.5 * h * n1))
        n3 = self.nonlinear(e2 * fq + 0.5 * h * n2)
        n4 = self.nonlinear(eh * fq + h * e2 * n3)
        return eh * fq + (h / 6.0) * (eh * n1 + 2.0 * e2 * (n2 + n3) + n4)


# ---------------------------------------------------------------------------
# Driving loop


def evolve(f: Field, spec: FlowSpec) -> Trajectory:
    """Integrate to t_final, snapshotting every ``snapshot_stride`` steps."""
    stepper = Integrator(f.grid, f.sign, spec)
    n_steps = spec.steps
    pair = spec.kind == "a_flow"
    family = isinstance(spec.kappa, tuple)
    values = np.stack((f.values, f.r)) if pair else f.values
    if family:
        values = np.broadcast_to(values, (len(spec.kappa),) + values.shape)
    snapshots = spec.snapshots
    try:
        states = np.empty((snapshots,) + values.shape, dtype=np.complex128)
    except (ValueError, MemoryError) as exc:
        raise SpecError(f"{snapshots:.3g} snapshots of {f.grid.points} points "
                        f"do not fit in memory: {exc}") from exc
    times = [0.0]
    states[0] = values
    started = _time.perf_counter()
    # overflow and NaN in a failing step are caught by the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        state = np.fft.fft(values)
        for n in range(1, n_steps + 1):
            try:
                state = stepper.step(state)
            except LaxError as exc:
                raise NumericalBlowup(
                    f"step to t = {n * spec.dt:.6g} failed: {exc}; "
                    f"last valid time {(n - 1) * spec.dt:.6g}",
                    (n - 1) * spec.dt,
                ) from exc
            if not np.all(np.isfinite(state)):
                where = ""
                if family:
                    row = int(np.argmin(np.isfinite(state).all(axis=-1)))
                    where = f" at kappa={spec.kappa[row]}"
                raise NumericalBlowup(
                    f"non-finite state{where} at t = {n * spec.dt:.6g}; "
                    f"last valid time {(n - 1) * spec.dt:.6g}",
                    (n - 1) * spec.dt,
                )
            if n % spec.snapshot_stride == 0 or n == n_steps:
                states[len(times)] = np.fft.ifft(state)
                times.append(n * spec.dt)
    stats = {"steps": n_steps, "wall_time": _time.perf_counter() - started,
             **stepper.chain.stats()}
    q_states, r_states = (states[:, 0], states[:, 1]) if pair else (states, None)
    return Trajectory(spec, f.grid, f.sign, times, q_states, r_states, stats)
