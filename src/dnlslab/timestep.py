"""Time integration of the lattice systems with per-sample diagnostics.

Two steppers are provided: classic fixed-step RK4 and the adaptive
Dormand-Prince 5(4) embedded pair (FSAL).  Step-size control for the
adaptive pair uses the max-norm of the embedded error estimate measured
against atol + rtol*|state| per node.

The DP54 stepper keeps its seven stage derivatives in one preallocated
(7, N) complex buffer ``K``; row s is stage s, and row 6, the derivative at
the accepted 5th-order solution, is copied into row 0 for the next step
(FSAL).  Read as a (7, 2N) float64 array, with real and imaginary parts
interleaved, the buffer turns each stage input, the 5th-order update and the
embedded error into one real dot product with a row of the padded (7, 7)
tableau ``_DP_A`` (or with ``_DP_E``) scaled by the step size.  Every
per-step array lives in a buffer allocated once per run, and the kernels
write into them.

The right-hand sides are the unchecked ``*_rhs_values`` kernels of ``core``;
``integrate`` checks closure, length and background once per run and then
calls the kernels through this module's names, with positional arguments
only, on every evaluation.

Trajectories are sampled on multiples of ``sample_every`` (plus the final
time), never at every internal step; diagnostics are evaluated on the
sampling grid.  RK4 steps land on every sample time.  DP54 steps are
shortened only to land on the final time: a sample time inside an accepted
step is filled from the pair's continuous extension (Hairer, Norsett and
Wanner, Solving ODEs I, Sec. II.6), a fourth-order interpolant built from
the step's own stages.  So the DP54 step sequence, and the state at every
step and at the final time, do not depend on ``sample_every``.
Integration is single-threaded per trajectory; distinct trajectories carry
no shared state and may run concurrently.

A trajectory is one (samples, N) complex array, ``Trajectory.values``, with
row i sampled at ``times[i]``.  ``Trajectory.states`` is a read-only view of
it that builds a ``ComplexState`` for a row only when one is asked for.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    BoundaryKind,
    ComplexState,
    LatticeConfig,
    _check_background,
    _check_closure,
    _rhs_workspace,
    al_invariant,
    al_rhs_values,
    dnls_rhs_values,
    shifted_rhs_values,
)
from .errors import (
    BlowUpDetected,
    ConfigError,
    DomainError,
    LengthMismatch,
    NeedThreeSamples,
    StepFailure,
)

__all__ = [
    "Method",
    "System",
    "IntegratorSpec",
    "States",
    "Trajectory",
    "integrate",
    "averaged_power",
    "power_balance_residual",
    "power_bound_check",
    "BLOWUP_THRESHOLD",
    "MIN_STEP",
]

# Node modulus beyond which the run is declared blown up.  Bounded-regime
# amplitudes here stay below ~3, so this only fires on misconfiguration.
BLOWUP_THRESHOLD = 1.0e6
# Adaptive step underflow threshold.
MIN_STEP = 1.0e-12


class Method(Enum):
    RK4_FIXED = "rk4"
    DP54_ADAPTIVE = "dp54"


class System(Enum):
    DNLS = "dnls"
    AL = "al"
    SHIFTED = "shifted"


@dataclass(frozen=True)
class IntegratorSpec:
    """Stepper selection, tolerances, horizon, and output sampling."""

    t_end: float
    method: Method = Method.DP54_ADAPTIVE
    dt: float = 1e-3        # fixed step (RK4) or initial step (DP54)
    rtol: float = 1e-9
    atol: float = 1e-11
    sample_every: float = 0.1

    def __post_init__(self) -> None:
        for name in ("dt", "rtol", "atol", "sample_every"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (self.rtol > 0 and self.atol > 0):
            raise ConfigError("rtol and atol must both be positive")
        if not (self.t_end >= 0 and math.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be finite and nonnegative, got {self.t_end}")
        if self.sample_every < self.dt:
            raise ConfigError(
                f"sample_every ({self.sample_every}) must be at least dt ({self.dt})"
            )
        if not isinstance(self.method, Method):
            raise ConfigError(f"method must be a Method, got {self.method!r}")


class States(Sequence):
    """Read-only sequence of the sampled states: item i is row i of the
    (samples, N) array ``values``, stamped ``times[i]``, built on access."""

    def __init__(self, values: np.ndarray, times: np.ndarray) -> None:
        self.values, self.times = values, times

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> ComplexState:
        return ComplexState(self.values[i], t=float(self.times[i]))


@dataclass(eq=False)
class Trajectory:
    """Sampled states plus per-sample diagnostics of one integration run.
    A list of ``ComplexState`` is stacked once into ``States`` on ``times``."""

    times: np.ndarray
    states: States
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)
    system: System = System.DNLS

    def __post_init__(self) -> None:
        if not isinstance(self.states, States):
            rows = [s.values for s in self.states] or np.empty((0, 0))
            self.states = States(np.array(rows, dtype=np.complex128), self.times)

    @property
    def values(self) -> np.ndarray:
        """The sampled states as one (samples, N) complex array."""
        return self.states.values


def averaged_power(state: ComplexState | States) -> float | np.ndarray:
    """Per-node mean density (1/N) * sum |u_n|^2 of a state, or per sample
    of ``States`` (a reduction over the last axis of ``values``)."""
    v = state.values
    return np.mean(v.real**2 + v.imag**2, axis=-1)


# ---------------------------------------------------------------------------
# Steppers
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) extended Butcher tableau, padded to (7, 7): row s holds
# the weights of stages 0..s-1 in the input of stage s.  Row 6 is the
# 5th-order update, whose derivative is stage 6 and the next step's stage 0
# (FSAL).
_DP_A = np.zeros((7, 7))
for _s, _row in enumerate((
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
), start=1):
    _DP_A[_s, :_s] = _row
# Coefficients of the embedded 5th-minus-4th order error estimate.
_DP_E = np.array(
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
)
# Continuous extension: inside an accepted step from t to t + h,
#     y(t + theta*h) = y(t) + h * sum_s (_DP_P @ [theta, theta^2, theta^3, theta^4])_s K_s,
# using the step's seven stages (row 6 is the derivative at t + h).
_DP_P = np.array((
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
))


def _check_blowup(peak: float, t: float) -> None:
    # NaN compares false, so test finiteness explicitly (fixed steps can
    # overshoot a genuine blow-up straight into overflow).
    if not math.isfinite(peak) or peak > BLOWUP_THRESHOLD:
        raise BlowUpDetected(f"node modulus exceeded {BLOWUP_THRESHOLD:g} at t = {t:.6g}")


def _sample_grid(spec: IntegratorSpec) -> np.ndarray:
    n = int(math.floor(spec.t_end / spec.sample_every + 1e-9))
    ts = spec.sample_every * np.arange(n + 1)
    if spec.t_end - ts[-1] > 1e-9 * max(1.0, spec.t_end):
        ts = np.append(ts, spec.t_end)
    else:
        ts[-1] = spec.t_end if n > 0 else 0.0
    return ts


def _run_rk4(rhs, y: np.ndarray, sample_times: np.ndarray, dt: float) -> np.ndarray:
    samples = np.empty((sample_times.size, y.size), dtype=np.complex128)
    samples[0] = y
    t = sample_times[0]
    for i, t_target in enumerate(sample_times[1:], start=1):
        seg = t_target - t
        nsteps = max(1, math.ceil(seg / dt - 1e-9))
        h = seg / nsteps
        for _ in range(nsteps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_target
        _check_blowup(float(np.max(np.abs(y))), t)
        samples[i] = y
    return samples


def _run_dp54(rhs, y: np.ndarray, sample_times: np.ndarray, spec: IntegratorSpec) -> np.ndarray:
    """Adaptive DP54 run; ``rhs(y, out)`` writes the derivative at y into out.

    Returns the states at ``sample_times`` as one (samples, N) array.  Only
    the step that would pass the final time is shortened; earlier sample
    times are interpolated inside the accepted step that covers them.
    """
    n = y.size
    samples = np.empty((sample_times.size, n), dtype=np.complex128)
    samples[0] = y
    t = sample_times[0]
    t_end = sample_times[-1]
    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
    h_prop = spec.dt
    K = np.empty((7, n), dtype=np.complex128)
    Kr = K.view(np.float64)  # stage s is row s, real and imaginary parts interleaved
    hA = np.empty_like(_DP_A)
    hE = np.empty_like(_DP_E)
    # (weights, stages, derivative) views of stages 1-5 and of the 5th-order
    # update, fixed for the run; each stage sum is one dot
    stages = [(hA[s, :s], Kr[:s], K[s]) for s in range(1, 6)]
    w6, ks6, K6 = hA[6, :6], Kr[:6], K[6]
    acc = np.empty(2 * n)  # one stage sum, or the error, as interleaved floats
    acc_c = acc.view(np.complex128)
    y, y_new, y_stage = y.copy(), np.empty_like(y), np.empty_like(y)
    ratios, abs_new, scale = np.empty(n), np.empty(n), np.empty(n)
    rhs(y, K[0])
    np.add(spec.atol, np.multiply(spec.rtol, np.abs(y, abs_new), scale), scale)
    nxt = 1  # index of the next sample to fill
    while t < t_stop:
        clamped = h_prop > (t_end - t)
        h = t_end - t if clamped else h_prop
        if h < MIN_STEP:
            # Underflow with the state already far beyond any bounded-regime
            # amplitude is finite-time collapse, not a tolerance problem.
            if float(np.max(np.abs(y))) > 1e3:
                raise BlowUpDetected(
                    f"step collapse with node modulus {np.max(np.abs(y)):.3g} "
                    f"at t = {t:.6g}"
                )
            raise StepFailure(f"step size underflowed below {MIN_STEP:g} at t = {t:.6g}")

        np.multiply(_DP_A, h, hA)
        for w, ks, k in stages:
            np.dot(w, ks, acc)
            rhs(np.add(y, acc_c, y_stage), k)
        np.dot(w6, ks6, acc)
        rhs(np.add(y, acc_c, y_new), K6)
        np.dot(np.multiply(_DP_E, h, hE), Kr, acc)  # the embedded error

        ratio = float(np.divide(np.abs(acc_c, ratios), scale, ratios).max())
        peak = float(np.abs(y_new, abs_new).max())
        if ratio <= 1.0:
            t_old = t
            t += h
            _check_blowup(peak, t)
            while nxt < sample_times.size - 1 and sample_times[nxt] <= t:
                powers = np.cumprod(np.full(4, (sample_times[nxt] - t_old) / h))
                np.dot(h * (_DP_P @ powers), Kr, acc)
                np.add(y, acc_c, samples[nxt])
                nxt += 1
            y, y_new = y_new, y
            K[0] = K6  # FSAL
            np.add(spec.atol, np.multiply(spec.rtol, abs_new, scale), scale)
            factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
            grown = h * factor
            # A step clamped to the final time must not talk the controller down.
            h_prop = max(h_prop, grown) if clamped else grown
        else:
            # A rejected trial that lands finitely beyond the guard is a
            # genuine collapse, not a tolerance problem.
            if math.isfinite(peak) and peak > BLOWUP_THRESHOLD:
                raise BlowUpDetected(
                    f"node modulus exceeded {BLOWUP_THRESHOLD:g} at t = {t:.6g}"
                )
            h_prop = h * min(1.0, max(0.2, 0.9 * ratio ** -0.2))
    # the final time, and any sample time within the stopping tolerance of it
    samples[nxt:] = y
    return samples


# ---------------------------------------------------------------------------
# Public driver
# ---------------------------------------------------------------------------

def integrate(
    system: System,
    ic: ComplexState,
    cfg: LatticeConfig,
    spec: IntegratorSpec,
    background: float | None = None,
) -> Trajectory:
    """Integrate one lattice system from ``ic`` and record sampled states.

    ``background`` supplies the constant amplitude A to the shifted system
    and is ignored elsewhere.  Raises BlowUpDetected if any node modulus
    exceeds the guard threshold and StepFailure on adaptive-step underflow.
    """
    if len(ic) != cfg.N:
        raise LengthMismatch(f"initial state has {len(ic)} nodes, lattice expects {cfg.N}")

    # The *_rhs_values kernels check nothing, so closure and background are
    # checked here, once.  The kernels are looked up in this module on every
    # evaluation and called with positional arguments only; ``work`` is the
    # kernels' scratch for the run, and ``out`` (allocated when omitted)
    # receives the derivative.
    work = _rhs_workspace(cfg.N)
    if system is System.DNLS:
        _check_closure(cfg, BoundaryKind.PERIODIC, "the unshifted gain/loss lattice")
        rhs = lambda y, out=None: dnls_rhs_values(y, cfg, out, work)
    elif system is System.AL:
        _check_closure(cfg, BoundaryKind.PERIODIC, "the Ablowitz-Ladik lattice")
        rhs = lambda y, out=None: al_rhs_values(y, cfg, out, work)
    elif system is System.SHIFTED:
        if background is None:
            raise ConfigError("the shifted system requires the background amplitude")
        _check_background(background)
        _check_closure(cfg, BoundaryKind.DIRICHLET_ZERO, "the background-shifted system")
        rhs = lambda y, out=None: shifted_rhs_values(y, cfg, background, out, work)
    else:
        raise ConfigError(f"unknown system: {system!r}")

    sample_times = _sample_grid(spec) + ic.t
    if spec.method is Method.RK4_FIXED:
        raw = _run_rk4(rhs, ic.values, sample_times, spec.dt)
    else:
        raw = _run_dp54(rhs, ic.values, sample_times, spec)

    states = States(raw, sample_times)
    diagnostics = {"P_a": averaged_power(states)}
    if system is System.AL:
        diagnostics["al_invariant"] = al_invariant(states, cfg)
    traj = Trajectory(times=sample_times, states=states, diagnostics=diagnostics, system=system)
    if system is System.DNLS and len(states) >= 3:
        diagnostics["balance_residual"] = power_balance_residual(traj, cfg)
    return traj


# ---------------------------------------------------------------------------
# Balance-law diagnostics
# ---------------------------------------------------------------------------

def power_balance_residual(traj: Trajectory, cfg: LatticeConfig) -> np.ndarray:
    """Per interior sample, | d/dt(h*sum|u|^2) - 2*gamma*h*sum|u|^2 - 2*delta*h*sum|u|^4 |.

    The time derivative is a centered difference over the sampling grid, so
    the returned array has one entry per interior sample (len(times) - 2).
    """
    if traj.system is not System.DNLS:
        raise ConfigError("the power balance law applies to gain/loss lattice runs")
    if len(traj.states) < 3:
        raise NeedThreeSamples("centered differences need at least three samples")
    dens = traj.values.real**2 + traj.values.imag**2
    W = cfg.h * dens.sum(axis=1)                # h * sum |u|^2
    Q = cfg.h * (dens**2).sum(axis=1)           # h * sum |u|^4
    t = traj.times
    dWdt = (W[2:] - W[:-2]) / (t[2:] - t[:-2])
    return np.abs(dWdt - 2.0 * cfg.gamma * W[1:-1] - 2.0 * cfg.delta * Q[1:-1])


def power_bound_check(
    traj: Trajectory, cfg: LatticeConfig, rel_tol: float = 1e-6
) -> tuple[bool, np.ndarray]:
    """Check the closed-form upper bound on the averaged power along a run.

    The bound solves the comparison equation obtained from the power balance
    law via Cauchy-Schwarz:
        P_a(t) <= 1 / ( P_a(0)^{-1} e^{-2 gamma t} + (-delta/gamma)(1 - e^{-2 gamma t}) ).
    Returns (pass, margin) where margin = bound - P_a pointwise.  Constant
    modulus states saturate the bound, so the pass verdict allows a relative
    tolerance sized to absorb integrator noise on saturating orbits.
    """
    if not (cfg.gamma > 0 and cfg.delta < 0):
        raise DomainError("the power bound requires gamma > 0 and delta < 0")
    if traj.system is not System.DNLS:
        raise ConfigError("the power bound applies to gain/loss lattice runs")
    p = traj.diagnostics["P_a"]
    p0 = p[0]
    tau = traj.times - traj.times[0]
    decay = np.exp(-2.0 * cfg.gamma * tau)
    if p0 == 0.0:
        bound = np.zeros_like(tau)
    else:
        bound = 1.0 / (decay / p0 + (-cfg.delta / cfg.gamma) * (1.0 - decay))
    margin = bound - p
    ok = bool(np.all(margin >= -rel_tol * np.maximum(1.0, bound)))
    return ok, margin
