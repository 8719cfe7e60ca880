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
tableau ``_DP_A`` (or with ``_DP_E``) scaled by the step size.

The right-hand sides are the unchecked ``*_rhs_values`` kernels of ``core``;
``integrate`` checks closure, length and background once per run and then
calls the kernels through this module's names, with positional arguments
only, on every evaluation.

Trajectories are sampled on multiples of ``sample_every`` (plus the final
time), never at every internal step; diagnostics are evaluated on the
sampling grid.  Integration is single-threaded per trajectory; distinct
trajectories carry no shared state and may run concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    BoundaryKind,
    ComplexState,
    LatticeConfig,
    _check_background,
    _check_closure,
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


@dataclass(eq=False)
class Trajectory:
    """Sampled states plus per-sample diagnostics of one integration run."""

    times: np.ndarray
    states: list[ComplexState]
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)
    system: System = System.DNLS


def averaged_power(state: ComplexState) -> float:
    """Per-node mean density (1/N) * sum |u_n|^2."""
    v = state.values
    return float(np.mean(v.real**2 + v.imag**2))


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


def _rk4_step(rhs, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _run_rk4(rhs, y: np.ndarray, sample_times: np.ndarray, dt: float) -> list[np.ndarray]:
    samples = [y.copy()]
    t = sample_times[0]
    for t_target in sample_times[1:]:
        seg = t_target - t
        nsteps = max(1, math.ceil(seg / dt - 1e-9))
        h = seg / nsteps
        for _ in range(nsteps):
            y = _rk4_step(rhs, y, h)
        t = t_target
        _check_blowup(float(np.max(np.abs(y))), t)
        samples.append(y.copy())
    return samples


def _run_dp54(rhs, y: np.ndarray, sample_times: np.ndarray, spec: IntegratorSpec) -> list[np.ndarray]:
    samples = [y.copy()]
    t = sample_times[0]
    h_prop = spec.dt
    K = np.empty((7, y.size), dtype=np.complex128)
    Kr = K.view(np.float64)  # stage s is row s, real and imaginary parts interleaved
    hA = np.empty_like(_DP_A)
    # (weights, stages) views fixed for the run; each stage sum is one dot
    stage_sums = [(hA[s, :s], Kr[:s]) for s in range(1, 7)]
    K[0] = rhs(y)
    scale = spec.atol + spec.rtol * np.abs(y)
    for t_target in sample_times[1:]:
        while t < t_target - 1e-12 * max(1.0, abs(t_target)):
            clamped = h_prop > (t_target - t)
            h = t_target - t if clamped else h_prop
            if h < MIN_STEP:
                # Underflow with the state already far beyond any bounded-regime
                # amplitude is finite-time collapse, not a tolerance problem.
                if float(np.max(np.abs(y))) > 1e3:
                    raise BlowUpDetected(
                        f"step collapse with node modulus {np.max(np.abs(y)):.3g} "
                        f"at t = {t:.6g}"
                    )
                raise StepFailure(f"step size underflowed below {MIN_STEP:g} at t = {t:.6g}")

            np.multiply(_DP_A, h, out=hA)
            for s, (w, ks) in enumerate(stage_sums[:5], start=1):
                K[s] = rhs(y + np.dot(w, ks).view(np.complex128))
            w, ks = stage_sums[5]
            y_new = y + np.dot(w, ks).view(np.complex128)
            K[6] = rhs(y_new)
            err = np.dot(h * _DP_E, Kr).view(np.complex128)

            ratio = float((np.abs(err) / scale).max())
            abs_new = np.abs(y_new)
            peak = float(abs_new.max())
            if ratio <= 1.0:
                t += h
                y = y_new
                K[0] = K[6]  # FSAL
                _check_blowup(peak, t)
                scale = spec.atol + spec.rtol * abs_new
                factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                grown = h * factor
                # A boundary-clamped step must not talk the controller down.
                h_prop = max(h_prop, grown) if clamped else grown
            else:
                # A rejected trial that lands finitely beyond the guard is a
                # genuine collapse, not a tolerance problem.
                if math.isfinite(peak) and peak > BLOWUP_THRESHOLD:
                    raise BlowUpDetected(
                        f"node modulus exceeded {BLOWUP_THRESHOLD:g} at t = {t:.6g}"
                    )
                h_prop = h * min(1.0, max(0.2, 0.9 * ratio ** -0.2))
        samples.append(y.copy())
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
    # evaluation and called with positional arguments only.
    if system is System.DNLS:
        _check_closure(cfg, BoundaryKind.PERIODIC, "the unshifted gain/loss lattice")
        rhs = lambda y: dnls_rhs_values(y, cfg)
    elif system is System.AL:
        _check_closure(cfg, BoundaryKind.PERIODIC, "the Ablowitz-Ladik lattice")
        rhs = lambda y: al_rhs_values(y, cfg)
    elif system is System.SHIFTED:
        if background is None:
            raise ConfigError("the shifted system requires the background amplitude")
        _check_background(background)
        _check_closure(cfg, BoundaryKind.DIRICHLET_ZERO, "the background-shifted system")
        rhs = lambda y: shifted_rhs_values(y, cfg, background)
    else:
        raise ConfigError(f"unknown system: {system!r}")

    sample_times = _sample_grid(spec) + ic.t
    y0 = ic.values.astype(np.complex128, copy=True)
    if spec.method is Method.RK4_FIXED:
        raw = _run_rk4(rhs, y0, sample_times, spec.dt)
    else:
        raw = _run_dp54(rhs, y0, sample_times, spec)

    states = [ComplexState(v, t=float(ts)) for v, ts in zip(raw, sample_times)]
    diagnostics: dict[str, np.ndarray] = {
        "P_a": np.array([averaged_power(s) for s in states])
    }
    if system is System.AL:
        diagnostics["al_invariant"] = np.array([al_invariant(s, cfg) for s in states])
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
    dens = np.array([s.values.real**2 + s.values.imag**2 for s in traj.states])
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
    _require = cfg.gamma > 0 and cfg.delta < 0
    if not _require:
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
