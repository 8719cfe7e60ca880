"""Time integration of the lattice systems with per-sample diagnostics.

Three methods are provided: classic fixed-step RK4 and two adaptive
embedded pairs with FSAL, Dormand-Prince 5(4) (DP54) and Dormand and
Prince's 8th-order DOP853.  Step-size control uses the max-norm of the
embedded error estimate measured against atol + rtol*|state| per node;
DOP853 blends its 5th- and 3rd-order estimates into one ratio.

One driver, ``_run``, runs all three methods: one step loop, final-time
clamp, underflow and collapse guards, blow-up check, controller and
sampling.  A method is a ``_Tableau`` record of its padded tableau (the
update as the last row), error rows, extra-stage rows and interpolation
matrix; RK4 has no error rows, so it accepts every step at one step size.
The driver keeps the stage derivatives in one preallocated complex buffer
``K``; row s is stage s, and the derivative at the accepted update is
copied into row 0 for the next step (FSAL).  Read as a float64 array, with
real and imaginary parts interleaved, the buffer turns each stage input,
the update and each error estimate into one real dot product with a
tableau row scaled by the step size.  Every per-step array lives in a
buffer allocated once per run, and the kernels write into them.

The right-hand sides are the unchecked ``*_rhs_values`` kernels of ``core``;
``integrate`` applies ``core.check_system`` once per run and then calls the
kernels through this module's names, with positional arguments only, on
every evaluation.

Trajectories are sampled on multiples of ``sample_every`` (plus the final
time), never at every internal step; diagnostics are evaluated on the
sampling grid.  Steps are shortened only to land on the final time: a
sample time inside a step is filled from the method's continuous extension
(Hairer, Norsett and Wanner, Solving ODEs I, Sec. II.6), an interpolant
linear in the step's stages, y(t + theta*h) = y(t) + h * sum_s (P @ [theta,
theta^2, ...])_s K_s.  RK4's is third order and DP54's fourth order.
DOP853's is seventh order and also needs three extra stages, evaluated only
in an accepted step that contains a sample time; its (16, 7) matrix ``P`` is
built at import from the update row and Hairer's four dense-output rows.
The adaptive pairs' steps, and their state at every step and at the final
time, do not depend on ``sample_every``.

``IntegratorSpec``'s default is DOP853 at rtol 1e-10 / atol 1e-12, which
errs no more than DP54 at 1e-9 / 1e-11 on the catalog's invariants with
about half the evaluations (pairs compared by work-precision, Sec. II.10).
Every catalog scenario takes it except fig6, which keeps DP54 at 1e-9 /
1e-11: fig6 is chaotic, so another step sequence draws another realisation
of its one noise seed.  ``analysis.mi_growth_oracle`` integrates with
DOP853 at rtol 1e-9.

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
from typing import NamedTuple

import numpy as np

from .core import (
    ComplexState,
    LatticeConfig,
    System,
    _rhs_workspace,
    al_invariant,
    al_rhs_values,
    check_system,
    critical_amplitude,
    dnls_rhs_values,
    shifted_rhs_values,
)
from .errors import BlowUpDetected, ConfigError, GridMismatch, NeedThreeSamples, StepFailure

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
    DOP853 = "dop853"


@dataclass(frozen=True)
class IntegratorSpec:
    """Stepper selection, tolerances, horizon, and output sampling."""

    t_end: float
    method: Method = Method.DOP853
    dt: float = 1e-3  # first step; RK4's step is the largest up to dt dividing sample_every
    rtol: float = 1e-10
    atol: float = 1e-12
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
    ``states`` is ``States`` on ``times``, one row per sample time; a list of
    ``ComplexState`` is stacked once, and the states' own stamps give way
    to ``times``."""

    times: np.ndarray
    states: States
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)
    system: System = System.DNLS

    def __post_init__(self) -> None:
        if isinstance(self.states, States):
            values = self.states.values
        else:
            rows = [s.values for s in self.states] or np.empty((0, 0))
            values = np.array(rows, dtype=np.complex128)
        if len(values) != len(self.times):
            raise GridMismatch(f"{len(values)} states for {len(self.times)} sample times")
        self.states = States(values, self.times)

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

def _lower(rows, width: int) -> np.ndarray:
    """Stack ragged rows of coefficients, each padded with zeros to ``width``."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


class _Tableau(NamedTuple):
    """A Runge-Kutta method with FSAL and a continuous extension.

    ``A`` is the padded (S, S) tableau: row s holds the weights of stages
    0..s-1 in the input of stage s.  Row S-1 is the update, whose derivative
    is stage S-1 and the next step's stage 0 (FSAL).  Each row of ``E``
    weights the S stages into one embedded error estimate; without any, the
    method takes fixed steps.  Row i of ``extra`` gives the input of stage
    S+i, a stage that only the interpolant uses.  Inside a step from t to t + h,
        y(t + theta*h) = y(t) + h * sum_s (P @ [theta, theta^2, ...])_s K_s
    over all S + len(extra) stages.  After a step with error ratio r the
    controller scales h by 0.9 * r**exponent, by at most ``max_growth``.
    """

    A: np.ndarray
    E: np.ndarray
    extra: np.ndarray
    P: np.ndarray
    exponent: float
    max_growth: float


# Classic RK4 (Solving ODEs I, Sec. II.1) with its third-order continuous
# extension (Sec. II.6), whose weights at theta = 1 are the update's.
_RK4 = _Tableau(
    A=_lower(((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6)), 5),
    E=np.zeros((0, 5)),
    extra=np.zeros((0, 5)),
    P=np.array(((1.0, -1.5, 2 / 3), (0.0, 1.0, -2 / 3), (0.0, 1.0, -2 / 3),
                (0.0, -0.5, 2 / 3), (0.0, 0.0, 0.0))),
    exponent=0.0,
    max_growth=1.0,
)

# Dormand-Prince 5(4) (Hairer, Norsett and Wanner, Solving ODEs I, Sec. II.5)
# with its fourth-order continuous extension (Sec. II.6).
_DP54 = _Tableau(
    A=_lower((
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    ), 7),
    # the 5th-minus-4th order estimate
    E=np.array(((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
                 -1 / 40),)),
    extra=np.zeros((0, 7)),
    P=np.array((
        (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
         -12715105075 / 11282082432),
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
         87487479700 / 32700410799),
        (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
         -10690763975 / 1880347072),
        (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
         701980252875 / 199316789632),
        (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
        (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
    )),
    exponent=-0.2,
    max_growth=5.0,
)

# Dormand and Prince's DOP853 (Solving ODEs I, Sec. II.10): twelve stages,
# the 8th-order update in row 12, estimates of orders 5 and 3, and three extra
# stages (13-15) for a 7th-order continuous extension.  Each literal is the
# double nearest the published 30-digit coefficient.
_DOP853_A = _lower((
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
), 13)
_DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
              -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
              0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
# the 3rd-order estimate is the update minus a 3rd-order solution
_DOP853_E3 = np.append(_DOP853_A[12, :12], 0.0)
_DOP853_E3[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
# Hairer's dense output is y(t) + sum_i F_i b_i(theta) with
# b_i = theta^ceil((i+1)/2) (1 - theta)^floor((i+1)/2) and, for dy the
# update's increment, F_0 = dy, F_1 = h K_0 - dy, F_2 = 2 dy - h (K_0 + K_12)
# and F_3..F_6 = h (these rows) . K.
_DOP853_D = np.array((
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
))


def _dop853_interpolant() -> np.ndarray:
    """DOP853's dense output as a (16, 7) matrix over [theta, ..., theta^7].

    With dy = h * (row 12 of the tableau) . K, every F_i is h times a fixed
    row over the 16 stages; expanding each b_i in powers of theta gives P.
    """
    F = np.zeros((7, 16))
    F[0, :12] = _DOP853_A[12, :12]
    F[1] = -F[0]
    F[1, 0] += 1.0
    F[2] = 2.0 * F[0]
    F[2, [0, 12]] -= 1.0
    F[3:] = _DOP853_D
    basis = np.zeros((7, 8))  # row i: the coefficients of b_i over 1, theta, ..., theta^7
    poly = np.ones(1)
    for i in range(7):
        poly = np.convolve(poly, ((0.0, 1.0), (1.0, -1.0))[i % 2])
        basis[i, :poly.size] = poly
    return F.T @ basis[:, 1:]


_DOP853 = _Tableau(
    A=_DOP853_A,
    E=np.array((_DOP853_E5, _DOP853_E3)),
    extra=_lower((
        (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298),
        (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
         0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
        (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987),
    ), 16),
    P=_dop853_interpolant(),
    exponent=-1 / 8,
    max_growth=10.0,
)

_TABLEAUS = {Method.RK4_FIXED: _RK4, Method.DP54_ADAPTIVE: _DP54, Method.DOP853: _DOP853}


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


def _run(rhs, y: np.ndarray, sample_times: np.ndarray, spec: IntegratorSpec) -> np.ndarray:
    """Run ``spec.method``'s tableau; ``rhs(y, out)`` writes the derivative
    at y into out.

    Returns the states at ``sample_times`` as one (samples, N) array.  Only
    the step that would pass the final time is shortened; earlier sample
    times are interpolated inside the accepted step that covers them, after
    the method's extra stages for that step.
    """
    A, E, X, P, expo, grow = _TABLEAUS[spec.method]
    n = y.size
    last = sample_times.size - 1
    samples = np.empty((sample_times.size, n), dtype=np.complex128)
    samples[0] = y
    t = sample_times[0]
    t_end = sample_times[-1]
    t_stop = t_end - 1e-12 * max(1.0, abs(t_end))
    S = len(A)  # stages of a step; stage S-1 is the derivative at the update
    K = np.empty((len(P), n), dtype=np.complex128)
    Kr = K.view(np.float64)  # stage s is row s, real and imaginary parts interleaved
    hA, hE, hX = np.empty_like(A), np.empty_like(E), np.empty_like(X)
    # (weights, stages, derivative) views of the stage inputs, of the update
    # and of the extra stages, fixed for the run; each stage sum is one dot
    stages = [(hA[s, :s], Kr[:s], K[s]) for s in range(1, S - 1)]
    w_up, ks_up, K_up = hA[S - 1, :S - 1], Kr[:S - 1], K[S - 1]
    extras = [(hX[i, :s], Kr[:s], K[s]) for i, s in enumerate(range(S, len(K)))]
    # the error estimates as interleaved floats (err) and as complex (err_c):
    # ``first``, absent for fixed steps, and DOP853's 3rd-order ``second``
    KrS = Kr[:S]
    err = np.empty((len(E), 2 * n))
    err_c = err.view(np.complex128)
    first = (hE[0], err[0], err_c[0]) if len(E) else None
    second = (hE[1], err[1], err_c[1]) if len(E) == 2 else None
    # fixed steps: the largest step up to dt that divides sample_every
    h_prop = spec.dt if first else spec.sample_every / math.ceil(
        spec.sample_every / spec.dt - 1e-9)
    degree = P.shape[1]
    acc = np.empty(2 * n)  # one stage sum as interleaved floats
    acc_c = acc.view(np.complex128)
    y, y_new, y_stage = y.copy(), np.empty_like(y), np.empty_like(y)
    ratios, abs_new, scale = np.empty(n), np.empty(n), np.empty(n)
    rhs(y, K[0])
    np.add(spec.atol, np.multiply(spec.rtol, np.abs(y, abs_new), scale), scale)
    nxt = 1  # index of the next sample to fill
    while t < t_stop:
        h = min(h_prop, t_end - t)
        if h < MIN_STEP:
            # Underflow with the state already far beyond any bounded-regime
            # amplitude is finite-time collapse, not a tolerance problem.
            if float(np.max(np.abs(y))) > 1e3:
                raise BlowUpDetected(
                    f"step collapse with node modulus {np.max(np.abs(y)):.3g} "
                    f"at t = {t:.6g}"
                )
            raise StepFailure(f"step size underflowed below {MIN_STEP:g} at t = {t:.6g}")

        np.multiply(A, h, hA)
        for w, ks, k in stages:
            np.dot(w, ks, acc)
            rhs(np.add(y, acc_c, y_stage), k)
        np.dot(w_up, ks_up, acc)
        rhs(np.add(y, acc_c, y_new), K_up)
        ratio = 0.0  # a fixed-step tableau accepts every step
        if first:
            # the max-norm of each estimate over atol + rtol*|y|
            np.multiply(E, h, hE)
            w, e, e_c = first
            np.dot(w, KrS, e)
            ratio = float(np.divide(np.abs(e_c, ratios), scale, ratios).max())
            if second:
                w, e, e_c = second
                np.dot(w, KrS, e)
                e3 = float(np.divide(np.abs(e_c, ratios), scale, ratios).max())
                # DOP853 blends its 5th- and 3rd-order estimates (Sec. II.10)
                ratio = ratio * ratio / math.sqrt(ratio * ratio + 0.01 * e3 * e3) if ratio else 0.0
        peak = float(np.abs(y_new, abs_new).max())
        if ratio <= 1.0:
            t_old = t
            t += h
            _check_blowup(peak, t)
            if extras and nxt < last and sample_times[nxt] <= t:
                np.multiply(X, h, hX)
                for w, ks, k in extras:
                    np.dot(w, ks, acc)
                    rhs(np.add(y, acc_c, y_stage), k)
            while nxt < last and sample_times[nxt] <= t:
                powers = np.cumprod(np.full(degree, (sample_times[nxt] - t_old) / h))
                np.dot(h * (P @ powers), Kr, acc)
                np.add(y, acc_c, samples[nxt])
                nxt += 1
            y, y_new = y_new, y
            K[0] = K_up  # FSAL
            np.add(spec.atol, np.multiply(spec.rtol, abs_new, scale), scale)
            factor = grow if ratio == 0.0 else min(grow, max(0.2, 0.9 * ratio ** expo))
            h_prop = h * factor
        else:
            # A rejected trial that lands finitely beyond the guard is a
            # genuine collapse, not a tolerance problem.
            if math.isfinite(peak):
                _check_blowup(peak, t)
            h_prop = h * min(1.0, max(0.2, 0.9 * ratio ** expo))
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
    check_system(system, cfg, ic.values, background)
    # ``work`` is the kernels' scratch for the run; ``out`` receives the derivative.
    work = _rhs_workspace(cfg.N)
    if system is System.DNLS:
        rhs = lambda y, out: dnls_rhs_values(y, cfg, out, work)
    elif system is System.AL:
        rhs = lambda y, out: al_rhs_values(y, cfg, out, work)
    else:
        rhs = lambda y, out: shifted_rhs_values(y, cfg, background, out, work)

    sample_times = _sample_grid(spec) + ic.t
    raw = _run(rhs, ic.values, sample_times, spec)

    states = States(raw, sample_times)
    diagnostics = {"P_a": averaged_power(states)}
    if system is System.AL:
        diagnostics["al_invariant"] = al_invariant(states, cfg)
    return Trajectory(times=sample_times, states=states, diagnostics=diagnostics, system=system)


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


def _power_envelope(cfg: LatticeConfig, u0_norm_sq: float):
    """The closed-form power bound in the lattice norm: B(s) bounds ||u(s)||^2
    = N h P_a(s) on a gain/loss run with ||u(0)||^2 = u0_norm_sq,

        B(s) = gamma / (gamma nu e^{-2 gamma s} + beta (1 - e^{-2 gamma s})),
        nu = 1 / ||u(0)||^2,  beta = -delta / (N h).

    Returns (B, nu, beta).
    """
    nu = 1.0 / u0_norm_sq
    beta = -cfg.delta / (cfg.N * cfg.h)

    def B(s):
        decay = np.exp(-2.0 * cfg.gamma * s)
        return cfg.gamma / (cfg.gamma * decay * nu + beta * (1.0 - decay))

    return B, nu, beta


def power_bound_check(traj: Trajectory, cfg: LatticeConfig) -> tuple[bool, np.ndarray]:
    """Check the closed-form upper bound on the averaged power along a run.

    The bound solves the comparison equation obtained from the power balance
    law via Cauchy-Schwarz:
        P_a(t) <= 1 / ( P_a(0)^{-1} e^{-2 gamma t} + (-delta/gamma)(1 - e^{-2 gamma t}) ),
    ``_power_envelope`` divided by N h.  Returns (pass, margin) where margin =
    bound - P_a pointwise.  Constant modulus states saturate the bound, so the
    pass verdict allows a relative tolerance of 1e-6, sized to absorb
    integrator noise on saturating orbits.
    """
    critical_amplitude(cfg.gamma, cfg.delta)  # DomainError without gain and loss
    if traj.system is not System.DNLS:
        raise ConfigError("the power bound applies to gain/loss lattice runs")
    p = traj.diagnostics["P_a"]
    tau = traj.times - traj.times[0]
    if p[0] == 0.0:  # the zero state stays zero
        bound = np.zeros_like(tau)
    else:
        scale = cfg.N * cfg.h
        B, _, _ = _power_envelope(cfg, scale * p[0])
        bound = B(tau) / scale
    margin = bound - p
    ok = bool(np.all(margin >= -1e-6 * np.maximum(1.0, bound)))
    return ok, margin
