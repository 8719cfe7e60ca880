"""Closed-form attractor theory, modulation instability, and spectra.

The periodic gain/loss lattice admits a plane-wave family
    w_n(t) = A(t) exp(i(q x_n - Omega(t))),   q = K*pi/L,
whose amplitude solves the Bernoulli equation dA/dt = gamma*A + delta*A^3
and whose phase obeys dTheta/dt = A^2 with
Omega(t) = 4k sin^2(hq/2) t - Theta(t).  Every member converges to the
constant-amplitude orbit at the critical amplitude with limit frequency
    omega_tilde = 4k sin^2(hq/2) - A_*^2.

Sideband perturbations of that orbit at wavenumber Q obey a quadratic
    Lambda^2 - 2i delta A_*^2 Lambda - Gamma(Gamma - 2 A_*^2) = 0,
    Gamma = 4k sin^2(hQ/2) cos(hq),
so the carrier is modulationally unstable iff cos(hq) > 0 and some
admissible Q gives Gamma(Gamma - 2 A_*^2) < 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexState,
    LatticeConfig,
    _validate_mode,
    check_length,
    critical_amplitude,
    node_grid,
)
from .errors import DomainError, NoLinearWindow, WindowTooShort
from .timestep import IntegratorSpec, Method, System, Trajectory, integrate

__all__ = [
    "PlaneWaveFamily",
    "MIScan",
    "SpectrumFrame",
    "GrowthFit",
    "AttractorVerdict",
    "plane_wave_family",
    "dispersion_frequency",
    "amplitude_ode_solution",
    "phase_increment",
    "slant_asymptote_offset",
    "plane_wave_exact",
    "mi_roots",
    "sideband_frequency",
    "mi_scan",
    "mi_growth_oracle",
    "spectrum",
    "reconstruct_state",
    "attractor_verdict",
]

# Sideband perturbation amplitude eps of the growth oracle's initial state.
GROWTH_EPS = 1e-6
# Linear-window thresholds for the growth-rate fit, applied to the modal
# amplitude |A_M|/(h*N): enter at 10*eps, leave before nonlinearity at 1e-3.
GROWTH_WINDOW_LOW_FACTOR = 10.0
GROWTH_WINDOW_HIGH = 1e-3
# Band membership threshold: absorbs roundoff growth (~1e-16) at the band
# edge where cos(hq) evaluates to fp noise instead of exact zero.
BAND_GROWTH_EPS = 1e-12
# Default tolerance of the attractor verdict on |P_a - A_*^2| and the
# per-node modulus variance.
ATTRACTOR_TOL = 1e-3


def dispersion_frequency(K: int, cfg: LatticeConfig) -> float:
    """Limit frequency 4k sin^2(hq/2) - A_*^2 of the plane-wave orbit at mode K,
    with A_* = sqrt(-gamma/delta) the lattice's own critical amplitude."""
    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    K = _validate_mode(K, cfg.N)
    q = K * math.pi / cfg.L
    return 4.0 * cfg.k * math.sin(0.5 * cfg.h * q) ** 2 - a_star * a_star


def amplitude_ode_solution(A0: float, gamma: float, delta: float, t):
    """Squared amplitude A^2(t) of dA/dt = gamma*A + delta*A^3 from A(0) = A0.

        A^2(t) = gamma A0^2 / ((gamma + delta A0^2) e^{-2 gamma t} - delta A0^2)

    Fixed point at the critical amplitude; the limit t -> inf is A_*^2.
    Accepts scalar or array ``t``, finite and nonnegative.
    """
    critical_amplitude(gamma, delta)  # DomainError without gain and loss
    if not (A0 > 0):
        raise DomainError(f"A0 must be positive, got {A0}")
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
        raise DomainError(f"t must be finite and nonnegative, got {t}")
    a2 = A0 * A0
    out = gamma * a2 / ((gamma + delta * a2) * np.exp(-2.0 * gamma * t_arr) - delta * a2)
    return float(out) if out.ndim == 0 else out


def phase_increment(A0: float, gamma: float, delta: float, t: float) -> float:
    """Theta(t) - Theta(0) = integral of A^2(s) ds over [0, t], in closed form.

    With r = A0^2 / A_*^2 and x = 2 gamma t the amplitude is
    A^2(s) = A_*^2 r e^{2 gamma s} / (1 + r (e^{2 gamma s} - 1)), whose
    antiderivative gives, with A_*^2 = -gamma/delta,

        Theta(t) - Theta(0) = -log1p(r expm1(x)) / (2 delta)                 (a)
                            = A_*^2 t - log1p((r - 1)(-expm1(-x))) / (2 delta)  (b)
                            = A_*^2 t - log(r + (1 - r) e^{-x}) / (2 delta).     (c)

    For r >= 1 both terms of (b) are nonnegative, so it neither cancels nor
    overflows.  For r < 1, (a) is used while x <= 700, where r expm1(x)
    cannot overflow; beyond that (c), whose log term tends to log(r) while
    A_*^2 t grows without bound.  Against 60-digit values the relative error
    is below 2e-15 for A0 / A_* from 1e-8 to 1e5 and x up to 4e8.
    """
    amplitude_ode_solution(A0, gamma, delta, t)  # validates A0, gamma, delta and t
    r = -delta * A0 * A0 / gamma
    x = 2.0 * gamma * t
    if r >= 1.0:
        return -gamma / delta * t - math.log1p((r - 1.0) * -math.expm1(-x)) / (2.0 * delta)
    if x <= 700.0:
        return -math.log1p(r * math.expm1(x)) / (2.0 * delta)
    return -(x + math.log(r + (1.0 - r) * math.exp(-x))) / (2.0 * delta)


def slant_asymptote_offset(A0: float, gamma: float, delta: float) -> float:
    """Constant offset b = -(1/(2 delta)) ln(A0^2 / A_*^2) of the phase asymptote.

    (Theta(t) - Theta(0)) - A_*^2 t -> b as t -> inf; zero when A0 is already
    the critical amplitude.
    """
    a_star2 = critical_amplitude(gamma, delta) ** 2
    if not (A0 > 0):
        raise DomainError(f"A0 must be positive, got {A0}")
    return -math.log(A0 * A0 / a_star2) / (2.0 * delta)


@dataclass(frozen=True)
class PlaneWaveFamily:
    """One member of the exact plane-wave family on the lattice ``cfg``,
    pinned by K, A(0), Theta(0)."""

    K: int
    A0: float
    Theta0: float
    cfg: LatticeConfig

    @property
    def q(self) -> float:
        """The carrier wavenumber K*pi/L."""
        return self.K * math.pi / self.cfg.L

    @property
    def omega_tilde(self) -> float:
        """The limit frequency of the orbit, ``dispersion_frequency(K, cfg)``."""
        return dispersion_frequency(self.K, self.cfg)


def plane_wave_family(K: int, A0: float, Theta0: float, cfg: LatticeConfig) -> PlaneWaveFamily:
    K = _validate_mode(K, cfg.N)
    if not (A0 > 0):
        raise DomainError(f"A0 must be positive, got {A0}")
    critical_amplitude(cfg.gamma, cfg.delta)  # DomainError without gain and loss
    return PlaneWaveFamily(K=K, A0=A0, Theta0=Theta0, cfg=cfg)


def plane_wave_exact(family: PlaneWaveFamily, t: float) -> ComplexState:
    """Evaluate the exact plane-wave solution A(t) exp(i(q x_n - Omega(t)))
    on the family's lattice."""
    cfg, q = family.cfg, family.q
    a2 = amplitude_ode_solution(family.A0, cfg.gamma, cfg.delta, t)
    theta = family.Theta0 + phase_increment(family.A0, cfg.gamma, cfg.delta, t)
    omega = 4.0 * cfg.k * math.sin(0.5 * cfg.h * q) ** 2 * t - theta
    values = math.sqrt(a2) * np.exp(1j * (q * node_grid(cfg).x - omega))
    return ComplexState(values, t=t)


# ---------------------------------------------------------------------------
# Modulation instability
# ---------------------------------------------------------------------------

def mi_roots(q: float, Q, cfg: LatticeConfig) -> tuple:
    """Both roots Lambda_+- of the sideband quadratic at carrier q, sideband Q.

        Lambda_+- = i delta A_*^2 +- sqrt(Gamma(Gamma - 2 A_*^2) - delta^2 A_*^4)

    with delta and A_* = sqrt(-gamma/delta) the lattice's own.  The square
    root of a negative real is taken as i*sqrt(|.|) (principal branch); both
    roots are returned so no branch choice can hide growth.  ``Q`` is a
    number or an array of sidebands; the roots have its shape.
    The sideband frequency is recovered as Omega_p = Lambda + 2k sin(hQ) sin(hq).
    """
    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    a2 = a_star * a_star
    gam = 4.0 * cfg.k * np.sin(0.5 * cfg.h * Q) ** 2 * math.cos(cfg.h * q)
    radicand = gam * (gam - 2.0 * a2) - (cfg.delta * a2) ** 2
    size = np.sqrt(np.abs(radicand))
    root = np.where(radicand < 0, 1j * size, size)
    shift = 1j * cfg.delta * a2
    return shift + root, shift - root


def sideband_frequency(lam: complex, q: float, Q: float, cfg: LatticeConfig) -> complex:
    """Recover the sideband frequency Omega_p = Lambda + 2k sin(hQ) sin(hq)."""
    return lam + 2.0 * cfg.k * math.sin(cfg.h * Q) * math.sin(cfg.h * q)


@dataclass(frozen=True, eq=False)
class MIScan:
    """Sideband growth map of one carrier over the admissible wavenumbers."""

    K: int
    q: float
    Qs: np.ndarray
    growth: np.ndarray
    unstable_band: frozenset[int]
    carrier_unstable: bool


def mi_scan(K: int, cfg: LatticeConfig, A_star: float, delta: float) -> MIScan:
    """Growth rates max Im(Lambda_+-) at Q = M*pi/L for integer M in [0, N/2].

    ``A_star`` and ``delta`` must be the lattice's own critical amplitude and
    loss.  The carrier verdict is unstable iff cos(hq) > 0 and the band of
    growing sidebands is nonempty.
    """
    if A_star != critical_amplitude(cfg.gamma, cfg.delta) or delta != cfg.delta:
        raise DomainError(f"A_star = {A_star} and delta = {delta} are not the lattice's own")
    K = _validate_mode(K, cfg.N)
    q = K * math.pi / cfg.L
    Ms = np.arange(0, cfg.N // 2 + 1)
    Qs = Ms * math.pi / cfg.L
    lam_p, lam_m = mi_roots(q, Qs, cfg)
    growth = np.maximum(lam_p.imag, lam_m.imag)
    band = frozenset(int(m) for m, g in zip(Ms, growth) if g > BAND_GROWTH_EPS)
    carrier_unstable = math.cos(cfg.h * q) > 0.0 and bool(band)
    return MIScan(K=K, q=q, Qs=Qs, growth=growth,
                  unstable_band=band, carrier_unstable=carrier_unstable)


@dataclass(frozen=True)
class GrowthFit:
    """Result of fitting the sideband growth rate from a direct simulation."""

    rate: float
    grew: bool


def mi_growth_oracle(
    K: int,
    M: int,
    cfg: LatticeConfig,
    gamma: float,
    delta: float,
) -> GrowthFit:
    """Measure a sideband growth rate by integrating the full lattice.

    Starts from u_n(0) = (A_* + eps*cos(Q x_n)) exp(i q x_n), eps = GROWTH_EPS,
    demodulates by the carrier, and fits the exponential growth of the mode-M
    amplitude |A_M|/(hN), sampled every 0.25, over the linear window
    [10*eps, 1e-3].  The horizon is the time the predicted growth takes to
    cross the window, with headroom, or 10 for a stable sideband.  Stable
    sidebands never enter the window and report rate 0 with grew=False.  The
    run uses the 8th-order DOP853 pair: at rtol 1e-9 its steps are limited by
    accuracy, so the higher order takes fewer right-hand-side evaluations.
    """
    if (gamma, delta) != (cfg.gamma, cfg.delta):
        raise DomainError(f"gamma = {gamma} and delta = {delta} are not the lattice's own")
    K = _validate_mode(K, cfg.N)
    M = _validate_mode(M, cfg.N)
    a_star = critical_amplitude(gamma, delta)
    grid = node_grid(cfg)
    q = K * math.pi / cfg.L
    Q = M * math.pi / cfg.L
    carrier = np.exp(1j * q * grid.x)
    ic = ComplexState((a_star + GROWTH_EPS * np.cos(Q * grid.x)) * carrier, t=0.0)

    lam_p, lam_m = mi_roots(q, Q, cfg)
    predicted = float(max(lam_p.imag, lam_m.imag))
    if predicted > 0:
        # time to traverse [eps/2, 1e-3] plus headroom
        t_end = 1.3 * math.log(GROWTH_WINDOW_HIGH / (0.5 * GROWTH_EPS)) / predicted + 2.0
    else:
        t_end = 10.0

    spec = IntegratorSpec(t_end=t_end, method=Method.DOP853,
                          dt=1e-3, rtol=1e-9, atol=1e-12, sample_every=0.25)
    traj = integrate(System.DNLS, ic, cfg, spec)

    coeff = np.abs(np.fft.fft(traj.values * np.conj(carrier), axis=1)[:, M]) / cfg.N
    low = GROWTH_WINDOW_LOW_FACTOR * GROWTH_EPS
    if coeff.max() < low:
        return GrowthFit(rate=0.0, grew=False)
    above_high = np.nonzero(coeff > GROWTH_WINDOW_HIGH)[0]
    stop = above_high[0] if above_high.size else coeff.size
    mask = (coeff[:stop] >= low)
    if mask.sum() < 3:
        raise NoLinearWindow(
            f"only {int(mask.sum())} samples in the linear window: the sideband "
            "grows too fast to fit at the sampling interval 0.25"
        )
    ts = traj.times[:stop][mask]
    slope = np.polyfit(ts, np.log(coeff[:stop][mask]), 1)[0]
    return GrowthFit(rate=float(slope), grew=True)


# ---------------------------------------------------------------------------
# Spectrum diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectrumFrame:
    """Discrete Fourier coefficients A_K = h * sum_n u_n e^{-2 pi i K n / N}."""

    t: float
    coeffs: np.ndarray
    dominant_mode: int


def spectrum(state: ComplexState, cfg: LatticeConfig) -> SpectrumFrame:
    """N-point DFT of a state; dominant mode ties break toward smaller K."""
    check_length(state.values, cfg)
    coeffs = cfg.h * np.fft.fft(state.values)
    return SpectrumFrame(t=state.t, coeffs=coeffs,
                         dominant_mode=int(np.argmax(np.abs(coeffs))))


def reconstruct_state(frame: SpectrumFrame, cfg: LatticeConfig) -> ComplexState:
    """Invert ``spectrum``; round-trips to the original state."""
    return ComplexState(np.fft.ifft(frame.coeffs) / cfg.h, t=frame.t)


def fold_mode(mode: int, N: int) -> int:
    """Map a DFT index in [0, N) to its wavenumber magnitude index in [0, N/2]."""
    return min(mode % N, N - (mode % N))


# ---------------------------------------------------------------------------
# Attractor verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttractorVerdict:
    converged: bool
    final_mode: int
    in_stable_band: bool


def attractor_verdict(
    traj: Trajectory,
    cfg: LatticeConfig,
    A_star: float,
    tol_amp: float = ATTRACTOR_TOL,
    t_window: float = 5.0,
) -> AttractorVerdict:
    """Judge convergence to the constant-amplitude plane-wave orbit.

    Converged iff, over the final ``t_window`` of the run, both
    |P_a - A_*^2| and the per-node modulus variance stay below ``tol_amp``.
    The final mode is the dominant DFT index of the last state; band
    membership is decided for its folded wavenumber.
    """
    t0, t1 = traj.times[0], traj.times[-1]
    if t1 - t0 < t_window:
        raise WindowTooShort(
            f"trajectory spans {t1 - t0:g}, shorter than the window {t_window:g}"
        )
    in_window = traj.times >= t1 - t_window
    p = traj.diagnostics["P_a"][in_window]
    amp_ok = bool(np.max(np.abs(p - A_star * A_star)) < tol_amp)
    var_ok = not np.any(np.var(np.abs(traj.values[in_window]), axis=1) >= tol_amp)
    final_mode = spectrum(traj.states[-1], cfg).dominant_mode
    scan = mi_scan(fold_mode(final_mode, cfg.N), cfg, A_star, cfg.delta)
    return AttractorVerdict(
        converged=amp_ok and var_ok,
        final_mode=final_mode,
        in_stable_band=not scan.unstable_band,
    )
