"""Ablowitz-Ladik comparisons: Peregrine profile, invariant, distance bounds.

The integrable lattice conserves  N_inv = h * sum ln(1 + |phi_n|^2)  under
periodic closure, which yields the uniform bound
    ||phi(t)||^2 <= h e^{N_inv(0)/h} - h.
Together with the closed-form power bound for the gain/loss lattice this
gives two a-priori envelopes for the distance ||u(t) - phi(t)|| between
paired runs started from the same initial condition: a tight integral
form (estimate I, valid while the gain/loss run starts below the critical
power, integrated by fixed Gauss-Legendre panels) and an explicitly
linear-in-time form (estimate II).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ComplexState, LatticeConfig, NodeGrid, al_invariant, critical_amplitude,
                   lattice_norm, node_grid)
from .errors import ConfigError, DomainError, GridMismatch, HypothesisViolated
from .timestep import Trajectory, _power_envelope

__all__ = [
    "DpsParams",
    "ProximityReport",
    "SmallnessCheck",
    "dps_eval",
    "window_nodes",
    "al_invariant",
    "al_norm_bound",
    "distance_curves",
    "estimate_II_rate",
    "estimate_I_curve",
    "smallness_condition",
    "build_proximity_report",
]

# exp() overflow guard on a bound's whole exponent (1.5 times that of e^{N0/h}
# in the 3/2-power tails); beyond this the bounds are reported as inf.
_EXP_CLAMP = 700.0
# The window of the windowed distance D_a_r.
_DEFAULT_WINDOW = (-10.0, 10.0)


@dataclass(frozen=True)
class DpsParams:
    """Background amplitude q and peak time t0 of the rational rogue profile."""

    q: float
    t0: float

    def __post_init__(self) -> None:
        if not (self.q > 0):
            raise DomainError(f"background amplitude q must be positive, got {self.q}")

    def peak_density(self) -> float:
        """Density at the spacetime peak (x, t) = (0, t0): q^2 (3 + 4 q^2)^2."""
        return self.q**2 * (3.0 + 4.0 * self.q**2) ** 2


def dps_eval(grid: NodeGrid, t: float, params: DpsParams) -> ComplexState:
    """Rational rogue-wave solution of the integrable lattice at unit coupling.

        phi(x, t) = q (1 - 4(1+q^2)(1 + 4i q^2 (t-t0))
                        / (1 + 4 x^2 q^2 + 16 q^4 (1+q^2)(t-t0)^2)) e^{2i q^2 (t-t0)}

    Localized in both space and time on the background q; requires unit
    lattice spacing (the closed form holds for k = 1).
    """
    x = grid.x
    if x.size >= 2 and abs(x[1] - x[0] - 1.0) > 1e-12:
        raise ConfigError("the rational rogue profile requires unit spacing (h = 1, k = 1)")
    q = params.q
    tau = t - params.t0
    q2 = q * q
    numer = 4.0 * (1.0 + q2) * (1.0 + 4j * q2 * tau)
    denom = 1.0 + 4.0 * q2 * x * x + 16.0 * q2 * q2 * (1.0 + q2) * tau * tau
    values = q * (1.0 - numer / denom) * np.exp(2j * q2 * tau)
    return ComplexState(values, t=t)


def al_norm_bound(N0: float, cfg: LatticeConfig) -> float:
    """Uniform-in-time bound h e^{N0/h} - h on the squared lattice norm.

    Tight for a single excited node, astronomically loose for extended
    states; inf is returned when the exponent would overflow.
    """
    if N0 < 0:
        raise DomainError(f"the invariant is nonnegative, got {N0}")
    expo = N0 / cfg.h
    if expo > _EXP_CLAMP:
        return math.inf
    return cfg.h * math.expm1(expo)


# ---------------------------------------------------------------------------
# Distance curves and analytic envelopes
# ---------------------------------------------------------------------------

def window_nodes(cfg: LatticeConfig) -> slice:
    """The nodes of the window ``_DEFAULT_WINDOW``, a run of adjacent nodes."""
    x = node_grid(cfg).x
    inside = np.flatnonzero((x >= _DEFAULT_WINDOW[0]) & (x <= _DEFAULT_WINDOW[1]))
    if inside.size == 0:
        raise DomainError(f"no lattice nodes fall in the window {_DEFAULT_WINDOW}")
    return slice(int(inside[0]), int(inside[-1]) + 1)


def distance_curves(
    traj_u: Trajectory, traj_phi: Trajectory, cfg: LatticeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Averaged distances between paired runs on identical sampling grids.

    Returns (times, D_a, D_a_r, N_r):
      D_a(t)   = ||u - phi|| / sqrt(N h)               (all nodes)
      D_a_r(t) = (h sum_{x in window} |u-phi|^2)^(1/2) / sqrt(h N_r)
    with the N_r nodes of the window ``_DEFAULT_WINDOW``.
    """
    if not np.array_equal(traj_u.times, traj_phi.times):
        raise GridMismatch("paired trajectories must share the sampling grid")
    if traj_u.values.shape[1] != cfg.N or traj_phi.values.shape[1] != cfg.N:
        raise GridMismatch("paired trajectories must live on the configured lattice")
    window = window_nodes(cfg)
    n_r = window.stop - window.start

    u, phi = traj_u.values, traj_phi.values
    dens = (u.real - phi.real) ** 2 + (u.imag - phi.imag) ** 2  # no complex difference kept
    # Summing a slice of each row adds in the same order as summing that row
    # alone; a masked copy may not.
    d_a = np.sqrt(dens.sum(axis=1) / cfg.N)
    d_a_r = np.sqrt(dens[:, window].sum(axis=1) / n_r)
    return traj_u.times.copy(), d_a, d_a_r, n_r


def _al_tail(N0: float, cfg: LatticeConfig) -> float:
    """Distance growth rate owed to the integrable lattice's cubic term.

    In the lattice norm ||v||_inf^2 <= ||v||^2 / h, so the term is at most
    2 ||phi||_inf^2 ||phi|| <= 2 ||phi||^3 / h = 2 sqrt(h) (e^{N0/h} - 1)^(3/2)
    with ||phi||^2 at ``al_norm_bound``.  The same step bounds the gain/loss
    lattice's cubic term by (delta^2+1)^(1/2) ||u||^3 / h.
    """
    if 1.5 * N0 / cfg.h > _EXP_CLAMP:
        return math.inf
    return 2.0 * al_norm_bound(N0, cfg) ** 1.5 / cfg.h


def estimate_II_rate(cfg: LatticeConfig, N0: float) -> float:
    """Linear growth rate of the explicit distance envelope:

        alpha = gamma A_* sqrt(Nh) + sqrt(delta^2+1) sqrt(h) A_*^3 N^(3/2)
                + 2 sqrt(h) (e^{N0/h} - 1)^(3/2),
    the bounds of ``_al_tail`` with ||u|| <= A_* sqrt(Nh), where gamma, delta
    and A_* = sqrt(-gamma/delta) are the lattice's own.
    """
    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    return (
        cfg.gamma * a_star * math.sqrt(cfg.N * cfg.h)
        + math.sqrt(cfg.delta * cfg.delta + 1.0) * math.sqrt(cfg.h) * a_star**3 * cfg.N**1.5
        + _al_tail(N0, cfg)
    )


def estimate_I_curve(
    cfg: LatticeConfig,
    u0_norm_sq: float,
    N0: float,
    times: np.ndarray,
    initial_distance: float = 0.0,
) -> np.ndarray:
    """Quadrature form of the distance envelope:

        F(t) = ||u(0)-phi(0)|| + gamma F1(t) + sqrt(delta^2+1) F2(t) / h
               + 2 sqrt(h) (e^{N0/h} - 1)^(3/2) t,
        F1 = int sqrt(B),  F2 = int B^(3/2),

    the bounds of ``_al_tail`` with ||u(s)||^2 <= B(s), where gamma and delta
    are the lattice's own and B tends to A_*^2 N h, A_* = sqrt(-gamma/delta).
    It is valid under the hypothesis nu*gamma > beta, i.e. the gain/loss run
    must start from a nonzero state below the critical averaged power A_*^2.

    F1 and F2 are integrated from 0 by a composite 12-node Gauss-Legendre
    rule and accumulated with one cumulative sum.  The poles of
    B(s) = gamma / (beta + (nu gamma - beta) e^{-2 gamma s}) lie at
    Im s = +-pi/(2 gamma), so on a panel at most 1/gamma long they sit at
    least pi half-widths off the real axis; the rule then converges like
    (pi + sqrt(pi^2 + 1))^{-24} ~ 4e-20, below round-off.  Panels end at every
    sample time and at the multiples of 1/gamma below the time s_flat at which
    B is within a relative e^-42 of its limit gamma/beta; past the last of
    those breaks it is within e^-40, so a panel there is exact however long.
    """
    gamma, delta = cfg.gamma, cfg.delta
    critical_amplitude(gamma, delta)  # DomainError without gain and loss
    if not (u0_norm_sq > 0):
        raise HypothesisViolated("estimate I needs a gain/loss run from a nonzero state")
    tail_coeff = _al_tail(N0, cfg)
    B, nu, beta = _power_envelope(cfg, u0_norm_sq)
    if nu * gamma <= beta:
        raise HypothesisViolated(
            "estimate I needs nu*gamma > beta, i.e. averaged power of u(0) "
            "below the critical power"
        )
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        return np.empty(0)
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise DomainError("times must be nonnegative and nondecreasing")

    s_flat = max(0.0, math.log((nu * gamma - beta) / beta) + 42.0) / (2.0 * gamma)
    breaks = np.arange(1.0, math.ceil(gamma * min(times[-1], s_flat))) / gamma
    edges = np.sort(np.concatenate(([0.0], breaks, times)))
    half = 0.5 * np.diff(edges)
    # numpy.polynomial is loaded here, not at import: runs without estimate I skip it
    nodes, weights = np.polynomial.legendre.leggauss(12)
    b = B((edges[:-1] + half)[:, None] + half[:, None] * nodes)
    root = np.sqrt(b)
    f1 = np.concatenate(([0.0], np.cumsum(half * (root @ weights))))
    f2 = np.concatenate(([0.0], np.cumsum(half * ((root * b) @ weights))))
    at = np.searchsorted(edges, times)

    # only where t > 0: an infinite coefficient times t = 0 would be nan
    tail = np.multiply(tail_coeff, times, out=np.zeros_like(times), where=times > 0)
    return (initial_distance + gamma * f1[at]
            + math.sqrt(delta * delta + 1.0) * f2[at] / cfg.h + tail)


@dataclass(frozen=True)
class SmallnessCheck:
    """Literal evaluation of gamma^3 < min(-delta/(Nh), -delta^3/((delta^2+1) h N^3))."""

    ok: bool
    lhs: float
    rhs: float


def smallness_condition(cfg: LatticeConfig) -> SmallnessCheck:
    """Check the gain-strength smallness requirement behind a moderate
    linear distance growth; both sides are surfaced alongside the verdict."""
    critical_amplitude(cfg.gamma, cfg.delta)  # DomainError without gain and loss
    lhs = cfg.gamma**3
    rhs = min(
        -cfg.delta / (cfg.N * cfg.h),
        -(cfg.delta**3) / ((cfg.delta * cfg.delta + 1.0) * cfg.h * cfg.N**3),
    )
    return SmallnessCheck(ok=lhs < rhs, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ProximityReport:
    """Distance curves of a paired run with their analytic envelopes.

    Curves are spatially averaged (per-node scale); the envelopes are the
    corresponding norms divided by sqrt(Nh).  ``bound_I`` is None when the
    quadrature estimate's hypothesis fails for the initial data.
    """

    times: np.ndarray
    D_a: np.ndarray
    D_a_r: np.ndarray
    bound_I: np.ndarray | None
    bound_II: np.ndarray
    alpha: float
    N0: float
    smallness: SmallnessCheck


def build_proximity_report(
    traj_u: Trajectory, traj_phi: Trajectory, cfg: LatticeConfig
) -> ProximityReport:
    """Assemble distances and both envelopes for a paired (gain/loss, AL) run."""
    times, d_a, d_a_r, _ = distance_curves(traj_u, traj_phi, cfg)
    n0 = al_invariant(traj_phi.states[0], cfg)
    u0 = traj_u.values[0]
    initial_distance = lattice_norm(u0 - traj_phi.values[0], cfg)
    u0_norm_sq = lattice_norm(u0, cfg) ** 2
    scale = math.sqrt(cfg.N * cfg.h)

    alpha = estimate_II_rate(cfg, n0)
    rel_times = times - times[0]
    bound_ii = (initial_distance + alpha * rel_times) / scale
    try:
        bound_i = estimate_I_curve(cfg, u0_norm_sq, n0, rel_times, initial_distance) / scale
    except HypothesisViolated:
        bound_i = None
    return ProximityReport(
        times=times,
        D_a=d_a,
        D_a_r=d_a_r,
        bound_I=bound_i,
        bound_II=bound_ii,
        alpha=alpha,
        N0=n0,
        smallness=smallness_condition(cfg),
    )
