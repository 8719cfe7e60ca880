"""Lattice domain types, right-hand sides, and algebraic gates.

Three coupled-mode lattice systems share one geometry: N nodes placed at
x_n = -L + n*h, n = 0..N-1, with spacing h = 2L/N and coupling k = 1/h^2.

* ``dnls_rhs``    - cubic Schrodinger lattice with linear gain ``gamma`` and
                    nonlinear loss ``delta``, periodic closure:
                    i du/dt + k(u_{n+1} - 2u_n + u_{n-1}) + |u_n|^2 u_n
                        = i*gamma*u_n + i*delta*|u_n|^2 u_n
* ``al_rhs``      - the integrable Ablowitz-Ladik lattice, whose cubic term
                    couples neighbors:  i dphi/dt + k*Delta_d phi
                        + |phi_n|^2 (phi_{n-1} + phi_{n+1}) = 0
* ``shifted_rhs`` - the background-shifted system for U_n = u_n e^{-iA^2 t} - A,
                    integrated under zero Dirichlet closure.  Its constant
                    forcing i(gamma*A + delta*A^3) vanishes exactly at the
                    critical background A = sqrt(-gamma/delta), which is the
                    algebraic gate tested by ``solvability_gate``.

States are value-semantic; every operation here is a pure function of its
inputs, so parameter sweeps can evaluate them concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, DomainError, LengthMismatch, WavenumberError

__all__ = [
    "BoundaryKind",
    "System",
    "LatticeConfig",
    "ComplexState",
    "NodeGrid",
    "GeneralizedBCSpec",
    "PlaneWaveIC",
    "AlgebraicBumpIC",
    "SechBumpIC",
    "node_grid",
    "central_node_index",
    "lattice_norm",
    "al_invariant",
    "GATE_TOL",
    "critical_amplitude",
    "solvability_gate",
    "generalized_gate",
    "discrete_laplacian",
    "check_system",
    "check_length",
    "dnls_rhs",
    "al_rhs",
    "shifted_rhs",
    "make_initial_condition",
    "sech",
]

# Tolerance of the solvability gates, and of the gate record of each run.
GATE_TOL = 1e-9
# Overflow guard for sech tails: exp(700) is near the float64 ceiling and
# the profile has underflowed to 0 well before that.
_SECH_CLAMP = 700.0


class BoundaryKind(Enum):
    PERIODIC = "periodic"
    DIRICHLET_ZERO = "dirichlet_zero"


@dataclass(frozen=True)
class LatticeConfig:
    """Geometry, coupling, and gain/loss parameters shared by all systems.

    The spacing ``h = 2L/N`` and the coupling ``k = 1/h^2`` are derived from
    ``L`` and ``N``; they are not settable.
    """

    L: float
    N: int
    gamma: float
    delta: float
    bc: BoundaryKind = BoundaryKind.PERIODIC
    h: float = field(init=False)
    k: float = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
            raise ConfigError(f"N must be an integer, got {self.N!r}")
        if self.N < 4:
            raise ConfigError(f"N must be at least 4, got {self.N}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ConfigError(f"L must be positive and finite, got {self.L}")
        for name in ("gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not isinstance(self.bc, BoundaryKind):
            raise ConfigError(f"bc must be a BoundaryKind, got {self.bc!r}")
        h = 2.0 * self.L / self.N
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", 1.0 / (h * h))


@dataclass(eq=False)
class ComplexState:
    """Length-N complex lattice state at one time stamp."""

    values: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1:
            raise DomainError(f"state must be one-dimensional, got shape {v.shape}")
        if v.size == 0:
            raise DomainError("state must contain at least one node")
        if not np.all(np.isfinite(v)):
            raise DomainError("state contains NaN or Inf entries")
        if not math.isfinite(self.t):
            raise DomainError(f"time stamp must be finite, got {self.t}")
        self.values = v

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class NodeGrid:
    """Node coordinates x_n = -L + n*h, n = 0..N-1."""

    x: np.ndarray


def node_grid(cfg: LatticeConfig) -> NodeGrid:
    return NodeGrid(x=-cfg.L + cfg.h * np.arange(cfg.N))


def central_node_index(cfg: LatticeConfig) -> int:
    """Index of the node at x = 0 (requires even N)."""
    if cfg.N % 2 != 0:
        raise ConfigError("central node tracking requires an even node count")
    return cfg.N // 2


def lattice_norm(values: np.ndarray, cfg: LatticeConfig) -> float:
    """Spacing-weighted l2 norm, (h * sum |v_n|^2)^(1/2)."""
    return math.sqrt(cfg.h) * float(np.linalg.norm(values))


def al_invariant(state, cfg: LatticeConfig) -> float | np.ndarray:
    """Conserved quantity h * sum ln(1 + |phi_n|^2) of the integrable lattice,
    of a state or per sample of ``timestep.States`` (over the last axis)."""
    v = state.values
    return cfg.h * np.sum(np.log1p(v.real**2 + v.imag**2), axis=-1)


# ---------------------------------------------------------------------------
# Algebraic gates
# ---------------------------------------------------------------------------

def critical_amplitude(gamma: float, delta: float) -> float:
    """Background amplitude sqrt(-gamma/delta) at which gain and loss balance.

    This is the only background amplitude for which the shifted system's
    constant forcing vanishes, hence the only one admitting localized
    solutions on an infinite lattice.
    """
    if not (gamma > 0.0):
        raise DomainError(f"linear gain required: gamma must be > 0, got {gamma}")
    if not (delta < 0.0):
        raise DomainError(f"nonlinear loss required: delta must be < 0, got {delta}")
    return math.sqrt(-gamma / delta)


def solvability_gate(A: float, gamma: float, delta: float) -> bool:
    """True iff the background A sits at the critical amplitude within GATE_TOL.

    The scenario runner uses this verdict to label runs "infinite-lattice
    relevant" (gate passes) versus "finite-lattice only".
    """
    return abs(A - critical_amplitude(gamma, delta)) <= GATE_TOL


@dataclass(frozen=True)
class GeneralizedBCSpec:
    """Two-sided boundary values zeta_-, zeta_+ of common modulus zeta,
    rotating at frequency G^2."""

    zeta_minus: complex
    zeta_plus: complex
    G: float

    def __post_init__(self) -> None:
        if abs(abs(self.zeta_plus) - self.zeta) > 1e-12 * max(self.zeta, 1.0):
            raise DomainError("|zeta_plus| must equal |zeta_minus| within 1e-12")

    @property
    def zeta(self) -> float:
        """The common modulus of the boundary values."""
        return abs(self.zeta_minus)


def generalized_gate(spec: GeneralizedBCSpec, gamma: float, delta: float) -> bool:
    """Solvability gate for step-like boundary values: G^2 == zeta^2 and
    zeta == critical amplitude, both within GATE_TOL."""
    a_star = critical_amplitude(gamma, delta)
    return abs(spec.G**2 - spec.zeta**2) <= GATE_TOL and abs(spec.zeta - a_star) <= GATE_TOL


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

class System(Enum):
    """The three lattice systems, named as in scenario files."""
    DNLS = "dnls"
    AL = "al"
    SHIFTED = "shifted"


_CLOSURES = {System.DNLS: BoundaryKind.PERIODIC, System.AL: BoundaryKind.PERIODIC,
             System.SHIFTED: BoundaryKind.DIRICHLET_ZERO}


def check_system(system: System, cfg: LatticeConfig, values: np.ndarray | None = None,
                 background: float | None = None) -> None:
    """The one rule of what each system runs on: ``cfg`` has its closure, the
    shifted system has a finite nonnegative ``background`` amplitude (the
    others ignore it), and ``values``, when given, has one entry per node."""
    if cfg.bc is not _CLOSURES[system]:
        raise ConfigError(f"the {system.value} system runs under {_CLOSURES[system].value} "
                          f"closure only, got {cfg.bc.value}")
    if system is System.SHIFTED:
        if background is None:
            raise ConfigError("the shifted system runs only as integrate(..., background=A)")
        if not (math.isfinite(background) and background >= 0):
            raise DomainError(
                f"background amplitude must be finite and nonnegative, got {background}")
    if values is not None:
        check_length(values, cfg)


def check_length(values: np.ndarray, cfg: LatticeConfig) -> None:
    """The one rule of state length: one entry per lattice node."""
    if values.size != cfg.N:
        raise LengthMismatch(f"state has {values.size} nodes, lattice expects {cfg.N}")


def _neighbor_sum(u: np.ndarray, bc: BoundaryKind, out: np.ndarray | None = None) -> np.ndarray:
    """u_{n+1} + u_{n-1} with the configured boundary closure."""
    s = np.empty_like(u) if out is None else out
    np.add(u[2:], u[:-2], s[1:-1])
    if bc is BoundaryKind.PERIODIC:
        s[0] = u[1] + u[-1]
        s[-1] = u[0] + u[-2]
    else:  # out-of-range neighbors are zero
        s[0] = u[1]
        s[-1] = u[-2]
    return s


# The *_rhs_values kernels are the integrator's hot path: each is one
# neighbour sum plus one complex coefficient array, and none checks its
# input: the public wrappers below apply ``check_system`` on every call,
# ``timestep.integrate`` once per run and ``scenarios.ScenarioSpec`` at load.
#
# A kernel writes its result into ``out``, which must not overlap the input,
# and keeps its temporaries in ``work`` (from ``_rhs_workspace``); both are
# allocated when not given.  Each ufunc repeats one operation of the
# kernel's expression written with temporaries (kept in tests/test_core.py
# as the oracle), with the same operands in the same order, so the result is
# the same bits: a chaotic run amplifies any last-bit change.  ``out`` is
# passed positionally, which numpy parses faster than the keyword.

def _rhs_workspace(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scratch of the kernels on an n-node lattice: two complex, two real arrays."""
    return (np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128),
            np.empty(n), np.empty(n))


def dnls_rhs_values(u: np.ndarray, cfg: LatticeConfig, out=None, work=None) -> np.ndarray:
    """((delta + i)|u|^2 + gamma - 2ik) u + ik (u_{n+1} + u_{n-1})."""
    coef, _, dens, sq = _rhs_workspace(u.size) if work is None else work
    if out is None:
        out = np.empty_like(coef)
    np.add(np.square(u.real, dens), np.square(u.imag, sq), dens)
    np.multiply(cfg.delta + 1j, dens, coef)
    np.add(coef, cfg.gamma - 2j * cfg.k, coef)
    np.multiply(coef, u, coef)
    np.multiply(1j * cfg.k, _neighbor_sum(u, cfg.bc, out), out)
    return np.add(coef, out, out)


def al_rhs_values(phi: np.ndarray, cfg: LatticeConfig, out=None, work=None) -> np.ndarray:
    """i(k + |phi|^2)(phi_{n+1} + phi_{n-1}) - 2ik phi."""
    coef, _, dens, sq = _rhs_workspace(phi.size) if work is None else work
    if out is None:
        out = np.empty_like(coef)
    np.add(np.square(phi.real, dens), np.square(phi.imag, sq), dens)
    np.multiply(1j, np.add(cfg.k, dens, dens), coef)
    np.multiply(coef, _neighbor_sum(phi, cfg.bc, out), coef)
    np.multiply(2j * cfg.k, phi, out)
    return np.subtract(coef, out, out)


def shifted_rhs_values(
    U: np.ndarray, cfg: LatticeConfig, A: float, out=None, work=None
) -> np.ndarray:
    """((delta + i)|w|^2 + gamma - iA^2) w + ik(U_{n+1} - 2U_n + U_{n-1}), w = U + A.

    The +i|w|^2 and -iA^2 terms share the coefficient's imaginary part, so
    they cancel exactly at U == 0.
    """
    coef, w, dens, sq = _rhs_workspace(U.size) if work is None else work
    if out is None:
        out = np.empty_like(coef)
    np.add(U, A, w)
    np.add(np.square(w.real, dens), np.square(w.imag, sq), dens)
    np.multiply(cfg.delta + 1j, dens, coef)
    np.add(coef, cfg.gamma - 1j * A * A, coef)
    np.multiply(coef, w, coef)
    np.subtract(_neighbor_sum(U, cfg.bc, out), np.multiply(2.0, U, w), out)
    np.multiply(1j * cfg.k, out, out)
    return np.add(coef, out, out)


def discrete_laplacian(state: ComplexState, cfg: LatticeConfig) -> ComplexState:
    """k(u_{n+1} - 2u_n + u_{n-1}) per node; linear in its input."""
    u = state.values
    check_length(u, cfg)
    return ComplexState(cfg.k * (_neighbor_sum(u, cfg.bc) - 2.0 * u), t=state.t)


def dnls_rhs(state: ComplexState, cfg: LatticeConfig) -> ComplexState:
    """du_n/dt = i[lap(u) + |u_n|^2 u_n] + gamma*u_n + delta*|u_n|^2 u_n."""
    check_system(System.DNLS, cfg, state.values)
    return ComplexState(dnls_rhs_values(state.values, cfg), t=state.t)


def al_rhs(state: ComplexState, cfg: LatticeConfig) -> ComplexState:
    """dphi_n/dt = i[k(phi_{n+1} - 2phi_n + phi_{n-1}) + |phi_n|^2(phi_{n-1} + phi_{n+1})]."""
    check_system(System.AL, cfg, state.values)
    return ComplexState(al_rhs_values(state.values, cfg), t=state.t)


def shifted_rhs(state: ComplexState, cfg: LatticeConfig, A: float) -> ComplexState:
    """Time derivative of the background-shifted field U_n.

    The original field is recovered as u_n = (U_n + A) exp(iA^2 t).  At
    U == 0 the derivative equals gamma*A + delta*A^3 per node, the
    computational witness of the solvability obstruction when A is off
    the critical amplitude.
    """
    check_system(System.SHIFTED, cfg, state.values, A)
    return ComplexState(shifted_rhs_values(state.values, cfg, A), t=state.t)


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneWaveIC:
    """(amplitude + perturbation) * exp(i * mode * pi * x_n / L)."""

    amplitude: float
    perturbation: float
    mode: int


@dataclass(frozen=True)
class AlgebraicBumpIC:
    """background + lam1 / (lam2 + lam3 * x^2), quadratically decaying."""

    background: float
    lam1: float
    lam2: float
    lam3: float


@dataclass(frozen=True)
class SechBumpIC:
    """background + sigma * sech(rho * x), exponentially decaying."""

    background: float
    sigma: float
    rho: float


InitialCondition = PlaneWaveIC | AlgebraicBumpIC | SechBumpIC


def sech(x: np.ndarray | float) -> np.ndarray | float:
    """2 / (e^x + e^-x) with argument clamping; underflows to 0 for |x| > 700."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.minimum(np.abs(x), _SECH_CLAMP)
    out = np.where(np.abs(x) > _SECH_CLAMP, 0.0, 2.0 / (np.exp(ax) + np.exp(-ax)))
    return out if out.ndim else float(out)


def _validate_mode(mode: int, N: int) -> int:
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
        if isinstance(mode, float) and mode.is_integer():
            mode = int(mode)
        else:
            raise WavenumberError(f"mode index must be an integer, got {mode!r}")
    if not (0 <= mode <= N / 2):
        raise WavenumberError(f"mode index must lie in [0, N/2] = [0, {N / 2:g}], got {mode}")
    return int(mode)


def make_initial_condition(ic: InitialCondition, cfg: LatticeConfig) -> ComplexState:
    """Evaluate an initial-condition descriptor on the lattice grid at t = 0."""
    x = node_grid(cfg).x
    if isinstance(ic, PlaneWaveIC):
        mode = _validate_mode(ic.mode, cfg.N)
        q = mode * math.pi / cfg.L
        values = (ic.amplitude + ic.perturbation) * np.exp(1j * q * x)
    elif isinstance(ic, AlgebraicBumpIC):
        if ic.lam2 <= 0:
            raise DomainError(f"lam2 must be positive, got {ic.lam2}")
        if ic.lam3 < 0:
            raise DomainError(f"lam3 must be nonnegative, got {ic.lam3}")
        values = (ic.background + ic.lam1 / (ic.lam2 + ic.lam3 * x * x)).astype(np.complex128)
    elif isinstance(ic, SechBumpIC):
        if ic.rho <= 0:
            raise DomainError(f"rho must be positive, got {ic.rho}")
        values = (ic.background + ic.sigma * sech(ic.rho * x)).astype(np.complex128)
    else:
        raise ConfigError(f"unknown initial-condition kind: {ic!r}")
    return ComplexState(values, t=0.0)
