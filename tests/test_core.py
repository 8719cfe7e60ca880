"""Unit tests for the lattice domain types, gates, and right-hand sides."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dnlslab.core import (
    AlgebraicBumpIC,
    BoundaryKind,
    ComplexState,
    GeneralizedBCSpec,
    LatticeConfig,
    PlaneWaveIC,
    SechBumpIC,
    al_rhs,
    al_rhs_values,
    central_node_index,
    critical_amplitude,
    discrete_laplacian,
    dnls_rhs,
    dnls_rhs_values,
    generalized_gate,
    lattice_norm,
    make_initial_condition,
    node_grid,
    sech,
    shifted_rhs,
    shifted_rhs_values,
    solvability_gate,
)
from dnlslab.errors import (
    ConfigError,
    DomainError,
    LengthMismatch,
    WavenumberError,
)
from dnlslab.core import _rhs_workspace


@pytest.fixture
def cfg100():
    return LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)


@pytest.fixture
def cfg100_dirichlet():
    return LatticeConfig(L=50.0, N=100, gamma=0.0025, delta=-0.01,
                         bc=BoundaryKind.DIRICHLET_ZERO)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class TestLatticeConfig:
    def test_derived_spacing_and_coupling(self, cfg100):
        assert cfg100.h == 1.0
        assert cfg100.k == 1.0
        assert cfg100.h * cfg100.N == 2.0 * cfg100.L

    def test_replace_rederives_spacing_and_coupling(self, cfg100):
        finer = replace(cfg100, N=200)
        assert finer.h == 0.5
        assert finer.k == 4.0

    def test_spacing_and_coupling_are_not_settable(self):
        for derived in ("h", "k"):
            with pytest.raises(TypeError):
                LatticeConfig(L=50.0, N=100, gamma=1.0, delta=-1.0, **{derived: 1.0})

    def test_minimum_node_count(self):
        with pytest.raises(ConfigError):
            LatticeConfig(L=1.0, N=3, gamma=1.0, delta=-1.0)

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(ConfigError):
            LatticeConfig(L=50.0, N=100, gamma=math.nan, delta=-1.0)


class TestComplexState:
    def test_rejects_nan(self):
        v = np.ones(8, dtype=complex)
        v[3] = np.nan
        with pytest.raises(DomainError):
            ComplexState(v)

    def test_rejects_inf(self):
        v = np.ones(8, dtype=complex)
        v[0] = np.inf
        with pytest.raises(DomainError):
            ComplexState(v)

    def test_rejects_non_1d(self):
        with pytest.raises(DomainError):
            ComplexState(np.ones((2, 4), dtype=complex))

    def test_coerces_real_input(self):
        st = ComplexState(np.ones(4))
        assert st.values.dtype == np.complex128
        assert len(st) == 4


def test_node_grid_invariants(cfg100):
    x = node_grid(cfg100).x
    assert x[0] == -cfg100.L
    assert np.allclose(np.diff(x), cfg100.h)
    assert x.size == cfg100.N


def test_central_node_index(cfg100):
    idx = central_node_index(cfg100)
    assert node_grid(cfg100).x[idx] == 0.0
    with pytest.raises(ConfigError):
        central_node_index(LatticeConfig(L=2.5, N=5, gamma=1.0, delta=-1.0))


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

class TestCriticalAmplitude:
    @pytest.mark.parametrize(
        "gamma,delta,expected",
        [(1.5, -1.5, 1.0), (0.0025, -0.01, 0.5), (0.01, -0.01, 1.0)],
    )
    def test_reference_values_exact(self, gamma, delta, expected):
        assert critical_amplitude(gamma, delta) == expected

    @pytest.mark.parametrize("gamma,delta", [(0.0, -1.0), (-1.0, -1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_requires_gain_loss_regime(self, gamma, delta):
        with pytest.raises(DomainError):
            critical_amplitude(gamma, delta)


def test_solvability_gate_examples():
    assert solvability_gate(0.5, 0.0025, -0.01) is True
    assert solvability_gate(0.5, 0.01, -0.01) is False
    assert solvability_gate(1.0, 1.5, -1.5) is True
    with pytest.raises(DomainError):
        solvability_gate(0.5, -1.0, -0.01)


def test_generalized_gate_examples():
    z = 0.5 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    spec = GeneralizedBCSpec(zeta_minus=z, zeta_plus=z.conjugate(), G=0.5)
    assert generalized_gate(spec, 0.0025, -0.01) is True

    spec = GeneralizedBCSpec(zeta_minus=0.5, zeta_plus=0.5, G=0.7)
    assert generalized_gate(spec, 0.0025, -0.01) is False

    spec = GeneralizedBCSpec(zeta_minus=1.0, zeta_plus=1.0, G=1.0)
    assert generalized_gate(spec, 0.0025, -0.01) is False


def test_generalized_spec_modulus_invariant():
    with pytest.raises(DomainError):
        GeneralizedBCSpec(zeta_minus=0.5, zeta_plus=0.4, G=0.5)


# ---------------------------------------------------------------------------
# Discrete Laplacian
# ---------------------------------------------------------------------------

class TestDiscreteLaplacian:
    def test_constant_sequence_vanishes(self, cfg100):
        st = ComplexState(np.full(100, 2.3 - 0.7j))
        out = discrete_laplacian(st, cfg100).values
        assert np.max(np.abs(out)) < 1e-12

    def test_impulse_stencil(self):
        cfg = LatticeConfig(L=2.0, N=4, gamma=0.1, delta=-0.1)
        st = ComplexState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        out = discrete_laplacian(st, cfg).values
        assert np.array_equal(out, np.array([-2.0, 1.0, 0.0, 1.0], dtype=complex))

    def test_dirichlet_boundary_uses_zero_neighbors(self, cfg100_dirichlet):
        st = ComplexState(np.ones(100, dtype=complex))
        out = discrete_laplacian(st, cfg100_dirichlet).values
        assert out[0] == -1.0 and out[-1] == -1.0
        assert np.max(np.abs(out[1:-1])) == 0.0

    def test_plane_wave_eigenrelation_every_mode(self, cfg100):
        x = node_grid(cfg100).x
        N = cfg100.N
        for K in range(0, N // 2 + 1):
            q = K * math.pi / cfg100.L
            wave = np.exp(1j * q * x)
            out = discrete_laplacian(ComplexState(wave), cfg100).values
            # brute-force per-node stencil as the independent oracle
            oracle = np.array(
                [cfg100.k * (wave[(n + 1) % N] - 2 * wave[n] + wave[(n - 1) % N])
                 for n in range(N)]
            )
            assert np.max(np.abs(out - oracle)) < 1e-14, K
            eig = -4.0 * cfg100.k * math.sin(0.5 * cfg100.h * q) ** 2
            err = np.max(np.abs(out - eig * wave))
            assert err < 1e-10 * max(abs(eig), 1.0), K

    def test_linearity(self, cfg100):
        rng = np.random.default_rng(11)
        cfg = LatticeConfig(L=32.0, N=64, gamma=1.0, delta=-1.0)
        u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a, b = 0.7 - 0.3j, -1.2 + 0.9j
        lhs = discrete_laplacian(ComplexState(a * u + b * v), cfg).values
        rhs = (a * discrete_laplacian(ComplexState(u), cfg).values
               + b * discrete_laplacian(ComplexState(v), cfg).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_length_mismatch(self, cfg100):
        with pytest.raises(LengthMismatch):
            discrete_laplacian(ComplexState(np.ones(64, dtype=complex)), cfg100)


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

class TestDnlsRhs:
    def test_zero_is_fixed_point(self, cfg100):
        out = dnls_rhs(ComplexState(np.zeros(100, dtype=complex)), cfg100).values
        assert np.all(out == 0)

    def test_exact_plane_wave_cancellation(self, cfg100):
        a_star = critical_amplitude(cfg100.gamma, cfg100.delta)
        x = node_grid(cfg100).x
        q = 45 * math.pi / cfg100.L
        omega = 4.0 * cfg100.k * math.sin(0.5 * cfg100.h * q) ** 2 - a_star**2
        w = ComplexState(a_star * np.exp(1j * q * x))
        residual = dnls_rhs(w, cfg100).values - (-1j * omega * w.values)
        assert np.max(np.abs(residual)) < 1e-12

    def test_single_node_hand_value(self):
        cfg = LatticeConfig(L=2.0, N=4, gamma=0.1, delta=-0.1)
        st = ComplexState(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        out = dnls_rhs(st, cfg).values
        # node 0: i(-2 + 1) + 0.1 - 0.1 = -i; nodes 1 and 3 see the impulse
        assert out[0] == pytest.approx(-1j)
        assert out[1] == pytest.approx(1j)
        assert out[2] == 0
        assert out[3] == pytest.approx(1j)

    def test_rejects_dirichlet_closure(self, cfg100_dirichlet):
        with pytest.raises(ConfigError):
            dnls_rhs(ComplexState(np.ones(100, dtype=complex)), cfg100_dirichlet)


class TestAlRhs:
    def test_zero_is_fixed_point(self, cfg100):
        out = al_rhs(ComplexState(np.zeros(100, dtype=complex)), cfg100).values
        assert np.all(out == 0)

    def test_constant_background(self, cfg100):
        a = 0.8
        out = al_rhs(ComplexState(np.full(100, a, dtype=complex)), cfg100).values
        assert np.max(np.abs(out - 2j * a**3)) < 1e-15

    def test_rejects_dirichlet_closure(self, cfg100_dirichlet):
        with pytest.raises(ConfigError):
            al_rhs(ComplexState(np.ones(100, dtype=complex)), cfg100_dirichlet)


class TestShiftedRhs:
    def test_vanishes_exactly_at_critical_background(self, cfg100_dirichlet):
        a_star = critical_amplitude(0.0025, -0.01)
        zero = ComplexState(np.zeros(100, dtype=complex))
        out = shifted_rhs(zero, cfg100_dirichlet, a_star).values
        assert np.all(out == 0)

    @pytest.mark.parametrize("A", [0.3, 0.4, 0.6, 0.8, 1.0])
    def test_forcing_norm_off_critical(self, cfg100_dirichlet, A):
        cfg = cfg100_dirichlet
        zero = ComplexState(np.zeros(100, dtype=complex))
        norm = lattice_norm(shifted_rhs(zero, cfg, A).values, cfg)
        expected = abs(cfg.gamma * A + cfg.delta * A**3) * math.sqrt(cfg.N * cfg.h)
        assert norm == pytest.approx(expected, rel=1e-12)

    def test_rejects_periodic_closure(self, cfg100):
        with pytest.raises(ConfigError):
            shifted_rhs(ComplexState(np.zeros(100, dtype=complex)), cfg100, 1.0)


class TestFusedKernelsAgainstTextbookFormulas:
    """The *_rhs_values kernels against the equations as written, with the
    neighbours taken by np.roll (zeroed at the ends under Dirichlet closure)."""

    @staticmethod
    def _neighbors(u, bc):
        right, left = np.roll(u, -1), np.roll(u, 1)
        if bc is BoundaryKind.DIRICHLET_ZERO:
            right[-1] = 0.0
            left[0] = 0.0
        return right, left

    @staticmethod
    def _state(N, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(N) + 1j * rng.standard_normal(N)

    @staticmethod
    def _assert_close(out, ref):
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [64, 400])
    def test_dnls(self, N):
        cfg = LatticeConfig(L=N / 4, N=N, gamma=0.7, delta=-1.3)
        u = self._state(N, 1)
        right, left = self._neighbors(u, cfg.bc)
        lap = cfg.k * (right - 2.0 * u + left)
        cubic = np.abs(u) ** 2 * u
        ref = 1j * (lap + cubic) + cfg.gamma * u + cfg.delta * cubic
        self._assert_close(dnls_rhs_values(u, cfg), ref)

    @pytest.mark.parametrize("N", [64, 400])
    def test_al(self, N):
        cfg = LatticeConfig(L=N / 4, N=N, gamma=0.7, delta=-1.3)
        phi = self._state(N, 2)
        right, left = self._neighbors(phi, cfg.bc)
        ref = 1j * (cfg.k * (right - 2.0 * phi + left) + np.abs(phi) ** 2 * (left + right))
        self._assert_close(al_rhs_values(phi, cfg), ref)

    @pytest.mark.parametrize("N", [64, 400])
    def test_shifted(self, N):
        cfg = LatticeConfig(L=N / 4, N=N, gamma=0.7, delta=-1.3,
                            bc=BoundaryKind.DIRICHLET_ZERO)
        A = 0.6
        U = self._state(N, 3)
        right, left = self._neighbors(U, cfg.bc)
        lap = cfg.k * (right - 2.0 * U + left)
        w = U + A
        dens = np.abs(w) ** 2
        ref = (1j * (lap - A * A * w + dens * w)
               + cfg.gamma * w + cfg.delta * dens * w)
        self._assert_close(shifted_rhs_values(U, cfg, A), ref)


# The kernels as they were before they wrote into preallocated buffers: the
# in-place kernels must give the same bits, since a chaotic run (fig6)
# amplifies any last-bit change.

def _oracle_neighbor_sum(u, bc):
    s = np.empty_like(u)
    np.add(u[2:], u[:-2], out=s[1:-1])
    if bc is BoundaryKind.PERIODIC:
        s[0] = u[1] + u[-1]
        s[-1] = u[0] + u[-2]
    else:
        s[0] = u[1]
        s[-1] = u[-2]
    return s


def _oracle_dnls(u, cfg):
    dens = u.real**2 + u.imag**2
    coef = (cfg.delta + 1j) * dens + (cfg.gamma - 2j * cfg.k)
    return coef * u + (1j * cfg.k) * _oracle_neighbor_sum(u, cfg.bc)


def _oracle_al(phi, cfg):
    coef = 1j * (cfg.k + (phi.real**2 + phi.imag**2))
    return coef * _oracle_neighbor_sum(phi, cfg.bc) - (2j * cfg.k) * phi


def _oracle_shifted(U, cfg, A):
    w = U + A
    dens = w.real**2 + w.imag**2
    coef = (cfg.delta + 1j) * dens + (cfg.gamma - 1j * A * A)
    return coef * w + (1j * cfg.k) * (_oracle_neighbor_sum(U, cfg.bc) - 2.0 * U)


class TestInPlaceKernelsBitIdentical:
    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("N", [100, 400])
    def test_against_allocating_oracle(self, N, bc):
        # h = 0.74, so that products with k = 1/h^2 round
        cfg = LatticeConfig(L=0.37 * N, N=N, gamma=0.37, delta=-1.3, bc=bc)
        rng = np.random.default_rng(N)
        # reused, dirty buffers, as in the integrator
        out = np.full(N, np.nan, dtype=complex)
        work = tuple(np.full_like(a, np.nan) for a in _rhs_workspace(N))
        for _ in range(20):
            u = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 10.0 ** rng.uniform(-6, 1)
            A = rng.uniform(0.0, 2.0)
            for oracle, kernel, args in (
                (_oracle_dnls, dnls_rhs_values, (cfg,)),
                (_oracle_al, al_rhs_values, (cfg,)),
                (_oracle_shifted, shifted_rhs_values, (cfg, A)),
            ):
                ref = oracle(u, *args).view(np.uint64)
                assert np.array_equal(kernel(u, *args).view(np.uint64), ref)
                assert np.array_equal(kernel(u, *args, out, work).view(np.uint64), ref)


class TestPublicWrappersValidate:
    def test_length_mismatch(self, cfg100, cfg100_dirichlet):
        short = ComplexState(np.ones(64, dtype=complex))
        with pytest.raises(LengthMismatch):
            dnls_rhs(short, cfg100)
        with pytest.raises(LengthMismatch):
            al_rhs(short, cfg100)
        with pytest.raises(LengthMismatch):
            shifted_rhs(short, cfg100_dirichlet, 0.5)

    @pytest.mark.parametrize("A", [-0.5, math.nan, math.inf])
    def test_shifted_rejects_bad_background(self, cfg100_dirichlet, A):
        with pytest.raises(DomainError):
            shifted_rhs(ComplexState(np.zeros(100, dtype=complex)), cfg100_dirichlet, A)


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

class TestInitialConditions:
    def test_plane_wave_modulus_and_phase(self, cfg100):
        st = make_initial_condition(PlaneWaveIC(1.0, 2.0, 45), cfg100)
        assert np.allclose(np.abs(st.values), 3.0)
        x = node_grid(cfg100).x
        expected = 3.0 * np.exp(1j * 45 * math.pi * x / cfg100.L)
        assert np.max(np.abs(st.values - expected)) < 1e-12

    @pytest.mark.parametrize("mode", [-1, 51, 0.5, 7.3])
    def test_plane_wave_mode_validation(self, cfg100, mode):
        with pytest.raises(WavenumberError):
            make_initial_condition(PlaneWaveIC(1.0, 0.0, mode), cfg100)

    def test_algebraic_bump_center_value(self):
        cfg = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
        st = make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0), cfg)
        assert st.values[central_node_index(cfg)] == pytest.approx(1.5)

    def test_algebraic_bump_parameter_domain(self, cfg100):
        with pytest.raises(DomainError):
            make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 0.0, 4.0), cfg100)
        with pytest.raises(DomainError):
            make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 1.0, -1.0), cfg100)

    def test_sech_bump_center_and_tail(self):
        cfg = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
        st = make_initial_condition(SechBumpIC(0.5, 0.6, 1.0), cfg)
        assert st.values[central_node_index(cfg)] == pytest.approx(1.1)
        assert abs(st.values[0] - 0.5) < 1e-12  # sech(200) underflows

    def test_sech_bump_rho_domain(self, cfg100):
        with pytest.raises(DomainError):
            make_initial_condition(SechBumpIC(0.5, 0.6, 0.0), cfg100)


def test_sech_properties():
    assert sech(0.0) == 1.0
    assert sech(3.0) == sech(-3.0)
    assert sech(800.0) == 0.0  # clamped tail underflows to the correct limit
    assert sech(5.0) == pytest.approx(2.0 / (math.exp(5.0) + math.exp(-5.0)))
