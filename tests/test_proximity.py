"""Rogue profile, integrable-lattice invariant, and distance estimates."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dnlslab.core import (
    AlgebraicBumpIC,
    ComplexState,
    LatticeConfig,
    NodeGrid,
    SechBumpIC,
    lattice_norm,
    make_initial_condition,
    node_grid,
)
from dnlslab.errors import ConfigError, DomainError, GridMismatch, HypothesisViolated
from dnlslab.proximity import (
    DpsParams,
    _power_envelope,
    al_invariant,
    al_norm_bound,
    build_proximity_report,
    distance_curves,
    dps_eval,
    estimate_I_curve,
    estimate_II_rate,
    smallness_condition,
)
from dnlslab.timestep import IntegratorSpec, System, integrate


def estimate_I_closed_forms(cfg, u0_norm_sq, times):
    """Printed antiderivative forms of F1 and F2, an oracle for the quadrature.

    The F2 form matches the quadrature; the printed F1 form is negative near
    t = 0 (it does not satisfy F1(0) = 0) and is therefore untrusted.  The
    quadrature in ``estimate_I_curve`` is the authoritative implementation.
    """
    gamma = cfg.gamma
    B, nu, beta = _power_envelope(cfg, u0_norm_sq)
    if nu * gamma <= beta:
        raise HypothesisViolated("closed forms need nu*gamma > beta")
    t = np.asarray(times, dtype=np.float64)
    sb, sg = math.sqrt(beta), math.sqrt(gamma)
    f1 = (1.0 / (sb * sg)) * np.log(
        (math.sqrt(gamma * nu) - sb)
        / (sb * np.exp(-gamma * t) + np.sqrt((np.exp(2.0 * gamma * t) - 1.0) * beta + gamma * nu))
    )
    root = math.sqrt(nu * gamma - beta)
    f2 = (1.0 / beta**1.5) * (
        sg * np.arcsinh(sb * np.exp(gamma * t) / root)
        - sb * sg * np.exp(gamma * t) / np.sqrt(beta * (np.exp(2.0 * gamma * t) - 1.0) + gamma * nu)
        - sg * math.asinh(sb / root)
        + sb / math.sqrt(nu)
    )
    return f1, f2


@pytest.fixture
def cfg_wide():
    return LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)


@pytest.fixture
def quad():
    """scipy's adaptive quadrature, an oracle the library itself does not use."""
    return pytest.importorskip("scipy.integrate").quad


# ---------------------------------------------------------------------------
# Rational rogue profile
# ---------------------------------------------------------------------------

class TestDpsEval:
    def test_peak_value(self, cfg_wide):
        grid = node_grid(cfg_wide)
        st = dps_eval(grid, 2.4, DpsParams(q=0.5, t0=2.4))
        center = st.values[200]
        assert center == pytest.approx(-2.0, abs=1e-14)
        assert abs(center) ** 2 == pytest.approx(4.0, abs=1e-13)

    @pytest.mark.parametrize("q", [0.25, 0.5, 1.0])
    def test_peak_density_formula(self, cfg_wide, q):
        grid = node_grid(cfg_wide)
        params = DpsParams(q=q, t0=1.0)
        peak = np.max(np.abs(dps_eval(grid, 1.0, params).values) ** 2)
        assert peak == pytest.approx(params.peak_density(), rel=1e-12)

    def test_background_recovery(self, cfg_wide):
        grid = node_grid(cfg_wide)
        st = dps_eval(grid, 0.0, DpsParams(q=0.5, t0=2.4))
        assert abs(abs(st.values[0]) - 0.5) < 1e-3  # |x| = 200

    def test_requires_unit_spacing(self):
        grid = NodeGrid(x=np.linspace(-10, 10, 41))  # h = 0.5
        with pytest.raises(ConfigError):
            dps_eval(grid, 0.0, DpsParams(q=0.5, t0=0.0))

    def test_q_must_be_positive(self):
        with pytest.raises(DomainError):
            DpsParams(q=0.0, t0=0.0)

    @pytest.mark.parametrize("t", [0.0, 1.2, 2.4, 4.0, 8.0])
    def test_solves_integrable_lattice(self, t):
        # infinite-lattice oracle: neighbors evaluated analytically via
        # shifted grids, so no periodic wrap pollutes the residual
        params = DpsParams(q=0.5, t0=2.4)
        xs = np.arange(-30.0, 31.0)
        mid, left, right = (NodeGrid(x=xs + s) for s in (0.0, -1.0, 1.0))
        dt = 1e-5
        dnum = (dps_eval(mid, t + dt, params).values
                - dps_eval(mid, t - dt, params).values) / (2 * dt)
        phi = dps_eval(mid, t, params).values
        phi_m = dps_eval(left, t, params).values
        phi_p = dps_eval(right, t, params).values
        rhs = 1j * ((phi_p - 2 * phi + phi_m) + np.abs(phi) ** 2 * (phi_m + phi_p))
        assert np.max(np.abs(dnum - rhs)) < 1e-6


# ---------------------------------------------------------------------------
# Invariant and norm bound
# ---------------------------------------------------------------------------

class TestAlInvariant:
    def test_constant_background(self, cfg_wide):
        a = 0.5
        st = ComplexState(np.full(400, a, dtype=complex))
        expected = cfg_wide.h * 400 * math.log(1 + a * a)
        assert al_invariant(st, cfg_wide) == pytest.approx(expected, rel=1e-14)

    def test_zero_state(self, cfg_wide):
        assert al_invariant(ComplexState(np.zeros(400, dtype=complex)), cfg_wide) == 0.0

    def test_gauge_invariance(self, cfg_wide):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        base = al_invariant(ComplexState(v), cfg_wide)
        rotated = al_invariant(ComplexState(v * np.exp(0.73j)), cfg_wide)
        assert abs(rotated - base) < 1e-14 * abs(base)

    def test_conserved_along_flow(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.0025, delta=-0.01)
        ic = dps_eval(node_grid(cfg), 0.0, DpsParams(q=0.5, t0=2.4))
        traj = integrate(System.AL, ic, cfg,
                         IntegratorSpec(t_end=5.0, sample_every=0.25))
        inv = traj.diagnostics["al_invariant"]
        assert np.max(np.abs(inv - inv[0])) < 1e-8 * abs(inv[0])

    def test_diagnostic_is_the_invariant_of_each_sample(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.0025, delta=-0.01)
        ic = dps_eval(node_grid(cfg), 0.0, DpsParams(q=0.5, t0=2.4))
        traj = integrate(System.AL, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.25))
        assert traj.diagnostics["al_invariant"].tolist() == [
            al_invariant(s, cfg) for s in traj.states
        ]

    def test_lives_in_core(self):
        import dnlslab
        from dnlslab import core

        assert dnlslab.al_invariant is core.al_invariant is al_invariant


class TestAlNormBound:
    def test_zero_invariant(self, cfg_wide):
        assert al_norm_bound(0.0, cfg_wide) == 0.0

    def test_single_node_equality(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.0025, delta=-0.01)
        v = np.zeros(100, dtype=complex)
        v[7] = 1.3 - 0.4j
        st = ComplexState(v)
        n0 = al_invariant(st, cfg)
        # at unit spacing the bound collapses to |phi_7|^2, met with equality
        assert al_norm_bound(n0, cfg) == pytest.approx(abs(v[7]) ** 2, rel=1e-12)
        assert lattice_norm(v, cfg) ** 2 == pytest.approx(abs(v[7]) ** 2)

    def test_extended_background_is_loose_but_valid(self, cfg_wide):
        st = ComplexState(np.full(400, 0.5, dtype=complex))
        n0 = al_invariant(st, cfg_wide)
        bound = al_norm_bound(n0, cfg_wide)
        assert bound > 1e30  # astronomically loose for extended states
        assert lattice_norm(st.values, cfg_wide) ** 2 <= bound

    def test_overflow_guard(self, cfg_wide):
        assert al_norm_bound(1e4, cfg_wide) == math.inf

    def test_rejects_negative(self, cfg_wide):
        with pytest.raises(DomainError):
            al_norm_bound(-1.0, cfg_wide)


# ---------------------------------------------------------------------------
# Distance curves
# ---------------------------------------------------------------------------

def _paired_runs(cfg, ic_obj, t_end=2.0, sample_every=0.1):
    ic = make_initial_condition(ic_obj, cfg)
    spec = IntegratorSpec(t_end=t_end, sample_every=sample_every)
    return (integrate(System.DNLS, ic, cfg, spec),
            integrate(System.AL, ic, cfg, spec))


class TestDistanceCurves:
    def test_identical_trajectories_are_zero(self, cfg_wide):
        traj, _ = _paired_runs(cfg_wide, AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0))
        times, d_a, d_a_r, _ = distance_curves(traj, traj, cfg_wide)
        assert np.all(d_a == 0.0) and np.all(d_a_r == 0.0)

    def test_initial_distance_normalization(self, cfg_wide):
        t_u, t_phi = _paired_runs(cfg_wide, SechBumpIC(0.5, 0.6, 1.0))
        _, d_a, _, _ = distance_curves(t_u, t_phi, cfg_wide)
        expected = lattice_norm(
            t_u.states[0].values - t_phi.states[0].values, cfg_wide
        ) / math.sqrt(cfg_wide.N * cfg_wide.h)
        assert d_a[0] == pytest.approx(expected, abs=1e-15)

    def test_restriction_inequality(self, cfg_wide):
        t_u, t_phi = _paired_runs(cfg_wide, AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0))
        _, d_a, d_a_r, n_r = distance_curves(t_u, t_phi, cfg_wide)
        assert np.all(d_a_r <= d_a * math.sqrt(cfg_wide.N / n_r) + 1e-12)

    def test_grid_mismatch(self, cfg_wide):
        t_u, t_phi = _paired_runs(cfg_wide, AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0))
        other = integrate(System.AL, t_phi.states[0], cfg_wide,
                          IntegratorSpec(t_end=2.0, sample_every=0.5))
        with pytest.raises(GridMismatch):
            distance_curves(t_u, other, cfg_wide)

    def test_window_node_count(self, cfg_wide):
        t_u, t_phi = _paired_runs(cfg_wide, AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0))
        _, _, _, n_r = distance_curves(t_u, t_phi, cfg_wide)
        assert n_r == 21  # the window [-10, 10] at unit spacing, inclusive


# ---------------------------------------------------------------------------
# Envelopes and the smallness condition
# ---------------------------------------------------------------------------

class TestEstimateII:
    def test_reference_rate_by_terms(self, cfg_wide):
        # gamma*A*sqrt(Nh) = 0.025;  sqrt(delta^2+1)*sqrt(h)*A*^3*N^(3/2) ~ 1000.05
        alpha = estimate_II_rate(cfg_wide, 0.0)
        term1 = 0.0025 * 0.5 * math.sqrt(400.0)
        term2 = math.sqrt(0.01**2 + 1.0) * 0.125 * 400**1.5
        assert term1 == pytest.approx(0.025)
        assert alpha == pytest.approx(term1 + term2, rel=1e-14)
        assert alpha == pytest.approx(1000.075, abs=1e-3)

    def test_rate_needs_gain(self, cfg_wide):
        # without gain there is no critical amplitude A_* to bound ||u|| by
        with pytest.raises(DomainError):
            estimate_II_rate(replace(cfg_wide, gamma=0.0), 0.0)

    def test_node_count_scaling(self):
        cfg1 = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
        cfg2 = LatticeConfig(L=400.0, N=800, gamma=0.0025, delta=-0.01)
        # less the linear term gamma A_* sqrt(Nh), the rate is the cubic
        # term, which scales like N^(3/2) at h = 1
        r1, r2 = (estimate_II_rate(cfg, 0.0) - cfg.gamma * 0.5 * math.sqrt(cfg.N * cfg.h)
                  for cfg in (cfg1, cfg2))
        assert r2 / r1 == pytest.approx(2.0**1.5, rel=1e-12)


class TestEstimateI:
    def test_hypothesis_violation(self, cfg_wide):
        # averaged power above the critical power: nu*gamma <= beta
        u0_norm_sq = 0.3**2 * 400 * 1.0 * 1.2
        with pytest.raises(HypothesisViolated):
            estimate_I_curve(cfg_wide, 120.0, 0.0, np.array([0.0, 1.0]))

    def test_zero_start_violates_the_hypothesis(self, cfg_wide):
        # nu = 1/||u(0)||^2 does not exist, so the estimate does not apply
        with pytest.raises(HypothesisViolated):
            estimate_I_curve(cfg_wide, 0.0, 0.0, np.array([0.0, 1.0]))

    def test_power_envelope_endpoints(self, cfg_wide):
        B, nu, beta = _power_envelope(cfg_wide, 90.0)
        assert B(0.0) == pytest.approx(90.0, rel=1e-14)
        assert B(1e9) == pytest.approx(0.25 * 400, rel=1e-12)

    def test_curve_starts_at_initial_distance_and_increases(self, cfg_wide):
        times = np.linspace(0.0, 10.0, 21)
        curve = estimate_I_curve(cfg_wide, 90.0, 0.5, times,
                                 initial_distance=0.25)
        assert curve[0] == pytest.approx(0.25, abs=1e-15)
        assert np.all(np.diff(curve) > 0)

    def test_partition_self_consistency(self, cfg_wide):
        # the panel rule must agree across different sample partitions
        coarse = estimate_I_curve(cfg_wide, 90.0, 0.0, np.array([0.0, 10.0]))
        fine = estimate_I_curve(cfg_wide, 90.0, 0.0, np.linspace(0.0, 10.0, 41))
        assert abs(coarse[-1] - fine[-1]) < 1e-8

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 10.0, 201),             # the sampling of a t = 10 paired run
        np.array([0.0, 1000.0]),                 # one interval 2.5 panels long
        np.array([0.0, 0.0, 2.5, 2.5, 2.5, 7.0]),  # repeated times
        np.array([3.0, 2000.0, 20000.0]),        # first time past 0, tail past the last break
    ])
    @pytest.mark.parametrize("u0_norm_sq", [None, 1e-6])
    def test_matches_per_interval_quadrature(self, cfg_wide, quad, times, u0_norm_sq):
        if u0_norm_sq is None:
            # the below-critical sech bump of the paired proximity run
            u0 = make_initial_condition(SechBumpIC(0.45, 0.05, 1.0), cfg_wide)
            u0_norm_sq = lattice_norm(u0.values, cfg_wide) ** 2
        B, _, _ = _power_envelope(cfg_wide, u0_norm_sq)
        f1 = f2 = prev = 0.0
        expected = []
        for t in times:
            if t > prev:
                f1 += quad(lambda s: math.sqrt(B(s)), prev, t, epsabs=0.0, epsrel=1e-13)[0]
                f2 += quad(lambda s: B(s) ** 1.5, prev, t, epsabs=0.0, epsrel=1e-13)[0]
                prev = t
            expected.append(0.25 + 0.0025 * f1 + math.sqrt(0.01**2 + 1.0) * f2)
        curve = estimate_I_curve(cfg_wide, u0_norm_sq, 0.0, times, 0.25)
        np.testing.assert_allclose(curve, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("N", [50, 100, 200])  # h = 2, 1, 0.5
    def test_tail_and_limit_slope_match_estimate_II(self, N):
        # N0 enters both envelopes only through the integrable lattice's tail,
        # and once B has reached its limit A_*^2 N h (by t = 40: B converges
        # like e^{-2 gamma t}) estimate I grows at estimate II's rate
        cfg = LatticeConfig(L=50.0, N=N, gamma=1.5, delta=-1.5)
        times = np.array([0.0, 40.0, 50.0])
        curve = estimate_I_curve(cfg, 1.0, 0.3, times)
        no_tail = estimate_I_curve(cfg, 1.0, 0.0, times)
        alpha = estimate_II_rate(cfg, 0.3)
        tail = alpha - estimate_II_rate(cfg, 0.0)
        assert (curve[2] - no_tail[2]) / 50.0 == pytest.approx(tail, rel=1e-10)
        assert (curve[2] - curve[1]) / 10.0 == pytest.approx(alpha, rel=1e-9)

    def test_infinite_tail_leaves_the_start_at_the_initial_distance(self, cfg_wide):
        # N0 > 700 makes the tail coefficient infinite; at t = 0 it must not
        # turn F(0) into inf * 0 = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = estimate_I_curve(cfg_wide, 90.0, 800.0, [0.0, 1.0], 0.1)
        assert curve[0] == 0.1
        assert curve[1] == math.inf

    @pytest.mark.parametrize("n0", [500.0, 700.0])
    def test_tail_overflow_is_inf(self, cfg_wide, n0):
        # the tails grow like e^{1.5 N0/h} (h = 1 here), which overflows the
        # float range below the clamp N0/h = 700 of e^{N0/h}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = estimate_I_curve(cfg_wide, 90.0, n0, [0.0, 1.0], 0.1)
            rate = estimate_II_rate(cfg_wide, n0)
        assert curve[0] == 0.1
        assert curve[1] == rate == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, cfg_wide, bad):
        with pytest.raises(DomainError):
            estimate_I_curve(cfg_wide, 90.0, 0.0, np.array([0.0, 2.0, bad]))

    def test_closed_form_f2_matches_quadrature(self, cfg_wide, quad):
        times = np.linspace(0.0, 10.0, 11)
        _, f2_closed = estimate_I_closed_forms(cfg_wide, 90.0, times)
        B, _, _ = _power_envelope(cfg_wide, 90.0)
        f2_quad = np.array([
            quad(lambda s: B(s) ** 1.5, 0.0, t, epsabs=1e-12, epsrel=1e-12)[0]
            for t in times
        ])
        assert np.max(np.abs(f2_closed - f2_quad)) < 1e-8

    def test_printed_f1_is_untrusted_near_zero(self, cfg_wide):
        # the printed antiderivative violates F1(0) = 0, which is why the
        # quadrature form is authoritative
        f1_closed, _ = estimate_I_closed_forms(cfg_wide, 90.0, np.array([0.0]))
        assert f1_closed[0] < 0.0


class TestSmallness:
    def test_reference_evaluation(self, cfg_wide):
        check = smallness_condition(cfg_wide)
        assert not check.ok
        assert check.lhs == pytest.approx(1.5625e-8, rel=1e-10)
        # the cubic term dominates the minimum
        assert check.rhs == pytest.approx(
            (0.01**3) / ((0.01**2 + 1.0) * 1.0 * 400**3), rel=1e-12
        )

    def test_vanishing_gain_passes(self, cfg_wide):
        assert smallness_condition(replace(cfg_wide, gamma=1e-8)).ok

    def test_right_side_shrinks_with_node_count(self):
        small = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
        large = LatticeConfig(L=400.0, N=800, gamma=0.0025, delta=-0.01)
        assert smallness_condition(large).rhs < smallness_condition(small).rhs


# ---------------------------------------------------------------------------
# Assembled report
# ---------------------------------------------------------------------------

class TestProximityReport:
    def test_envelopes_dominate_distances(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.0025, delta=-0.01)
        t_u, t_phi = _paired_runs(cfg, SechBumpIC(0.45, 0.05, 1.0), t_end=5.0)
        report = build_proximity_report(t_u, t_phi, cfg)
        scale = math.sqrt(cfg.N * cfg.h)
        assert np.all(report.D_a * scale <= report.bound_II * scale + 1e-9)
        assert report.bound_I is not None  # low-power start satisfies the hypothesis
        assert np.all(report.D_a <= report.bound_I + 1e-12)

    def test_hypothesis_failure_drops_estimate_I(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.0025, delta=-0.01)
        t_u, t_phi = _paired_runs(cfg, AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0), t_end=1.0)
        report = build_proximity_report(t_u, t_phi, cfg)
        assert report.bound_I is None
        assert report.smallness.lhs > 0
