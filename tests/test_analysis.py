"""Plane-wave family, modulation instability, spectra, attractor verdicts."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dnlslab.analysis import (
    amplitude_ode_solution,
    attractor_verdict,
    dispersion_frequency,
    fold_mode,
    mi_growth_oracle,
    mi_roots,
    mi_scan,
    phase_increment,
    plane_wave_exact,
    plane_wave_family,
    reconstruct_state,
    sideband_frequency,
    slant_asymptote_offset,
    spectrum,
)
from dnlslab.core import (
    ComplexState,
    LatticeConfig,
    PlaneWaveIC,
    check_system,
    critical_amplitude,
    discrete_laplacian,
    make_initial_condition,
    node_grid,
)
from dnlslab.errors import DomainError, LengthMismatch, WavenumberError, WindowTooShort
from dnlslab.proximity import estimate_I_curve, estimate_II_rate, smallness_condition
from dnlslab.timestep import IntegratorSpec, System, integrate


@pytest.fixture
def cfg():
    return LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)


@pytest.mark.parametrize("no_pair", [{"gamma": 0.0}, {"delta": 0.0}], ids=["gamma0", "delta0"])
@pytest.mark.parametrize("evaluate", [
    lambda cfg: dispersion_frequency(5, cfg),
    lambda cfg: plane_wave_family(5, 0.5, 0.0, cfg),
    lambda cfg: mi_roots(0.3, 0.5, cfg),
    lambda cfg: estimate_II_rate(cfg, 0.0),
    lambda cfg: estimate_I_curve(cfg, 90.0, 0.0, [0.0, 1.0]),
    smallness_condition,
], ids=["dispersion_frequency", "plane_wave_family", "mi_roots", "estimate_II_rate",
        "estimate_I_curve", "smallness_condition"])
def test_lattice_without_gain_and_loss_rejected(cfg, evaluate, no_pair):
    # A_* = sqrt(-gamma/delta), which each of these reads off the lattice,
    # exists only with linear gain and nonlinear loss
    with pytest.raises(DomainError):
        evaluate(replace(cfg, **no_pair))


# ---------------------------------------------------------------------------
# Dispersion and amplitude dynamics
# ---------------------------------------------------------------------------

class TestDispersion:
    def test_zero_mode(self, cfg):
        assert dispersion_frequency(0, cfg) == -1.0

    def test_reference_mode(self, cfg):
        expected = 4.0 * math.sin(0.45 * math.pi) ** 2 - 1.0
        assert dispersion_frequency(45, cfg) == pytest.approx(expected, abs=1e-15)
        assert dispersion_frequency(45, cfg) == pytest.approx(2.90211, abs=1e-5)

    def test_band_edge(self, cfg):
        assert dispersion_frequency(50, cfg) == pytest.approx(4.0 * cfg.k - 1.0)

    def test_mode_validation(self, cfg):
        with pytest.raises(WavenumberError):
            dispersion_frequency(51, cfg)
        with pytest.raises(WavenumberError):
            dispersion_frequency(-1, cfg)


class TestAmplitudeSolution:
    def test_fixed_point_at_critical_amplitude(self):
        for t in (0.0, 0.5, 3.0, 50.0):
            assert amplitude_ode_solution(1.0, 1.5, -1.5, t) == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_value(self):
        expected = 13.5 / (13.5 - 12.0 * math.exp(-3.0))
        assert amplitude_ode_solution(3.0, 1.5, -1.5, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.04630, abs=1e-5)

    def test_against_rk4_oracle(self):
        # independent integration of dA/dt = gamma*A + delta*A^3
        gamma, delta, a = 1.5, -1.5, 3.0
        dt, t_end = 1e-4, 1.0
        for _ in range(int(round(t_end / dt))):
            f = lambda z: gamma * z + delta * z**3
            k1 = f(a); k2 = f(a + 0.5 * dt * k1); k3 = f(a + 0.5 * dt * k2); k4 = f(a + dt * k3)
            a += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert amplitude_ode_solution(3.0, gamma, delta, t_end) == pytest.approx(a * a, abs=1e-9)

    def test_long_time_limit(self):
        gamma, delta = 1.5, -1.5
        assert amplitude_ode_solution(3.0, gamma, delta, 50.0 / gamma) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_monotonicity(self):
        ts = np.linspace(0.0, 4.0, 50)
        rising = amplitude_ode_solution(0.3, 1.5, -1.5, ts)
        falling = amplitude_ode_solution(3.0, 1.5, -1.5, ts)
        assert np.all(np.diff(rising) > 0)
        assert np.all(np.diff(falling) < 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            amplitude_ode_solution(1.0, -1.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            amplitude_ode_solution(0.0, 1.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            amplitude_ode_solution(1.0, 1.0, -1.0, -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.0, math.nan, 1.0])])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError):
            amplitude_ode_solution(0.5, 1.5, -1.5, t)


class TestSlantAsymptote:
    def test_zero_at_critical_amplitude(self):
        assert slant_asymptote_offset(1.0, 1.5, -1.5) == 0.0

    def test_reference_value(self):
        assert slant_asymptote_offset(3.0, 1.5, -1.5) == pytest.approx(
            math.log(9.0) / 3.0, rel=1e-14
        )
        assert slant_asymptote_offset(3.0, 1.5, -1.5) == pytest.approx(0.73241, abs=1e-5)

    def test_sign_below_critical(self):
        # A0^2 = A_*^2 / 2 gives a negative offset for nonlinear loss
        a0 = math.sqrt(0.5)
        assert slant_asymptote_offset(a0, 1.5, -1.5) < 0.0

    @pytest.mark.parametrize("A0", [0.4, 1.0, 3.0])
    def test_quadrature_reaches_asymptote(self, A0):
        gamma, delta = 1.5, -1.5
        t = 20.0 / gamma
        drift = phase_increment(A0, gamma, delta, t) - 1.0 * t
        assert drift == pytest.approx(slant_asymptote_offset(A0, gamma, delta), abs=1e-5)


class TestPhaseIncrement:
    # integral of A^2 evaluated with mpmath in 60-digit arithmetic at the
    # binary values of the arguments; one case per branch of the closed form
    @pytest.mark.parametrize("A0, gamma, delta, t, ref, rel", [
        # r < 1, 2 gamma t > 700: a long run just below the critical amplitude
        (0.999, 1.5, -1.5, 3700.0, 3699.99933299977761097707385969, 1e-14),
        (0.3, 0.0025, -0.01, 1e6, 249948.917437623400929042074617, 1e-14),
        (1e-4, 1.5, -1.5, 300.0, 293.859773085349211541233180137, 1e-14),
        # r < 1, 2 gamma t <= 700, including a tiny amplitude at small t
        (1e-4, 1.5, -1.5, 0.01, 1.0151511316293155328046507996e-10, 1e-11),
        (0.4, 1.5, -1.5, 5.0, 4.38914004741252767306858257473, 1e-14),
        # r >= 1, including r expm1(2 gamma t) beyond the float range
        (3.0, 1.5, -1.5, 2.0, 2.73167293705117222020793622049, 1e-14),
        (1e3, 1.5, -1.5, 233.0, 237.605170185988091368035982909, 1e-14),
        (100.0, 0.1, -2.0, 1e5, 5003.05151816138282097425516583, 1e-14),
    ])
    def test_high_precision_references(self, A0, gamma, delta, t, ref, rel):
        assert phase_increment(A0, gamma, delta, t) == pytest.approx(ref, rel=rel, abs=0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError):
            phase_increment(0.5, 1.5, -1.5, t)


class TestPlaneWaveExact:
    def test_matches_initial_condition_at_t0(self, cfg):
        fam = plane_wave_family(45, 3.0, 0.0, cfg)
        w0 = plane_wave_exact(fam, 0.0)
        ic = make_initial_condition(PlaneWaveIC(1.0, 2.0, 45), cfg)
        assert np.max(np.abs(w0.values - ic.values)) < 1e-12

    def test_constant_amplitude_member_is_attractor_orbit(self, cfg):
        fam = plane_wave_family(45, 1.0, 0.0, cfg)
        x = node_grid(cfg).x
        for t in (0.0, 1.3, 4.7):
            w = plane_wave_exact(fam, t)
            expected = np.exp(1j * (fam.q * x - fam.omega_tilde * t))
            assert np.max(np.abs(w.values - expected)) < 1e-9

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_solves_lattice_by_finite_differences(self, cfg, t):
        from dnlslab.core import dnls_rhs

        fam = plane_wave_family(45, 3.0, 0.0, cfg)
        dt = 1e-5
        wp = plane_wave_exact(fam, t + dt)
        wm = plane_wave_exact(fam, t - dt)
        numeric = (wp.values - wm.values) / (2 * dt)
        analytic = dnls_rhs(plane_wave_exact(fam, t), cfg).values
        assert np.max(np.abs(numeric - analytic)) < 1e-6

    def test_lives_on_the_family_lattice(self, cfg):
        # q and the limit frequency are read off the family's own lattice,
        # and so is the grid the solution is evaluated on
        wide = replace(cfg, L=100.0, N=200)
        fam = plane_wave_family(45, 1.0, 0.0, wide)
        assert plane_wave_exact(fam, 1.0).values.size == wide.N
        assert fam.q == 45 * math.pi / wide.L
        assert fam.omega_tilde == dispersion_frequency(45, wide)

    def test_family_invariant(self, cfg):
        fam = plane_wave_family(45, 1.0, 0.0, cfg)
        assert fam.q * cfg.L / math.pi == pytest.approx(45.0, abs=1e-12)
        expected = 4.0 * cfg.k * math.sin(0.5 * cfg.h * fam.q) ** 2 - 1.0
        assert abs(fam.omega_tilde - expected) < 1e-12


# ---------------------------------------------------------------------------
# Modulation instability
# ---------------------------------------------------------------------------

class TestMiRoots:
    def test_marginal_sideband(self, cfg):
        lam_p, lam_m = mi_roots(0.9, 0.0, cfg)
        assert lam_p == 0
        assert lam_m == pytest.approx(-3j)

    def test_negative_cos_carrier_is_stable(self, cfg):
        q = 0.9 * math.pi  # cos(hq) < 0
        for Q in np.linspace(0.0, math.pi, 51):
            lam_p, lam_m = mi_roots(q, float(Q), cfg)
            assert lam_p.imag <= 1e-14
            assert lam_m.imag <= 1e-14

    def test_roots_satisfy_quadratic(self, cfg):
        rng = np.random.default_rng(42)
        for _ in range(100):
            gamma = rng.uniform(0.1, 2.0)
            delta = -gamma * rng.uniform(0.5, 2.0)
            a_star = critical_amplitude(gamma, delta)
            q, Q = rng.uniform(0, math.pi, size=2)
            gam = 4.0 * cfg.k * math.sin(0.5 * cfg.h * Q) ** 2 * math.cos(cfg.h * q)
            a2 = a_star * a_star
            for lam in mi_roots(q, Q, replace(cfg, gamma=gamma, delta=delta)):
                residual = abs(lam**2 - 2j * delta * a2 * lam - gam * (gam - 2.0 * a2))
                assert residual < 1e-10

    def test_sideband_frequency_shift(self, cfg):
        q, Q = 0.3, 0.5
        lam_p, _ = mi_roots(q, Q, cfg)
        omega_p = sideband_frequency(lam_p, q, Q, cfg)
        shift = 2.0 * cfg.k * math.sin(cfg.h * Q) * math.sin(cfg.h * q)
        assert omega_p - lam_p == pytest.approx(shift)


class TestMiScan:
    def test_reference_band(self, cfg):
        for K in range(1, 25):
            assert mi_scan(K, cfg, 1.0, cfg.delta).carrier_unstable, K
        for K in range(25, 51):
            assert not mi_scan(K, cfg, 1.0, cfg.delta).carrier_unstable, K

    def test_stable_carrier_has_empty_band(self, cfg):
        assert mi_scan(45, cfg, 1.0, cfg.delta).unstable_band == frozenset()

    def test_unstable_carrier_has_nonempty_band(self, cfg):
        assert mi_scan(8, cfg, 1.0, cfg.delta).unstable_band

    def test_marginal_and_finite_growth(self, cfg):
        scan = mi_scan(8, cfg, 1.0, cfg.delta)
        assert scan.growth[0] == 0.0
        assert np.all(np.isfinite(scan.growth))

    @pytest.mark.parametrize("L, N, gamma, delta", [(50.0, 100, 1.5, -1.5),
                                                    (37.0, 400, 1.2, -0.7)])
    def test_equals_mi_roots_bit_for_bit(self, L, N, gamma, delta):
        # the vectorised scan keeps mi_roots' arithmetic, so no value may move
        cfg = LatticeConfig(L=L, N=N, gamma=gamma, delta=delta)
        a_star = critical_amplitude(cfg.gamma, cfg.delta)
        for K in range(N // 2 + 1):
            scan = mi_scan(K, cfg, a_star, cfg.delta)
            expected = [max(lam.imag for lam in mi_roots(scan.q, float(Q), cfg))
                        for Q in scan.Qs]
            assert scan.growth.tobytes() == np.array(expected).tobytes(), K

    def test_roots_of_an_array_are_the_roots_of_its_entries(self, cfg):
        Qs = np.linspace(0.0, math.pi, 11)
        lam_p, lam_m = mi_roots(0.3, Qs, cfg)
        assert lam_p.shape == lam_m.shape == Qs.shape
        for i, Q in enumerate(Qs):
            assert (lam_p[i], lam_m[i]) == mi_roots(0.3, float(Q), cfg)

    @pytest.mark.parametrize("A_star, delta", [(0.5, -1.5), (1.0, -1.0)])
    def test_pair_of_another_lattice_rejected(self, cfg, A_star, delta):
        with pytest.raises(DomainError):
            mi_scan(8, cfg, A_star, delta)

    def test_instability_characterization(self, cfg):
        # growth > 0 iff Gamma(Gamma - 2 A_*^2) < 0, pointwise across the scan
        for K in (3, 8, 20, 30, 45):
            scan = mi_scan(K, cfg, 1.0, cfg.delta)
            for m, growth in zip(range(scan.Qs.size), scan.growth):
                gam = (4.0 * cfg.k * math.sin(0.5 * cfg.h * scan.Qs[m]) ** 2
                       * math.cos(cfg.h * scan.q))
                assert (growth > 0) == (gam * (gam - 2.0) < 0)


class TestGrowthOracle:
    def test_stable_mode_does_not_grow(self, cfg):
        fit = mi_growth_oracle(45, 10, cfg, 1.5, -1.5)
        assert fit.rate <= 0.0 and not fit.grew

    def test_unstable_mode_matches_theory(self, cfg):
        scan = mi_scan(8, cfg, 1.0, cfg.delta)
        m_star = int(np.argmax(scan.growth))
        fit = mi_growth_oracle(8, m_star, cfg, 1.5, -1.5)
        assert fit.grew
        assert fit.rate == pytest.approx(scan.growth[m_star], rel=0.05)

    def test_foreign_gain_loss_pair_rejected(self, cfg):
        # the oracle integrates cfg itself, so another pair would fit another lattice
        with pytest.raises(DomainError, match="lattice's own"):
            mi_growth_oracle(8, 8, cfg, 0.5, -0.5)


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

class TestSpectrum:
    def test_plane_wave_single_coefficient(self, cfg):
        st = make_initial_condition(PlaneWaveIC(1.0, 2.0, 45), cfg)
        frame = spectrum(st, cfg)
        mags = np.abs(frame.coeffs)
        assert frame.dominant_mode == 45
        others = np.delete(mags, 45)
        assert np.max(others) < 1e-10 * mags[45]

    def test_constant_state_is_zero_mode(self, cfg):
        frame = spectrum(ComplexState(np.full(100, 1.7 + 0.2j)), cfg)
        assert frame.dominant_mode == 0
        assert np.max(np.abs(frame.coeffs[1:])) < 1e-10 * abs(frame.coeffs[0])

    def test_round_trip(self, cfg):
        rng = np.random.default_rng(3)
        st = ComplexState(rng.standard_normal(100) + 1j * rng.standard_normal(100))
        rec = reconstruct_state(spectrum(st, cfg), cfg)
        assert np.max(np.abs(rec.values - st.values)) < 1e-10

    def test_parseval_consistency(self, cfg):
        rng = np.random.default_rng(4)
        st = ComplexState(rng.standard_normal(100) + 1j * rng.standard_normal(100))
        frame = spectrum(st, cfg)
        lhs = np.sum(np.abs(frame.coeffs) ** 2) / cfg.N
        rhs = cfg.h**2 * np.sum(np.abs(st.values) ** 2)
        assert abs(lhs - rhs) < 1e-10 * rhs

    def test_dominant_mode_phase_invariance(self, cfg):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        base = spectrum(ComplexState(v), cfg).dominant_mode
        for theta in (0.3, 1.7, 3.0):
            rotated = spectrum(ComplexState(v * np.exp(1j * theta)), cfg).dominant_mode
            assert rotated == base

    def test_tie_breaks_toward_smaller_mode(self, cfg):
        # an impulse at node 0 has exactly equal coefficients at every mode
        v = np.zeros(100, dtype=complex)
        v[0] = 1.0
        frame = spectrum(ComplexState(v), cfg)
        assert np.all(frame.coeffs == frame.coeffs[0])
        assert frame.dominant_mode == 0

    def test_wrong_length_is_the_core_length_rule(self, cfg):
        # spectrum, the system check and the Laplacian share one rule
        st = ComplexState(np.zeros(64, dtype=complex))
        for check in (lambda: spectrum(st, cfg), lambda: discrete_laplacian(st, cfg),
                      lambda: check_system(System.DNLS, cfg, st.values)):
            with pytest.raises(LengthMismatch, match="^state has 64 nodes, lattice expects 100$"):
                check()


def test_fold_mode():
    assert fold_mode(45, 100) == 45
    assert fold_mode(55, 100) == 45
    assert fold_mode(0, 100) == 0
    assert fold_mode(50, 100) == 50


# ---------------------------------------------------------------------------
# Attractor verdict
# ---------------------------------------------------------------------------

class TestAttractorVerdict:
    def test_exact_orbit_converges_immediately(self, cfg):
        fam = plane_wave_family(45, 1.0, 0.0, cfg)
        ic = plane_wave_exact(fam, 0.0)
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=2.0, sample_every=0.1))
        verdict = attractor_verdict(traj, cfg, 1.0, tol_amp=1e-3, t_window=2.0)
        assert verdict.converged
        assert verdict.final_mode == 45
        assert verdict.in_stable_band

    def test_window_too_short(self, cfg):
        ic = ComplexState(np.zeros(100, dtype=complex))
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.25))
        with pytest.raises(WindowTooShort):
            attractor_verdict(traj, cfg, 1.0, t_window=5.0)
