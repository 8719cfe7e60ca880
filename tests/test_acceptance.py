"""Acceptance suite: one test per criterion, and one for catalog fig8, each
printing a PASS line.

Criterion 5 runs the full t = 3700 horizon and dominates the wall time
(about half a minute); everything else completes in seconds.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from dnlslab.analysis import (
    attractor_verdict,
    fold_mode,
    mi_growth_oracle,
    mi_roots,
    mi_scan,
    plane_wave_exact,
    plane_wave_family,
    reconstruct_state,
    spectrum,
)
from dnlslab.core import (
    BoundaryKind,
    ComplexState,
    LatticeConfig,
    NodeGrid,
    SechBumpIC,
    central_node_index,
    critical_amplitude,
    dnls_rhs,
    lattice_norm,
    make_initial_condition,
    node_grid,
    shifted_rhs,
)
from dnlslab.proximity import (
    DpsParams,
    al_norm_bound,
    build_proximity_report,
    dps_eval,
)
from dnlslab.scenarios import apply_noise, load_scenario
from dnlslab.timestep import (
    IntegratorSpec,
    Method,
    System,
    averaged_power,
    integrate,
    power_bound_check,
)

WEDGE_SLOPE = 4.0 * math.sqrt(2.0)


def _report(n: int, label: str) -> None:
    print(f"criterion {n:2d} ({label}): PASS")


@pytest.fixture(scope="module")
def small_lattice():
    return LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)


@pytest.fixture(scope="module")
def wide_lattice():
    return LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)


@pytest.fixture(scope="module")
def fig9_runs():
    """fig9a/fig9b trajectories resampled finely enough for peak timing."""
    runs = {}
    for name in ("fig9a", "fig9b"):
        spec = load_scenario(name)
        spec = replace(spec, integrator=replace(spec.integrator, sample_every=0.05))
        ic = make_initial_condition(spec.variants[0].ic, spec.cfg)
        runs[name] = (spec, integrate(System.DNLS, ic, spec.cfg, spec.integrator))
    return runs


def test_criterion_01_gate_identities():
    assert critical_amplitude(1.5, -1.5) == 1.0
    assert critical_amplitude(0.0025, -0.01) == 0.5
    assert critical_amplitude(0.01, -0.01) == 1.0

    cfg = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01,
                        bc=BoundaryKind.DIRICHLET_ZERO)
    zero = ComplexState(np.zeros(cfg.N, dtype=complex))
    scale = math.sqrt(cfg.N * cfg.h)
    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    assert lattice_norm(shifted_rhs(zero, cfg, a_star).values, cfg) < 1e-14
    for off in (a_star - 0.1, a_star + 0.1):
        assert lattice_norm(shifted_rhs(zero, cfg, off).values, cfg) > 1e-4 * scale
    _report(1, "gate identities")


def test_criterion_02_exact_solution_residuals(small_lattice):
    cfg = small_lattice
    x = node_grid(cfg).x
    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    for K in (8, 45):
        q = K * math.pi / cfg.L
        omega = 4.0 * cfg.k * math.sin(0.5 * cfg.h * q) ** 2 - a_star**2
        w = ComplexState(a_star * np.exp(1j * q * x))
        residual = dnls_rhs(w, cfg).values - (-1j * omega * w.values)
        assert np.max(np.abs(residual)) < 1e-10

    # rogue profile vs the integrable lattice, neighbors taken analytically
    params = DpsParams(q=0.5, t0=2.4)
    xs = np.arange(-25.0, 26.0)
    grids = {s: NodeGrid(x=xs + s) for s in (-1.0, 0.0, 1.0)}
    dt = 1e-5
    for t in (0.0, 1.2, 2.4, 4.0):
        phi = dps_eval(grids[0.0], t, params).values
        phi_m = dps_eval(grids[-1.0], t, params).values
        phi_p = dps_eval(grids[1.0], t, params).values
        rhs = 1j * ((phi_p - 2 * phi + phi_m) + np.abs(phi) ** 2 * (phi_m + phi_p))
        dnum = (dps_eval(grids[0.0], t + dt, params).values
                - dps_eval(grids[0.0], t - dt, params).values) / (2 * dt)
        assert np.max(np.abs(dnum - rhs)) < 1e-6
    _report(2, "exact-solution residuals")


def test_criterion_03_power_bound_reproduction(small_lattice):
    cfg = small_lattice
    fam = plane_wave_family(45, 3.0, 0.0, cfg)
    ic = plane_wave_exact(fam, 0.0)
    traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=10.0, sample_every=0.1))
    from dnlslab.analysis import amplitude_ode_solution

    exact = amplitude_ode_solution(3.0, cfg.gamma, cfg.delta, traj.times)
    assert np.max(np.abs(traj.diagnostics["P_a"] - exact)) < 1e-6
    ok, margin = power_bound_check(traj, cfg)
    assert ok
    assert np.max(np.abs(margin)) < 1e-6  # plane waves saturate the bound
    _report(3, "power-bound reproduction")


def test_criterion_04_stable_mode_reproduction(small_lattice):
    cfg = small_lattice
    spec = IntegratorSpec(t_end=10.0, sample_every=0.1)
    for ap in (2.0, -0.999):
        scenario = load_scenario("fig5")
        base = scenario.variants[0 if ap > 0 else 1]
        ic = make_initial_condition(base.ic, cfg)
        traj = integrate(System.DNLS, ic, cfg, spec)
        verdict = attractor_verdict(traj, cfg, 1.0, tol_amp=1e-3, t_window=2.0)
        assert verdict.converged
        assert verdict.final_mode == 45
        assert verdict.in_stable_band
        assert abs(traj.diagnostics["P_a"][-1] - 1.0) < 1e-3
        frame = spectrum(traj.states[-1], cfg)
        mags = np.abs(frame.coeffs)
        assert np.max(np.delete(mags, frame.dominant_mode)) < 1e-6 * mags.max()
    _report(4, "stable-mode reproduction")


def test_criterion_05_unstable_mode_full_horizon():
    spec = load_scenario("fig6")
    cfg = spec.cfg
    ic = apply_noise(make_initial_condition(spec.variants[0].ic, cfg),
                     spec.noise_amp, spec.noise_seed)
    traj = integrate(System.DNLS, ic, cfg, spec.integrator)

    # fast amplitude convergence
    i10 = int(np.searchsorted(traj.times, 10.0))
    assert abs(traj.diagnostics["P_a"][i10] - 1.0) < 1e-3

    # broadband transient somewhere in t in [50, 500]
    broadband = 0
    for t, state in zip(traj.times, traj.states):
        if 50.0 <= t <= 500.0:
            mags = np.abs(spectrum(state, cfg).coeffs)
            broadband = max(broadband, int(np.sum(mags > 1e-3 * mags.max())))
    assert broadband >= 10

    # the ultimate state selects a wavenumber from the stable band (>= 25);
    # the specific node is not asserted
    verdict = attractor_verdict(traj, cfg, 1.0, tol_amp=1e-3, t_window=100.0)
    assert verdict.converged
    assert fold_mode(verdict.final_mode, cfg.N) >= 25
    assert verdict.in_stable_band
    _report(5, "unstable-mode full horizon")


def test_criterion_06_mi_band_and_growth_oracle(small_lattice):
    cfg = small_lattice
    for K in range(1, 25):
        assert mi_scan(K, cfg, 1.0, cfg.delta).carrier_unstable
    for K in range(25, 51):
        assert not mi_scan(K, cfg, 1.0, cfg.delta).carrier_unstable

    for K in (8, 12, 20):
        scan = mi_scan(K, cfg, 1.0, cfg.delta)
        m_star = int(np.argmax(scan.growth))
        fit = mi_growth_oracle(K, m_star, cfg, cfg.gamma, cfg.delta)
        assert fit.grew
        assert abs(fit.rate - scan.growth[m_star]) <= 0.05 * scan.growth[m_star]
    _report(6, "modulation-instability band")


def test_criterion_07_localized_ic_reproduction(fig9_runs):
    expected_peak_time = {"fig9a": 2.40, "fig9b": 3.30}
    dps_peak = DpsParams(q=0.5, t0=0.0).peak_density()
    for name, (spec, traj) in fig9_runs.items():
        cfg = spec.cfg
        x = node_grid(cfg).x

        # (a) quiescent outer sectors at the background modulus 0.5
        for t, state in zip(traj.times, traj.states):
            if not 5.0 <= t <= 40.0:
                continue
            outside = np.abs(x) > 1.2 * WEDGE_SLOPE * 0.5 * t
            assert outside.any()
            assert np.max(np.abs(np.abs(state.values[outside]) - 0.5)) < 1e-2

        # (b) first central peak: timing within +-0.5, height within 25%
        idx = central_node_index(cfg)
        dens = np.array([abs(s.values[idx]) ** 2 for s in traj.states])
        peak_i = next(
            i for i in range(1, dens.size - 1)
            if dens[i] > 1.0 and dens[i] > dens[i - 1] and dens[i] >= dens[i + 1]
        )
        assert abs(traj.times[peak_i] - expected_peak_time[name]) <= 0.5
        assert abs(dens[peak_i] - dps_peak) <= 0.25 * dps_peak
    _report(7, "localized-IC reproduction")


def test_criterion_08_al_invariant_audit(wide_lattice):
    cfg = wide_lattice
    ic = dps_eval(node_grid(cfg), 0.0, DpsParams(q=0.5, t0=2.4))
    spec = IntegratorSpec(t_end=10.0, method=Method.RK4_FIXED, dt=1e-3,
                          sample_every=0.1)
    traj = integrate(System.AL, ic, cfg, spec)
    inv = traj.diagnostics["al_invariant"]
    assert np.max(np.abs(inv - inv[0])) < 1e-8 * abs(inv[0])
    bound = al_norm_bound(inv[0], cfg)
    for state in traj.states:
        assert lattice_norm(state.values, cfg) ** 2 <= bound
    _report(8, "integrable-invariant audit")


def test_criterion_09_distance_estimates(wide_lattice):
    cfg = wide_lattice
    spec = IntegratorSpec(t_end=10.0, sample_every=0.05)
    scale = math.sqrt(cfg.N * cfg.h)
    scenario = load_scenario("fig12")

    # standard localized data: linear envelope holds and D_a stays below 1
    for variant in scenario.variants:
        ic = make_initial_condition(variant.ic, cfg)
        traj_u = integrate(System.DNLS, ic, cfg, spec)
        traj_phi = integrate(System.AL, ic, cfg, spec)
        report = build_proximity_report(traj_u, traj_phi, cfg)
        assert np.all(report.D_a * scale <= report.bound_II * scale + 1e-9)
        assert np.all(report.D_a < 1.0)
        assert report.bound_I is None  # these bumps start above the critical power

    # a below-critical-power start additionally satisfies the quadrature envelope
    low = make_initial_condition(SechBumpIC(0.45, 0.05, 1.0), cfg)
    assert averaged_power(low) < 0.25
    traj_u = integrate(System.DNLS, low, cfg, spec)
    traj_phi = integrate(System.AL, low, cfg, spec)
    report = build_proximity_report(traj_u, traj_phi, cfg)
    assert report.bound_I is not None
    assert np.all(report.D_a * scale <= report.bound_I * scale + 1e-9)
    assert np.all(report.D_a * scale <= report.bound_II * scale + 1e-9)
    _report(9, "distance estimates")


def test_criterion_10_property_suites(small_lattice):
    cfg = small_lattice
    fam = plane_wave_family(45, 1.0, 0.0, cfg)
    ic = plane_wave_exact(fam, 0.0)
    ref = plane_wave_exact(fam, 2.0)

    # fourth-order convergence of the fixed-step integrator
    def end_error(dt):
        spec = IntegratorSpec(t_end=2.0, method=Method.RK4_FIXED, dt=dt, sample_every=2.0)
        return np.max(np.abs(integrate(System.DNLS, ic, cfg, spec).states[-1].values
                             - ref.values))

    assert 14.0 <= end_error(0.02) / end_error(0.01) <= 18.0

    # spectral round trip and dominant-mode phase invariance
    rng = np.random.default_rng(12)
    state = ComplexState(rng.standard_normal(100) + 1j * rng.standard_normal(100))
    frame = spectrum(state, cfg)
    assert np.max(np.abs(reconstruct_state(frame, cfg).values - state.values)) < 1e-10
    assert spectrum(ComplexState(state.values * np.exp(0.9j)), cfg).dominant_mode \
        == frame.dominant_mode

    # sideband quadratic residuals
    for _ in range(20):
        gamma = rng.uniform(0.1, 2.0)
        delta = -gamma * rng.uniform(0.5, 2.0)
        a_star = critical_amplitude(gamma, delta)
        q, Q = rng.uniform(0, math.pi, size=2)
        gam = 4.0 * cfg.k * math.sin(0.5 * cfg.h * Q) ** 2 * math.cos(cfg.h * q)
        for lam in mi_roots(q, Q, replace(cfg, gamma=gamma, delta=delta)):
            assert abs(lam**2 - 2j * delta * a_star**2 * lam
                       - gam * (gam - 2.0 * a_star**2)) < 1e-10

    # gauge equivalence of the periodic run and the shifted Dirichlet run
    gamma, delta = 0.0025, -0.01
    a_star = critical_amplitude(gamma, delta)
    cfg_p = LatticeConfig(L=50.0, N=100, gamma=gamma, delta=delta)
    cfg_d = LatticeConfig(L=50.0, N=100, gamma=gamma, delta=delta,
                          bc=BoundaryKind.DIRICHLET_ZERO)
    u0 = make_initial_condition(SechBumpIC(a_star, 0.6, 1.0), cfg_p)
    U0 = ComplexState(u0.values - a_star)
    spec = IntegratorSpec(t_end=5.0, sample_every=0.5)
    traj_u = integrate(System.DNLS, u0, cfg_p, spec)
    traj_U = integrate(System.SHIFTED, U0, cfg_d, spec, background=a_star)
    interior = np.abs(node_grid(cfg_p).x) <= 25.0
    for t, su, sU in zip(traj_u.times, traj_u.states, traj_U.states):
        rebuilt = (sU.values + a_star) * np.exp(1j * a_star**2 * t)
        assert np.max(np.abs((su.values - rebuilt)[interior])) < 1e-6
    _report(10, "property suites")


def test_fig8_relaxes_onto_the_alternating_mode():
    # Catalog fig8 at full horizon: the noise-free bump starts mirror
    # symmetric bit for bit and stays so, which selects the only nonzero
    # mirror-symmetric plane wave, DFT mode N/2 = 50.  Its final 1 - P_a is
    # the integrator's displacement of the attractor: 5.8e-11 under the
    # catalog's DOP853 at rtol 1e-10, 2.2e-8 under DP54 at rtol 1e-9.
    spec = load_scenario("fig8")
    cfg = spec.cfg
    ic = make_initial_condition(spec.variants[0].ic, cfg)
    traj = integrate(System.DNLS, ic, cfg, spec.integrator)
    assert traj.times[-1] == 600.0

    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    verdict = attractor_verdict(traj, cfg, a_star, tol_amp=1e-3, t_window=50.0)
    assert verdict.converged
    assert verdict.final_mode == cfg.N // 2
    assert verdict.in_stable_band
    assert power_bound_check(traj, cfg)[0]
    mirror = np.roll(traj.values[:, ::-1], 1, axis=1)  # u_n -> u_{-n}, x_n = -L + n h
    assert np.max(np.abs(mirror - traj.values)) == 0.0
    assert abs(1.0 - traj.diagnostics["P_a"][-1]) < 2.2e-9  # a tenth of DP54's
    print("fig8 (relaxation onto the alternating mode): PASS")
