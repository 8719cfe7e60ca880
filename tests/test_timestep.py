"""Integrator behavior: order checks, diagnostics, balance laws, guards."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dnlslab.core import (
    AlgebraicBumpIC,
    BoundaryKind,
    ComplexState,
    LatticeConfig,
    PlaneWaveIC,
    al_rhs,
    critical_amplitude,
    dnls_rhs,
    make_initial_condition,
    node_grid,
    shifted_rhs,
)
from dnlslab.analysis import attractor_verdict, plane_wave_family, plane_wave_exact
from dnlslab import core, timestep
from dnlslab.errors import (
    BlowUpDetected,
    ConfigError,
    DomainError,
    GridMismatch,
    LengthMismatch,
    NeedThreeSamples,
    StepFailure,
    ValidationFailure,
)
from dnlslab.proximity import _DEFAULT_WINDOW, DpsParams, distance_curves, dps_eval
from dnlslab.scenarios import ScenarioSpec, ScenarioVariant, load_scenario, smoke_variant
from dnlslab.timestep import (
    IntegratorSpec,
    Method,
    States,
    System,
    Trajectory,
    _run,
    averaged_power,
    integrate,
    power_balance_residual,
    power_bound_check,
)


ADAPTIVE = (Method.DP54_ADAPTIVE, Method.DOP853)


@pytest.fixture
def cfg():
    return LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)


def _attractor_orbit(cfg, K=45, A0=1.0):
    fam = plane_wave_family(K, A0, 0.0, cfg)
    return plane_wave_exact(fam, 0.0), fam


class TestIntegratorSpec:
    def test_validations(self):
        with pytest.raises(ConfigError):
            IntegratorSpec(t_end=1.0, dt=0.0)
        with pytest.raises(ConfigError):
            IntegratorSpec(t_end=1.0, rtol=0.0)
        with pytest.raises(ConfigError):
            IntegratorSpec(t_end=-1.0)
        with pytest.raises(ConfigError):
            IntegratorSpec(t_end=1.0, dt=0.1, sample_every=0.05)


class TestIntegrate:
    def test_zero_state_stays_zero(self, cfg):
        ic = ComplexState(np.zeros(100, dtype=complex))
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=2.0, sample_every=0.5))
        for s in traj.states:
            assert np.all(s.values == 0)

    def test_sampling_grid(self, cfg):
        ic = ComplexState(np.zeros(100, dtype=complex))
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.25))
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert all(s.t == t for s, t in zip(traj.states, traj.times))
        assert np.all(np.diff(traj.times) > 0)

    def test_exact_orbit_amplitude_preserved(self, cfg):
        ic, _ = _attractor_orbit(cfg)
        traj = integrate(System.DNLS, ic, cfg,
                         IntegratorSpec(t_end=10.0, sample_every=0.5))
        for s in traj.states:
            assert np.max(np.abs(np.abs(s.values) - 1.0)) < 1e-6

    def test_al_rogue_peak_location_and_height(self):
        cfg = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
        ic = dps_eval(node_grid(cfg), 0.0, DpsParams(q=0.5, t0=5.0))
        traj = integrate(System.AL, ic, cfg,
                         IntegratorSpec(t_end=10.0, sample_every=0.05))
        peak_dens = np.array([np.max(np.abs(s.values) ** 2) for s in traj.states])
        i = int(np.argmax(peak_dens))
        assert abs(traj.times[i] - 5.0) <= 0.1
        assert peak_dens[i] == pytest.approx(DpsParams(0.5, 5.0).peak_density(), rel=0.02)

    def test_diagnostics_presence(self, cfg):
        ic, _ = _attractor_orbit(cfg)
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.25))
        assert "P_a" in traj.diagnostics
        assert "balance_residual" not in traj.diagnostics
        assert "al_invariant" not in traj.diagnostics

        al = integrate(System.AL, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.25))
        assert "al_invariant" in al.diagnostics

    def test_shifted_requires_background_and_dirichlet(self, cfg):
        ic = ComplexState(np.zeros(100, dtype=complex))
        with pytest.raises(ConfigError):
            integrate(System.SHIFTED, ic, cfg, IntegratorSpec(t_end=1.0))
        dcfg = LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5,
                             bc=BoundaryKind.DIRICHLET_ZERO)
        with pytest.raises(ConfigError):
            integrate(System.SHIFTED, ic, dcfg, IntegratorSpec(t_end=1.0))  # no background
        with pytest.raises(ConfigError):
            integrate(System.DNLS, ic, dcfg, IntegratorSpec(t_end=1.0))

    def test_length_mismatch(self, cfg):
        with pytest.raises(LengthMismatch):
            integrate(System.DNLS, ComplexState(np.zeros(64, dtype=complex)), cfg,
                      IntegratorSpec(t_end=1.0))

    def test_blowup_guard(self):
        # gain-gain regime collapses in finite time and must trip the guard
        cfg = LatticeConfig(L=50.0, N=100, gamma=1.0, delta=1.0)
        ic = make_initial_condition(PlaneWaveIC(2.0, 0.0, 0), cfg)
        with pytest.raises(BlowUpDetected):
            integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=5.0, sample_every=1.0))

    def test_step_failure_on_nan_rhs(self):
        y0 = np.ones(4, dtype=complex)
        calls = []

        def nan_rhs(y, out):
            calls.append(1)
            out.fill(np.nan)

        for method in ADAPTIVE:
            spec = IntegratorSpec(t_end=1.0, method=method, sample_every=1.0)
            with pytest.raises(StepFailure):
                _run(nan_rhs, y0, np.array([0.0, 1.0]), spec)
        # RK4 accepts every step, so the blow-up check stops its first one
        calls.clear()
        spec = IntegratorSpec(t_end=1.0, method=Method.RK4_FIXED, sample_every=1.0)
        with pytest.raises(BlowUpDetected, match="at t = 0.001$"):
            _run(nan_rhs, y0, np.array([0.0, 1.0]), spec)
        assert len(calls) == 1 + 4


class TestSystemRule:
    """``core.check_system`` is the one rule of the closure each system runs
    under, for the RHS wrappers, ``integrate`` and ``ScenarioSpec`` alike."""

    def test_system_is_defined_once(self):
        assert timestep.System is core.System

    @staticmethod
    def _outcome(run):
        try:
            run()
        except ValidationFailure as exc:
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("system", list(System))
    def test_wrappers_integrate_and_scenarios_agree(self, system, bc):
        cfg = LatticeConfig(L=8.0, N=16, gamma=0.5, delta=-0.5, bc=bc)
        bump = AlgebraicBumpIC(0.2, 0.3, 1.0, 1.0)
        ic = make_initial_condition(bump, cfg)
        spec = IntegratorSpec(t_end=0.01, sample_every=0.01)
        wrapper = {System.DNLS: lambda: dnls_rhs(ic, cfg), System.AL: lambda: al_rhs(ic, cfg),
                   System.SHIFTED: lambda: shifted_rhs(ic, cfg, 0.5)}[system]
        with_background = self._outcome(
            lambda: integrate(system, ic, cfg, spec, background=0.5))
        # run_scenario passes integrate no background
        without_background = self._outcome(lambda: integrate(system, ic, cfg, spec))
        scenario = self._outcome(lambda: ScenarioSpec(
            name="rule", description="", systems=(system,), cfg=cfg,
            variants=(ScenarioVariant("main", bump),), integrator=spec,
            outputs=("densities",)))
        closure_fits = (bc is BoundaryKind.DIRICHLET_ZERO) == (system is System.SHIFTED)
        assert self._outcome(wrapper) == with_background
        assert (with_background is None) == closure_fits
        assert scenario == without_background
        assert (scenario is None) == (closure_fits and system is not System.SHIFTED)


_HOOKS = [
    (System.DNLS, "dnls_rhs_values", BoundaryKind.PERIODIC),
    (System.AL, "al_rhs_values", BoundaryKind.PERIODIC),
    (System.SHIFTED, "shifted_rhs_values", BoundaryKind.DIRICHLET_ZERO),
]


def _count_hook(monkeypatch, name):
    """Replace timestep.<name> by a positional-only counter around it."""
    calls = []
    original = getattr(timestep, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(timestep, name, counted)
    return calls


class TestRhsHooks:
    """integrate evaluates the RHS only through timestep's module names, so
    a wrapper installed there sees every evaluation."""

    @staticmethod
    def _run(system, bc, spec):
        cfg = LatticeConfig(L=16.0, N=32, gamma=0.5, delta=-0.5, bc=bc)
        ic = make_initial_condition(AlgebraicBumpIC(0.2, 0.3, 1.0, 1.0), cfg)
        return integrate(system, ic, cfg, spec, background=0.5)

    def _check_evaluations(self, monkeypatch, system, name, bc, method, per_trial, extra):
        """The one check of every method: returns the number of evaluations."""
        spec = IntegratorSpec(t_end=1.0, method=method, dt=0.1, sample_every=0.5)
        plain = self._run(system, bc, spec)
        calls = _count_hook(monkeypatch, name)
        hooked = self._run(system, bc, spec)
        # one evaluation before the first step, per_trial per trial step
        # (FSAL), and extra for the one step that holds the sample at t = 0.5
        assert len(calls) > 1 + extra and (len(calls) - 1 - extra) % per_trial == 0
        assert np.array_equal(plain.values, hooked.values)
        return len(calls)

    @pytest.mark.parametrize("system,name,bc", _HOOKS)
    def test_rk4_evaluations_all_pass_the_hook(self, monkeypatch, system, name, bc):
        # ten steps of 0.1, each accepted
        assert self._check_evaluations(
            monkeypatch, system, name, bc, Method.RK4_FIXED, 4, 0) == 1 + 10 * 4

    @pytest.mark.parametrize("system,name,bc", _HOOKS)
    def test_dp54_evaluations_all_pass_the_hook(self, monkeypatch, system, name, bc):
        self._check_evaluations(monkeypatch, system, name, bc, Method.DP54_ADAPTIVE, 6, 0)

    @pytest.mark.parametrize("system,name,bc", _HOOKS)
    def test_dop853_evaluations_all_pass_the_hook(self, monkeypatch, system, name, bc):
        self._check_evaluations(monkeypatch, system, name, bc, Method.DOP853, 12, 3)

    @pytest.mark.parametrize("background", [-0.5, math.nan, math.inf])
    def test_bad_background_rejected_before_any_evaluation(self, monkeypatch, background):
        calls = _count_hook(monkeypatch, "shifted_rhs_values")
        cfg = LatticeConfig(L=16.0, N=32, gamma=0.5, delta=-0.5,
                            bc=BoundaryKind.DIRICHLET_ZERO)
        ic = ComplexState(np.zeros(32, dtype=complex))
        with pytest.raises(DomainError):
            integrate(System.SHIFTED, ic, cfg, IntegratorSpec(t_end=1.0), background=background)
        assert calls == []


# images of a state, or of every sampled state, on the node axis
def _roll7(v):
    return np.roll(v, 7, axis=-1)


def _periodic_mirror(v):  # n -> -n mod N
    return np.roll(v[..., ::-1], 1, axis=-1)


def _dirichlet_mirror(v):  # n -> N-1-n
    return v[..., ::-1]


_SYMMETRIES = [
    pytest.param(System.DNLS, BoundaryKind.PERIODIC, _roll7, id="dnls_roll7"),
    pytest.param(System.DNLS, BoundaryKind.PERIODIC, _periodic_mirror, id="dnls_mirror"),
    pytest.param(System.AL, BoundaryKind.PERIODIC, _roll7, id="al_roll7"),
    pytest.param(System.AL, BoundaryKind.PERIODIC, _periodic_mirror, id="al_mirror"),
    pytest.param(System.SHIFTED, BoundaryKind.DIRICHLET_ZERO, _dirichlet_mirror,
                 id="shifted_mirror"),
]


class TestLatticeSymmetry:
    """Every kernel computes each node by the same expression and the step
    controller's max norm ignores node order, so the roll n -> n+7 and the
    mirror n -> -n mod N of the periodic lattice, and the mirror
    n -> N-1-n of the Dirichlet lattice, hold bit for bit at any horizon,
    chaotic runs included."""

    @pytest.mark.parametrize("method,t_end", [
        (Method.DP54_ADAPTIVE, 20.0), (Method.DOP853, 20.0), (Method.RK4_FIXED, 5.0),
    ], ids=["dp54", "dop853", "rk4"])
    @pytest.mark.parametrize("system,bc,image", _SYMMETRIES)
    def test_image_of_the_start_runs_to_the_image_of_the_run(self, system, bc, image,
                                                             method, t_end):
        cfg = LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5, bc=bc)
        rng = np.random.default_rng(7)
        u0 = 0.5 * (rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N))
        assert not np.array_equal(image(u0), u0)
        spec = IntegratorSpec(t_end=t_end, method=method, dt=0.01, sample_every=1.0)
        base = integrate(system, ComplexState(u0), cfg, spec, background=0.8)
        other = integrate(system, ComplexState(image(u0)), cfg, spec, background=0.8)
        assert np.array_equal(image(base.values), other.values)


class TestOrderAndTolerance:
    def test_rk4_fourth_order_on_exact_orbit(self, cfg):
        ic, fam = _attractor_orbit(cfg)
        ref = plane_wave_exact(fam, 2.0)

        def end_error(dt):
            spec = IntegratorSpec(t_end=2.0, method=Method.RK4_FIXED, dt=dt,
                                  sample_every=2.0)
            traj = integrate(System.DNLS, ic, cfg, spec)
            return np.max(np.abs(traj.states[-1].values - ref.values))

        ratio = end_error(0.02) / end_error(0.01)
        assert 14.0 <= ratio <= 18.0

    def test_rk4_sample_is_the_step_end_state(self):
        # dt = 0.03 divides sample_every = 0.25 as nine steps of 0.25/9, so
        # the sample at t = 0.5 is the state after eighteen steps
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.1, delta=-0.1)
        ic = make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0), cfg)
        spec = IntegratorSpec(t_end=1.0, method=Method.RK4_FIXED, dt=0.03, sample_every=0.25)
        sampled = integrate(System.DNLS, ic, cfg, spec)
        stopped = integrate(System.DNLS, ic, cfg, replace(spec, t_end=0.5))
        assert sampled.times[2] == stopped.times[-1] == 0.5
        assert np.max(np.abs(sampled.values[2] - stopped.values[-1])) < 1e-13

    @staticmethod
    def _check_tolerance(method):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.1, delta=-0.1)
        ic = make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0), cfg)
        rtol, atol = 1e-9, 1e-11
        adaptive = integrate(System.DNLS, ic, cfg,
                             IntegratorSpec(t_end=10.0, method=method, rtol=rtol, atol=atol,
                                            dt=1e-3, sample_every=10.0))
        reference = integrate(System.DNLS, ic, cfg,
                              IntegratorSpec(t_end=10.0, method=Method.RK4_FIXED,
                                             dt=5e-3 / 16, sample_every=10.0))
        err = np.max(np.abs(adaptive.states[-1].values - reference.states[-1].values))
        allowance = 10.0 * (atol + rtol * np.max(np.abs(reference.states[-1].values)))
        assert err < allowance

    def test_dp54_respects_tolerance(self):
        self._check_tolerance(Method.DP54_ADAPTIVE)

    def test_dop853_respects_tolerance(self):
        self._check_tolerance(Method.DOP853)

    @pytest.mark.parametrize("K,rtol_dp54,rtol_dop853", [(5, 1e-8, 1e-8), (45, 1e-9, 1e-10)])
    def test_dop853_work_precision_on_exact_orbit(self, monkeypatch, cfg, K,
                                                   rtol_dp54, rtol_dop853):
        # DOP853 takes fewer evaluations for a smaller largest sample error.
        # On the long-wave carrier that holds at equal rtol.  Near the band
        # edge DOP853's error at equal rtol is the larger (7e-7 against 1e-7
        # at 1e-8), so it is compared there at a 10x tighter rtol.
        ic, fam = _attractor_orbit(cfg, K=K, A0=3.0)
        calls = _count_hook(monkeypatch, "dnls_rhs_values")
        work, error = {}, {}
        for method, rtol in ((Method.DP54_ADAPTIVE, rtol_dp54), (Method.DOP853, rtol_dop853)):
            calls.clear()
            traj = integrate(System.DNLS, ic, cfg,
                             IntegratorSpec(t_end=10.0, method=method, rtol=rtol,
                                            atol=rtol / 100, sample_every=0.5))
            work[method] = len(calls)
            error[method] = max(
                np.max(np.abs(s.values - plane_wave_exact(fam, t).values))
                for t, s in zip(traj.times, traj.states))
        assert work[Method.DOP853] < work[Method.DP54_ADAPTIVE]
        assert error[Method.DOP853] < error[Method.DP54_ADAPTIVE]

    def test_default_pair_beats_catalog_dp54_by_work_precision(self, monkeypatch):
        # The default, DOP853 at rtol 1e-10 / atol 1e-12, against DP54 at
        # 1e-9 / 1e-11, which fig6 keeps: on fig5's exact orbits (largest
        # sample error; 1,384 / 7.0e-9 and 1,489 / 3.4e-9 evaluations / error
        # against 3,097 / 8.9e-9 and 3,271 / 5.4e-9) and on fig9c's relative
        # AL-invariant drift (6,538 / 4.4e-12 against 14,893 / 1.0e-10) the
        # default errs no more with fewer evaluations.
        default = IntegratorSpec(t_end=1.0)
        assert (default.method, default.rtol, default.atol) == (Method.DOP853, 1e-10, 1e-12)
        fig6 = load_scenario("fig6").integrator
        assert (fig6.method, fig6.rtol, fig6.atol) == (Method.DP54_ADAPTIVE, 1e-9, 1e-11)
        calls = (_count_hook(monkeypatch, "dnls_rhs_values"),
                 _count_hook(monkeypatch, "al_rhs_values"))

        def orbit_error(spec, cfg, ic):
            fam = plane_wave_family(ic.mode, ic.amplitude + ic.perturbation, 0.0, cfg)
            traj = integrate(System.DNLS, make_initial_condition(ic, cfg), cfg, spec)
            return max(np.max(np.abs(s.values - plane_wave_exact(fam, t).values))
                       for t, s in zip(traj.times, traj.states))

        def al_drift(spec, cfg, ic):
            traj = integrate(System.AL, make_initial_condition(ic, cfg), cfg, spec)
            inv = traj.diagnostics["al_invariant"]
            return np.max(np.abs(inv - inv[0])) / abs(inv[0])

        fig5, fig9c = load_scenario("fig5"), load_scenario("fig9c")
        cases = [(f"fig5 {v.label}", orbit_error, fig5, v.ic) for v in fig5.variants]
        cases.append(("fig9c", al_drift, fig9c, fig9c.variants[0].ic))
        for label, measure, scenario, ic in cases:
            assert scenario.integrator.method is Method.DOP853
            work, error = [], []
            for spec in (scenario.integrator,
                         replace(scenario.integrator, method=Method.DP54_ADAPTIVE,
                                 rtol=1e-9, atol=1e-11)):
                for c in calls:
                    c.clear()
                error.append(measure(spec, scenario.cfg, ic))
                work.append(sum(map(len, calls)))
            assert work[0] < work[1], label
            assert error[0] <= error[1], label


class TestDenseOutput:
    """Adaptive steps are clamped only at the final time; samples inside a
    step come from the pair's continuous extension."""

    T_END = 3.0
    GRIDS = (0.1, 0.5, T_END)

    @pytest.fixture(scope="class")
    def runs(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.1, delta=-0.1)
        ic = make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0), cfg)
        return {(method, every): integrate(System.DNLS, ic, cfg,
                                           IntegratorSpec(t_end=self.T_END, method=method,
                                                          sample_every=every))
                for method in ADAPTIVE for every in self.GRIDS}

    def test_final_state_independent_of_sampling(self, runs):
        for method in ADAPTIVE:
            final = runs[method, self.T_END].states[-1].values
            for every in self.GRIDS:
                assert runs[method, every].times[-1] == self.T_END
                assert np.array_equal(runs[method, every].states[-1].values, final)

    def test_shared_sample_times_agree(self, runs):
        for method in ADAPTIVE:
            fine, coarse = runs[method, 0.1], runs[method, 0.5]
            idx = np.searchsorted(fine.times, coarse.times)
            assert np.allclose(fine.times[idx], coarse.times, rtol=0, atol=1e-12)
            for i, state in zip(idx, coarse.states):
                assert np.max(np.abs(fine.states[i].values - state.values)) <= 1e-13

    def test_interpolation_matrix_is_scipy_rk45(self):
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        assert np.array_equal(timestep._DP54.P, rk.RK45.P)

    def test_dop853_tables_are_scipy_dop853(self):
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        pair = timestep._DOP853
        assert np.array_equal(pair.A, coeffs.A[:13, :13])
        assert np.array_equal(pair.E, np.array((coeffs.E5, coeffs.E3)))
        assert np.array_equal(pair.extra, coeffs.A[13:])
        assert pair.P.shape == (16, 7)

    def test_dop853_interpolant_is_scipy_dense_output(self):
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        rng = np.random.default_rng(3)
        K = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        y0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        h = 0.37
        # scipy's F rows of Dop853DenseOutput for these stages
        dy = h * (coeffs.B @ K[:12])
        F = np.vstack((dy, h * K[0] - dy, 2.0 * dy - h * (K[12] + K[0]), h * (coeffs.D @ K)))
        dense = rk.Dop853DenseOutput(0.0, h, y0, F)
        for theta in np.linspace(0.0, 1.0, 11):
            ours = y0 + h * ((timestep._DOP853.P @ np.cumprod(np.full(7, theta))) @ K)
            assert np.max(np.abs(ours - dense(theta * h))) < 1e-12

    @pytest.mark.parametrize("A0", [1.0, 3.0])
    def test_samples_on_exact_orbit_keep_tolerance(self, monkeypatch, cfg, A0):
        ic, fam = _attractor_orbit(cfg, A0=A0)
        rtol, atol = 1e-9, 1e-11
        calls = _count_hook(monkeypatch, "dnls_rhs_values")
        for method in ADAPTIVE:
            calls.clear()
            traj = integrate(System.DNLS, ic, cfg,
                             IntegratorSpec(t_end=2.0, method=method, sample_every=0.01,
                                            rtol=rtol, atol=atol))
            # DP54 advances its 5th-order solution but estimates the error of
            # its 4th-order one, so its samples keep one local allowance.
            # DOP853's blended estimate scales like the error of the 8th-order
            # solution it advances, with no such margin, so its local errors
            # add up: the allowance is one per trial, of 12 evaluations each.
            steps = 1 if method is Method.DP54_ADAPTIVE else len(calls) // 12
            for t, state in zip(traj.times, traj.states):
                exact = plane_wave_exact(fam, t).values
                allowance = 10.0 * steps * (atol + rtol * np.max(np.abs(exact)))
                assert np.max(np.abs(state.values - exact)) < allowance


class TestAveragedPower:
    def test_constant_modulus(self, cfg):
        st = make_initial_condition(PlaneWaveIC(1.0, 2.0, 45), cfg)
        assert averaged_power(st) == pytest.approx(9.0, rel=1e-14)

    def test_zero_state(self):
        assert averaged_power(ComplexState(np.zeros(10, dtype=complex))) == 0.0

    def test_against_direct_summation_oracles(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.1, delta=-0.1)
        st = make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0), cfg)
        direct = sum(abs(v) ** 2 for v in st.values) / cfg.N
        two_pass = math.fsum(v.real**2 + v.imag**2 for v in st.values) / cfg.N
        assert averaged_power(st) == pytest.approx(direct, abs=1e-12)
        assert averaged_power(st) == pytest.approx(two_pass, abs=1e-12)


class TestPowerBalance:
    def test_hamiltonian_run_conserves_power(self):
        cfg = LatticeConfig(L=50.0, N=100, gamma=0.0, delta=0.0)
        ic = make_initial_condition(AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0), cfg)
        traj = integrate(System.DNLS, ic, cfg,
                         IntegratorSpec(t_end=5.0, sample_every=0.1))
        assert np.max(power_balance_residual(traj, cfg)) < 1e-6

    def test_exact_orbit_balances_identically(self, cfg):
        ic, _ = _attractor_orbit(cfg)
        traj = integrate(System.DNLS, ic, cfg,
                         IntegratorSpec(t_end=5.0, sample_every=0.1))
        assert np.max(power_balance_residual(traj, cfg)) < 1e-6

    def test_zero_state_residual_is_zero(self, cfg):
        ic = ComplexState(np.zeros(100, dtype=complex))
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.25))
        assert np.all(power_balance_residual(traj, cfg) == 0.0)

    def test_needs_three_samples(self, cfg):
        ic = ComplexState(np.zeros(100, dtype=complex))
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=1.0))
        with pytest.raises(NeedThreeSamples):
            power_balance_residual(traj, cfg)


class TestPowerBound:
    def test_plane_wave_saturates_bound(self, cfg):
        ic, _ = _attractor_orbit(cfg, A0=3.0)
        traj = integrate(System.DNLS, ic, cfg,
                         IntegratorSpec(t_end=10.0, sample_every=0.1))
        ok, margin = power_bound_check(traj, cfg)
        assert ok
        assert np.max(np.abs(margin)) < 1e-6
        # closed-form value of the bound at t = 1
        i = int(np.argmin(np.abs(traj.times - 1.0)))
        expected = 13.5 / (13.5 - 12.0 * math.exp(-3.0))
        assert traj.diagnostics["P_a"][i] == pytest.approx(expected, abs=1e-6)

    def test_zero_state_trivially_bounded(self, cfg):
        ic = ComplexState(np.zeros(100, dtype=complex))
        traj = integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.25))
        ok, margin = power_bound_check(traj, cfg)
        assert ok
        assert np.all(margin == 0.0)

    @pytest.mark.parametrize("above", [False, True])
    def test_random_initial_conditions(self, above):
        cfg = LatticeConfig(L=16.0, N=32, gamma=1.5, delta=-1.5)
        rng = np.random.default_rng(5 if above else 6)
        spec = IntegratorSpec(t_end=2.0, sample_every=0.1, rtol=1e-8, atol=1e-10)
        a_star2 = critical_amplitude(cfg.gamma, cfg.delta) ** 2
        for _ in range(20):
            v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            target = a_star2 * (4.0 if above else 0.5) * rng.uniform(0.5, 1.0)
            v *= math.sqrt(target / averaged_power(ComplexState(v)))
            traj = integrate(System.DNLS, ComplexState(v), cfg, spec)
            ok, _ = power_bound_check(traj, cfg)
            assert ok
            if not above:
                assert np.max(traj.diagnostics["P_a"]) < a_star2 * (1 + 1e-6)


class TestTrajectoryArray:
    """A trajectory is one (samples, N) array; ``states`` builds states on access."""

    @pytest.fixture
    def on_attractor(self, cfg):
        ic, _ = _attractor_orbit(cfg)
        return integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=10.0, sample_every=0.5))

    def test_states_view_the_array(self, on_attractor):
        traj = on_attractor
        assert isinstance(traj.states, States)
        assert traj.values.shape == (21, 100) and traj.values.dtype == np.complex128
        assert len(traj.states) == 21
        last = traj.states[-1]
        assert isinstance(last, ComplexState) and last.t == traj.times[-1] == 10.0
        assert np.array_equal(last.values, traj.values[-1])
        assert np.array_equal(traj.states[-21].values, traj.values[0])
        with pytest.raises(IndexError):
            traj.states[21]
        rows = list(traj.states)
        assert len(rows) == 21
        assert [s.t for s in rows] == traj.times.tolist()
        assert all(np.array_equal(s.values, v) for s, v in zip(rows, traj.values))

    def test_diagnostics_match_the_per_state_forms(self, on_attractor):
        traj = on_attractor
        assert traj.diagnostics["P_a"].tolist() == [averaged_power(s) for s in traj.states]

    def test_a_list_of_states_is_stacked(self, cfg, on_attractor):
        # the benchmark's corrupted copy: every state scaled by 1.01
        traj = on_attractor
        assert attractor_verdict(traj, cfg, 1.0).converged
        scaled = [ComplexState(1.01 * s.values, t=s.t) for s in traj.states]
        diag = dict(traj.diagnostics, P_a=1.0201 * traj.diagnostics["P_a"])
        bad = replace(traj, states=scaled, diagnostics=diag)
        assert isinstance(bad.states, States)
        assert np.array_equal(bad.values, 1.01 * traj.values)
        assert bad.states[-1].t == traj.times[-1]
        assert not attractor_verdict(bad, cfg, 1.0).converged

    def test_verdict_reads_the_modulus_variance_of_the_rows(self, cfg, on_attractor):
        traj = on_attractor
        ripple = 1.0 + 0.1 * np.cos(np.pi * node_grid(cfg).x / cfg.L)
        rippled = replace(traj, states=[ComplexState(ripple * s.values, t=s.t)
                                        for s in traj.states])
        assert attractor_verdict(traj, cfg, 1.0).converged
        assert not attractor_verdict(rippled, cfg, 1.0).converged

    def test_states_are_stamped_with_the_trajectory_times(self, on_attractor):
        traj = on_attractor
        shifted = replace(traj, times=traj.times + 10.0)
        assert [s.t for s in shifted.states] == (traj.times + 10.0).tolist()
        assert shifted.states.times is shifted.times

    def test_row_count_must_match_the_times(self, on_attractor):
        traj = on_attractor
        with pytest.raises(GridMismatch):
            replace(traj, states=[traj.states[0]])
        with pytest.raises(GridMismatch):
            replace(traj, times=traj.times[:-1])

    def test_empty_list(self):
        traj = Trajectory(times=np.empty(0), states=[])
        assert len(traj.states) == 0
        assert traj.values.shape == (0, 0)
        assert list(traj.states) == []

    def test_distance_curves_match_a_per_row_loop(self):
        # the paired fig12 smoke run of the first variant; the oracle sums
        # each row with the window selected by a mask, one sample at a time
        spec = smoke_variant(load_scenario("fig12"))
        cfg = spec.cfg
        ic = make_initial_condition(spec.variants[0].ic, cfg)
        traj_u = integrate(System.DNLS, ic, cfg, spec.integrator)
        traj_phi = integrate(System.AL, ic, cfg, spec.integrator)
        times, d_a, d_a_r, n_r = distance_curves(traj_u, traj_phi, cfg)

        x = node_grid(cfg).x
        mask = (x >= _DEFAULT_WINDOW[0]) & (x <= _DEFAULT_WINDOW[1])
        expected_a, expected_r = [], []
        for su, sp in zip(traj_u.states, traj_phi.states):
            diff = su.values - sp.values
            dens = diff.real**2 + diff.imag**2
            expected_a.append(math.sqrt(dens.sum() / cfg.N))
            expected_r.append(math.sqrt(dens[mask].sum() / int(mask.sum())))
        assert n_r == int(mask.sum()) == 21
        assert np.array_equal(times, traj_u.times)
        assert d_a.tolist() == expected_a
        assert d_a_r.tolist() == expected_r
