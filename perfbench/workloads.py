"""The three benchmark workloads: inputs drawn from a seed, one timed pass,
and the physical checks each pass must satisfy.

Every workload is a closed loop with one client: a pass issues its
operations one after another in a single thread.  The program sees only the
generated inputs, through its public functions.  All calls go through module
attributes (``cli.run_scenario``, ``timestep.integrate`` ...) so that the
tracer's wrappers, when installed, see them.

A workload is described by three functions:

* ``prepare(seed)``     - set-up: resolve scenarios, draw inputs, build ICs;
* ``run_pass(inp, out)`` - the timed pass; returns one record per operation;
* ``check(inp, op)``     - list of failed physical checks of one operation.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from dnlslab import analysis, cli, core, proximity, scenarios, timestep

# Noise floor added to every catalog IC; its seed is the benchmark seed.
NOISE_AMP = 1e-12

System = timestep.System


# ---------------------------------------------------------------------------
# Observing integrate: exact work done and the trajectories the checks need
# ---------------------------------------------------------------------------

@dataclass
class Observed:
    """What the integrate observer saw during one operation."""

    horizon: float = 0.0                    # time integrated, summed over runs
    work: float = 0.0                       # sum of N * integrated horizon
    samples: list[int] = field(default_factory=list)
    al_drift: list[float] = field(default_factory=list)
    keep: list = field(default_factory=list)  # (system, cfg, traj) when asked


class IntegrateObserver:
    """Wraps ``integrate`` under every name the program and the benchmark
    call it by.  It records scalars only, unless an operation asks to keep
    its trajectories, so it does not change the pass's memory profile."""

    NAMES = ((cli, "integrate"), (analysis, "integrate"), (timestep, "integrate"))

    def __init__(self) -> None:
        self.current: Observed | None = None
        self.keep_trajectories = False

    def install(self) -> None:
        for module, name in self.NAMES:
            setattr(module, name, self._wrap(getattr(module, name)))

    def _wrap(self, fn):
        def observed_integrate(system, ic, cfg, spec, *args, **kwargs):
            traj = fn(system, ic, cfg, spec, *args, **kwargs)
            obs = self.current
            if obs is not None:
                span = float(traj.times[-1] - traj.times[0])
                obs.horizon += span
                obs.work += cfg.N * span
                obs.samples.append(len(traj.times))
                if system is System.AL:
                    inv = traj.diagnostics["al_invariant"]
                    obs.al_drift.append(float(np.max(np.abs(inv - inv[0])) / abs(inv[0])))
                if self.keep_trajectories:
                    obs.keep.append((system, cfg, traj))
            return traj

        return observed_integrate


@dataclass
class Op:
    """One operation of a pass: its name, result, observation, and error."""

    name: str
    obs: Observed
    result: object = None
    error: str | None = None


def _run_ops(observer: IntegrateObserver, ops) -> list[Op]:
    """Run (name, thunk, keep) operations in order, isolating failures."""
    done = []
    for name, thunk, keep in ops:
        op = Op(name, Observed())
        observer.current, observer.keep_trajectories = op.obs, keep
        try:
            op.result = thunk()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        observer.current, observer.keep_trajectories = None, False
        done.append(op)
    return done


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    workload: str
    seed: int
    specs: list                      # catalog scenarios, noise floor applied
    ics: list                        # built as part of set-up; run_scenario rebuilds its own
    oracle_carriers: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


SMALL = dict(L=50.0, N=100, gamma=1.5, delta=-1.5)      # fig5/fig6 lattice
WIDE = dict(L=200.0, N=400, gamma=0.0025, delta=-0.01)  # fig9/fig12 lattice
GAUGE = dict(L=50.0, N=100, gamma=0.0025, delta=-0.01)  # criterion 10 pair
WIDE_SCENARIOS = ("fig9a", "fig9c", "fig10a", "fig11")


def _catalog_spec(name: str, seed: int, noise_amp: float):
    spec = scenarios.load_scenario(name)
    return replace(spec, noise_amp=noise_amp, noise_seed=seed)


def _catalog_ics(spec) -> list:
    return [
        scenarios.apply_noise(
            core.make_initial_condition(v.ic, spec.cfg), spec.noise_amp, spec.noise_seed
        )
        for v in spec.variants
    ]


def prepare(workload: str, seed: int, noise_amp: float = NOISE_AMP) -> Inputs:
    """Set-up: resolve the scenarios, draw the seeded inputs, build the ICs."""
    if workload == "long_run":
        specs = [_catalog_spec("fig8", seed, noise_amp)]
    elif workload == "wide_products":
        specs = [_catalog_spec(n, seed, noise_amp) for n in WIDE_SCENARIOS]
    elif workload == "ensemble":
        specs = [_catalog_spec("fig12", seed, noise_amp)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ics = [ic for spec in specs for ic in _catalog_ics(spec)]
    inp = Inputs(workload, seed, specs, ics)
    if workload != "ensemble":
        return inp

    rng = np.random.default_rng(seed)
    # One carrier from each pair (1,2), (3,4), ..., (21,22), plus both band-edge
    # carriers 23 and 24, whose slow growth makes them the costliest oracles:
    # every seed covers the unstable band K=1..24 at nearly the same cost.
    inp.oracle_carriers = [int(2 * j + 1 + rng.integers(2)) for j in range(11)] + [23, 24]
    wide = core.LatticeConfig(**WIDE)
    low = scenarios.apply_noise(
        core.make_initial_condition(core.SechBumpIC(0.45, 0.05, 1.0), wide), noise_amp, seed
    )
    g = GAUGE
    a_star = core.critical_amplitude(g["gamma"], g["delta"])
    cfg_p = core.LatticeConfig(**g)
    cfg_d = core.LatticeConfig(**g, bc=core.BoundaryKind.DIRICHLET_ZERO)
    u0 = scenarios.apply_noise(
        core.make_initial_condition(core.SechBumpIC(a_star, 0.6, 1.0), cfg_p), noise_amp, seed
    )
    inp.ics += [low, u0]
    inp.extra = dict(
        small=core.LatticeConfig(**SMALL), wide=wide, low=low,
        cfg_p=cfg_p, cfg_d=cfg_d, u0=u0, U0=core.ComplexState(u0.values - a_star),
        a_star_gauge=a_star,
    )
    return inp


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(inp: Inputs, observer: IntegrateObserver, out_root: Path) -> list[Op]:
    """One timed pass.  ``out_root`` must be an empty directory."""
    if inp.workload == "long_run":
        spec = inp.specs[0]
        return _run_ops(observer, [
            (spec.name, lambda: cli.run_scenario(spec, out_root), True),
        ])
    if inp.workload == "wide_products":
        return _run_ops(observer, [
            (spec.name, (lambda s=spec: cli.run_scenario(s, out_root)), False)
            for spec in inp.specs
        ])
    return _run_ops(observer, _ensemble_ops(inp, out_root))


def _oracle(K: int, cfg):
    scan = analysis.mi_scan(K, cfg, 1.0, cfg.delta)
    m_star = int(np.argmax(scan.growth))
    fit = analysis.mi_growth_oracle(K, m_star, cfg, cfg.gamma, cfg.delta)
    return fit, float(scan.growth[m_star])


def _mi_scan_all(cfg):
    a_star = core.critical_amplitude(cfg.gamma, cfg.delta)
    return [analysis.mi_scan(k, cfg, a_star, cfg.delta) for k in range(cfg.N // 2 + 1)]


def _paired_below_critical(x):
    spec = timestep.IntegratorSpec(t_end=10.0, sample_every=0.05)
    traj_u = timestep.integrate(System.DNLS, x["low"], x["wide"], spec)
    traj_phi = timestep.integrate(System.AL, x["low"], x["wide"], spec)
    return proximity.build_proximity_report(traj_u, traj_phi, x["wide"])


def _gauge_pair(x):
    spec = timestep.IntegratorSpec(t_end=5.0, sample_every=0.5)
    traj_u = timestep.integrate(System.DNLS, x["u0"], x["cfg_p"], spec)
    traj_U = timestep.integrate(
        System.SHIFTED, x["U0"], x["cfg_d"], spec, background=x["a_star_gauge"]
    )
    return traj_u, traj_U


def _ensemble_ops(inp: Inputs, out_root: Path):
    x = inp.extra
    ops = [
        (f"oracle_K{K}", (lambda K=K: _oracle(K, x["small"])), False)
        for K in inp.oracle_carriers
    ]
    spec = inp.specs[0]
    ops += [
        ("mi_scan_N400", lambda: _mi_scan_all(x["wide"]), False),
        (spec.name, lambda: cli.run_scenario(spec, out_root), False),
        ("paired_below_critical", lambda: _paired_below_critical(x), False),
        ("gauge_pair", lambda: _gauge_pair(x), False),
    ]
    return ops


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

# Rows per sample of each product: a field over all N nodes, or one row.
_FIELD_PRODUCTS = ("density", "spectrum")


def check_run_dir(out_dir: Path, N: int, samples: list[int]) -> list[str]:
    """The manifest lists exactly the files written, and every CSV has the
    rows its schema implies for the sampled trajectories."""
    fails = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = manifest["products"]
    written = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    if len(set(listed)) != len(listed) or sorted(listed) != written:
        fails.append(f"{out_dir.name}: manifest lists {sorted(listed)}, wrote {written}")
    if len(set(samples)) != 1:
        fails.append(f"{out_dir.name}: trajectories disagree on sample count {samples}")
        return fails
    n = samples[0]
    for name in written:
        kind = name.split("__")[0].removesuffix(".csv")
        expected = n * N if kind in _FIELD_PRODUCTS else n
        with open(out_dir / name, "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        if rows != expected:
            fails.append(f"{out_dir.name}/{name}: {rows} rows, expected {expected}")
    return fails


def _check_proximity_csv(path: Path) -> list[str]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    fails = []
    if not np.all(data["D_a"] <= data["bound_II"] + 1e-9):
        fails.append(f"{path.name}: D_a exceeds bound_II")
    bound_i = data["bound_I"]
    has_i = ~np.isnan(bound_i)
    if not np.all(data["D_a"][has_i] <= bound_i[has_i] + 1e-9):
        fails.append(f"{path.name}: D_a exceeds bound_I")
    return fails


def check(inp: Inputs, op: Op, out_root: Path) -> list[str]:
    """Failed physical checks of one operation (empty when it passed)."""
    if op.error is not None:
        return [f"{op.name}: raised {op.error}"]
    name = op.name
    if name in {s.name for s in inp.specs}:
        spec = next(s for s in inp.specs if s.name == name)
        fails = check_run_dir(out_root / name, spec.cfg.N, op.obs.samples)
        if inp.workload == "long_run":
            fails += _check_long_run(op)
        if spec.systems == (System.AL,):
            drift = max(op.obs.al_drift)
            if not drift < 1e-8:
                fails.append(f"{name}: AL invariant drift {drift:.3g} >= 1e-8")
        if "proximity" in spec.outputs:
            for path in sorted((out_root / name).glob("proximity*.csv")):
                fails += _check_proximity_csv(path)
        return fails
    if name.startswith("oracle_K"):
        fit, predicted = op.result
        if not (fit.grew and abs(fit.rate - predicted) <= 0.05 * predicted):
            return [f"{name}: oracle rate {fit.rate:.6g} vs mi_scan {predicted:.6g}"]
        return []
    if name == "mi_scan_N400":
        return _check_mi_scan(inp.extra["wide"], op.result)
    if name == "paired_below_critical":
        rep = op.result
        if rep.bound_I is None:
            return [f"{name}: estimate-I hypothesis failed below the critical power"]
        fails = []
        if not np.all(rep.D_a <= rep.bound_I + 1e-9):
            fails.append(f"{name}: D_a exceeds bound_I")
        if not np.all(rep.D_a <= rep.bound_II + 1e-9):
            fails.append(f"{name}: D_a exceeds bound_II")
        return fails
    if name == "gauge_pair":
        return _check_gauge(inp, *op.result)
    return [f"{name}: no check defined"]


def _check_long_run(op: Op) -> list[str]:
    (system, cfg, traj), = op.obs.keep
    fails = []
    ok, _ = timestep.power_bound_check(traj, cfg)
    if not ok:
        fails.append("power bound violated")
    a_star = core.critical_amplitude(cfg.gamma, cfg.delta)
    verdict = analysis.attractor_verdict(traj, cfg, a_star, tol_amp=1e-3, t_window=50.0)
    if not (verdict.converged and verdict.in_stable_band):
        fails.append(f"attractor verdict {verdict}")
    return fails


def _check_mi_scan(cfg, scans) -> list[str]:
    """Compare every growth rate with the sideband quadratic solved in closed
    form: max Im(Lambda) = delta*A^2 + sqrt(max(-radicand, 0))."""
    a2 = core.critical_amplitude(cfg.gamma, cfg.delta) ** 2
    K = np.arange(cfg.N // 2 + 1)[:, None]
    M = np.arange(cfg.N // 2 + 1)[None, :]
    gam = (4.0 * cfg.k * np.sin(0.5 * cfg.h * M * np.pi / cfg.L) ** 2
           * np.cos(cfg.h * K * np.pi / cfg.L))
    radicand = gam * (gam - 2.0 * a2) - (cfg.delta * a2) ** 2
    expected = cfg.delta * a2 + np.sqrt(np.maximum(-radicand, 0.0))
    got = np.array([s.growth for s in scans])
    if got.shape != expected.shape or not np.allclose(got, expected, rtol=1e-9, atol=1e-14):
        return ["mi_scan_N400: growth rates differ from the closed-form sideband roots"]
    return []


def _check_gauge(inp: Inputs, traj_u, traj_U) -> list[str]:
    x = inp.extra
    a = x["a_star_gauge"]
    interior = np.abs(core.node_grid(x["cfg_p"]).x) <= 25.0
    worst = 0.0
    for t, su, sU in zip(traj_u.times, traj_u.states, traj_U.states):
        rebuilt = (sU.values + a) * np.exp(1j * a * a * t)
        worst = max(worst, float(np.max(np.abs((su.values - rebuilt)[interior]))))
    return [] if worst < 1e-6 else [f"gauge_pair: mismatch {worst:.3g} >= 1e-6"]


def corrupt(inp: Inputs, ops: list[Op], out_root: Path) -> list[Op]:
    """A deliberately corrupted copy of a pass's result, which the checks
    must reject: it proves that they can fail."""
    if inp.workload == "long_run":
        (op,) = ops
        system, cfg, traj = op.obs.keep[0]
        states = [core.ComplexState(1.01 * s.values, t=s.t) for s in traj.states]
        diag = dict(traj.diagnostics, P_a=1.0201 * traj.diagnostics["P_a"])
        bad = replace(traj, states=states, diagnostics=diag)
        obs = replace(op.obs, keep=[(system, cfg, bad)])
        return [replace(op, obs=obs)]
    if inp.workload == "wide_products":
        # drop the last row of one product file
        path = sorted((out_root / ops[0].name).glob("*.csv"))[0]
        data = path.read_bytes()
        path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1])
        return ops
    fit, predicted = ops[0].result
    bad = replace(fit, rate=1.1 * fit.rate)
    return [replace(ops[0], result=(bad, predicted))] + ops[1:]


# ---------------------------------------------------------------------------
# RHS micro-benchmarks
# ---------------------------------------------------------------------------

def rhs_microbench(calls: int = 400, repeats: int = 9) -> dict[str, float]:
    """Median microseconds per call of the public RHS functions, after warm-up."""
    out = {}
    rng = np.random.default_rng(0)
    for n in (100, 400):
        base = dict(L=n / 2.0, N=n, gamma=0.0025, delta=-0.01)
        periodic = core.LatticeConfig(**base)
        dirichlet = core.LatticeConfig(**base, bc=core.BoundaryKind.DIRICHLET_ZERO)
        state = core.ComplexState(0.5 + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        cases = {
            "dnls": lambda: core.dnls_rhs(state, periodic),
            "al": lambda: core.al_rhs(state, periodic),
            "shifted": lambda: core.shifted_rhs(state, dirichlet, 0.5),
        }
        for name, call in cases.items():
            for _ in range(calls):
                call()
            per_call = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(calls):
                    call()
                per_call.append((time.perf_counter() - t0) / calls * 1e6)
            out[f"core.rhs_us.{name}.N{n}"] = float(np.median(per_call))
    return out


def workload_size(inp: Inputs) -> str:
    """One line naming the stated input size of a workload."""
    names = ", ".join(s.name for s in inp.specs)
    if inp.workload == "ensemble":
        return (f"oracles K={inp.oracle_carriers} (N=100); mi_scan N=400; {names}; "
                "paired below-critical run (N=400, t=10); gauge pair (N=100, t=5)")
    return names + " at full horizon"

