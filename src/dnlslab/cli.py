"""Command-line front end.

Subcommands: ``simulate``, ``mi-scan``, ``gate``, ``attractor-check``,
``list-scenarios``.  A run does what its scenario, from the catalog or from a
file, describes; only ``--smoke`` caps its horizon.  Data products land under
``<out>/<scenario>/``; the output root defaults to ``./out`` and can be
overridden by ``--out`` or the ``DNLS_OUT`` environment variable.
Exit codes: 0 success, 2 validation/usage error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analysis import ATTRACTOR_TOL, attractor_verdict, mi_scan
from .core import (
    GATE_TOL,
    GeneralizedBCSpec,
    LatticeConfig,
    _validate_mode,
    critical_amplitude,
    generalized_gate,
    make_initial_condition,
    solvability_gate,
)
from .errors import RuntimeFailure, ValidationFailure
from .products import (
    RunManifest,
    write_center_density_csv,
    write_density_csv,
    write_manifest,
    write_mi_scan_csv,
    write_phase_plane_csv,
    write_proximity_csv,
    write_spectrum_csv,
    write_wedge_csv,
)
from .proximity import build_proximity_report
from .scenarios import (
    ScenarioSpec,
    apply_noise,
    catalog,
    load_scenario,
    smoke_variant,
)
from .timestep import System, integrate


def _out_root(args) -> Path:
    return Path(args.out or os.environ.get("DNLS_OUT", "out"))


def _resolve_scenario(args) -> ScenarioSpec:
    spec = load_scenario(args.scenario)
    return smoke_variant(spec) if args.smoke else spec


def _initial_state(spec: ScenarioSpec, variant):
    """Initial state of a variant of ``spec``, with the scenario's noise floor."""
    return apply_noise(make_initial_condition(variant.ic, spec.cfg),
                       spec.noise_amp, spec.noise_seed)


def _gate_record(spec: ScenarioSpec) -> dict:
    """The solvability gate of the run; ``a_star`` and ``solvable`` are null
    on lattices without linear gain and nonlinear loss, where no critical
    amplitude exists."""
    gamma, delta = spec.cfg.gamma, spec.cfg.delta
    applicable = gamma > 0 and delta < 0
    return {
        "background": spec.background,
        "a_star": critical_amplitude(gamma, delta) if applicable else None,
        "solvable": solvability_gate(spec.background, gamma, delta) if applicable else None,
        "tolerance": GATE_TOL,
    }


def _lattice_record(cfg: LatticeConfig) -> dict:
    """The lattice's entries of a manifest's parameters."""
    return {"L": cfg.L, "N": cfg.N, "h": cfg.h, "k": cfg.k,
            "gamma": cfg.gamma, "delta": cfg.delta, "bc": cfg.bc.value}


def _base_manifest(spec: ScenarioSpec) -> RunManifest:
    return RunManifest(
        scenario=spec.name,
        parameters={
            **_lattice_record(spec.cfg),
            "systems": [s.value for s in spec.systems],
            "variants": [v.label for v in spec.variants],
        },
        gate=_gate_record(spec),
        integrator={
            "method": spec.integrator.method.value,
            "dt": spec.integrator.dt,
            "rtol": spec.integrator.rtol,
            "atol": spec.integrator.atol,
            "t_end": spec.integrator.t_end,
            "sample_every": spec.integrator.sample_every,
        },
        software_version=__version__,
        noise={"amp": spec.noise_amp, "seed": spec.noise_seed},
    )


@contextmanager
def _run_dir(out_root: Path, manifest: RunManifest):
    """The one writer of a run directory.

    Creates ``<out>/<manifest.scenario>`` and removes the manifest of an
    earlier run there and the products it lists (files no manifest lists are
    left alone), all before the body does any work.  Yields the directory;
    only when the body returns does it record the body's wall time and write
    ``manifest.json``, last."""
    name = manifest.scenario
    if name in (".", "..") or Path(name).name != name:
        raise ValidationFailure(f"run name {name!r} must be a single directory name")
    out_dir = out_root / name
    out_dir.mkdir(parents=True, exist_ok=True)
    record = out_dir / "manifest.json"
    if record.is_file():
        try:
            listed = json.loads(record.read_text(encoding="utf-8"))["products"]
        except (ValueError, KeyError, TypeError):
            listed = None
        if not (isinstance(listed, list) and all(isinstance(p, str) for p in listed)):
            raise ValidationFailure(
                f"{record} is not a run manifest; remove it or pick another --out"
            )
        for product in listed + ["manifest.json"]:
            path = out_dir / product
            if Path(product).name == product and path.is_file():
                path.unlink()
    started = time.perf_counter()
    yield out_dir
    manifest.wall_time_s = time.perf_counter() - started
    write_manifest(record, manifest)


def run_scenario(spec: ScenarioSpec, out_root: Path) -> Path:
    """Run every (variant, system) pair of a scenario and emit its products."""
    manifest = _base_manifest(spec)
    cfg = spec.cfg
    single = len(spec.systems) == 1 and len(spec.variants) == 1

    def emit(writer, stem: str, system: System | None, label: str, *args) -> None:
        """Write one product with ``writer`` and list it in the manifest."""
        if single:
            path = out_dir / f"{stem}.csv"
        else:
            sys_part = f"__{system.value}" if system is not None else ""
            path = out_dir / f"{stem}{sys_part}__{label}.csv"
        writer(path, *args)
        manifest.products.append(path.name)

    def run_variant(variant) -> None:
        """Integrate one variant and emit its products; its trajectories
        are freed on return, before the next variant integrates."""
        ic = _initial_state(spec, variant)
        trajs = {system: integrate(system, ic, cfg, spec.integrator) for system in spec.systems}

        for system, traj in trajs.items():
            for kind in spec.outputs:
                if kind == "densities":
                    emit(write_density_csv, "density", system, variant.label, traj, cfg)
                elif kind == "spectrum":
                    emit(write_spectrum_csv, kind, system, variant.label, traj, cfg)
                elif kind == "phase_plane":
                    emit(write_phase_plane_csv, kind, system, variant.label, traj, cfg)
                elif kind == "center_density":
                    emit(write_center_density_csv, kind, system, variant.label,
                         traj, cfg, variant.dps_reference)

        if "wedge" in spec.outputs:
            some_traj = next(iter(trajs.values()))
            emit(write_wedge_csv, "wedge", None, variant.label,
                 some_traj.times, variant.background)
        if "proximity" in spec.outputs:
            report = build_proximity_report(trajs[System.DNLS], trajs[System.AL], cfg)
            emit(write_proximity_csv, "proximity", None, variant.label, report)
            manifest.extra[f"proximity__{variant.label}"] = {
                "alpha": report.alpha,
                "N0": report.N0,
                "smallness_ok": report.smallness.ok,
                "smallness_lhs": report.smallness.lhs,
                "smallness_rhs": report.smallness.rhs,
                "estimate_I_hypothesis": report.bound_I is not None,
            }

    with _run_dir(out_root, manifest) as out_dir:
        for variant in spec.variants:
            run_variant(variant)
    return out_dir


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_list_scenarios(args) -> int:
    for name, spec in sorted(catalog().items()):
        print(f"{name:8s} {spec.description}")
    return 0


def _cmd_gate(args) -> int:
    a_star = critical_amplitude(args.gamma, args.delta)
    print(f"A* = {a_star:.17g}")
    if args.a is not None:
        verdict = solvability_gate(args.a, args.gamma, args.delta)
        print(f"solvable(A={args.a:g}): {'yes' if verdict else 'no'}")
    if args.zeta is not None or args.g_freq is not None:
        if args.zeta is None or args.g_freq is None:
            raise ValidationFailure("--zeta and --g-freq must be given together")
        spec = GeneralizedBCSpec(zeta_minus=complex(args.zeta), zeta_plus=complex(args.zeta),
                                 G=args.g_freq)
        verdict = generalized_gate(spec, args.gamma, args.delta)
        print(f"generalized(zeta={spec.zeta:g}, G={args.g_freq:g}): "
              f"{'yes' if verdict else 'no'}")
    return 0


def _cmd_simulate(args) -> int:
    spec = _resolve_scenario(args)
    out_dir = run_scenario(spec, _out_root(args))
    print(f"wrote {out_dir}")
    return 0


def _cmd_mi_scan(args) -> int:
    cfg = LatticeConfig(L=args.L, N=args.N, gamma=args.gamma, delta=args.delta)
    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    # a carrier out of range exits 2 before the run directory is touched
    carriers = ([_validate_mode(args.carrier, cfg.N)] if args.carrier is not None
                else list(range(cfg.N // 2 + 1)))
    manifest = RunManifest(
        scenario="mi_scan",
        parameters={**_lattice_record(cfg), "carriers": carriers},
        gate={"a_star": a_star},
        integrator={},
        software_version=__version__,
        products=["mi_scan.csv"],
    )
    with _run_dir(_out_root(args), manifest) as out_dir:
        scans = [mi_scan(k, cfg, a_star, cfg.delta) for k in carriers]
        write_mi_scan_csv(out_dir / "mi_scan.csv", scans)
    for scan in scans:
        verdict = "unstable" if scan.carrier_unstable else "stable"
        print(f"K={scan.K:3d}  {verdict:8s}  band={sorted(scan.unstable_band)}")
    print(f"wrote {out_dir}")
    return 0


def _cmd_attractor_check(args) -> int:
    spec = _resolve_scenario(args)
    if System.DNLS not in spec.systems:
        raise ValidationFailure("attractor-check needs a gain/loss lattice run")
    # only the first variant of the gain/loss lattice is integrated and no
    # product is written, so the manifest describes only that run
    spec = replace(spec, systems=(System.DNLS,), variants=spec.variants[:1], outputs=())
    cfg = spec.cfg
    a_star = critical_amplitude(cfg.gamma, cfg.delta)
    manifest = _base_manifest(spec)
    with _run_dir(_out_root(args), manifest):
        traj = integrate(System.DNLS, _initial_state(spec, spec.variants[0]), cfg,
                         spec.integrator)
        # the final min(5, t_end/2) of the run, judged within ATTRACTOR_TOL
        window = min(5.0, spec.integrator.t_end / 2)
        verdict = attractor_verdict(traj, cfg, a_star, t_window=window)
        manifest.extra["attractor_verdict"] = {
            "converged": verdict.converged,
            "final_mode": verdict.final_mode,
            "in_stable_band": verdict.in_stable_band,
            "tol_amp": ATTRACTOR_TOL,
            "t_window": window,
        }
    print(f"converged={verdict.converged} final_mode={verdict.final_mode} "
          f"in_stable_band={verdict.in_stable_band}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnlslab",
        description="Gain/loss lattice simulator and analysis toolkit",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        """A subcommand parser without prefix matching: an abbreviated or a
        removed flag is an unknown option, not a longer one."""
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = add_parser("list-scenarios", help="print the scenario catalog")
    p.set_defaults(fn=_cmd_list_scenarios)

    p = add_parser("gate", help="print the critical amplitude and gate verdicts")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--a", type=float, default=None, help="background amplitude to test")
    p.add_argument("--zeta", type=float, default=None,
                   help="boundary value on both sides; the gate reads its modulus")
    p.add_argument("--g-freq", type=float, default=None, help="boundary frequency parameter G")
    p.set_defaults(fn=_cmd_gate)

    def add_run_args(p):
        p.add_argument("--scenario", required=True,
                       help="catalog name or path to a scenario file")
        p.add_argument("--out", default=None, help="output root (default: $DNLS_OUT or ./out)")
        p.add_argument("--smoke", action="store_true", help="cap the horizon at t=10")

    p = add_parser("simulate", help="run a scenario and emit its data products")
    add_run_args(p)
    p.set_defaults(fn=_cmd_simulate)

    p = add_parser("mi-scan", help="sideband growth map for one or all carriers")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--carrier", type=int, default=None, help="carrier mode K (default: all)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_mi_scan)

    p = add_parser("attractor-check", help="long-run convergence verdict")
    add_run_args(p)
    p.set_defaults(fn=_cmd_attractor_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeFailure as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
