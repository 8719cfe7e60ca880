"""Scenario catalog and structured-text scenario files.

A scenario pins a lattice, one or more initial-condition variants, the
integrator settings, and the list of data products to emit.  The built-in
catalog reproduces the standard experiments (keys fig5 .. fig12); scenario
files use a flat ``key = value`` format with ``#`` comments and no silent
defaults for physics parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    AlgebraicBumpIC,
    BoundaryKind,
    ComplexState,
    InitialCondition,
    LatticeConfig,
    PlaneWaveIC,
    SechBumpIC,
    make_initial_condition,
)
from .errors import ParseError, ValidationError, ValidationFailure
from .proximity import DpsParams
from .timestep import IntegratorSpec, Method, System

__all__ = [
    "ScenarioVariant",
    "ScenarioSpec",
    "catalog",
    "load_scenario",
    "apply_noise",
    "KNOWN_OUTPUTS",
]

KNOWN_OUTPUTS = (
    "densities",
    "spectrum",
    "phase_plane",
    "center_density",
    "wedge",
    "proximity",
    "mi_scan",
)


@dataclass(frozen=True)
class ScenarioVariant:
    """One initial condition of a scenario, optionally with a rogue-profile
    reference used by the center-density product."""

    label: str
    ic: InitialCondition
    dps_reference: DpsParams | None = None


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    name: str
    description: str
    systems: tuple[System, ...]
    cfg: LatticeConfig
    variants: tuple[ScenarioVariant, ...]
    integrator: IntegratorSpec
    outputs: tuple[str, ...]
    background: float
    noise_amp: float = 0.0
    noise_seed: int = 0
    window: tuple[float, float] = (-10.0, 10.0)

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValidationError("scenario must name at least one system")
        if not self.variants:
            raise ValidationError("scenario must define at least one initial condition")
        for out in self.outputs:
            if out not in KNOWN_OUTPUTS:
                raise ValidationError(f"unknown output product {out!r}")
        if "proximity" in self.outputs and set(self.systems) != {System.DNLS, System.AL}:
            raise ValidationError("the proximity product needs paired dnls and al runs")
        for out in ("mi_scan", "proximity"):
            if out in self.outputs and not (self.cfg.gamma > 0 and self.cfg.delta < 0):
                raise ValidationError(f"the {out} product needs gamma > 0 and delta < 0")
        if "phase_plane" in self.outputs and self.cfg.N % 2 != 0:
            raise ValidationError("phase-plane tracking needs an even node count")
        if self.noise_amp < 0:
            raise ValidationError("noise amplitude must be nonnegative")
        # Dry-run every IC so catalog errors surface at load time.
        for variant in self.variants:
            make_initial_condition(variant.ic, self.cfg)


def apply_noise(state: ComplexState, amp: float, seed: int) -> ComplexState:
    """Add a seeded complex Gaussian floor, making transition times reproducible."""
    if amp == 0.0:
        return state
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(state)) + 1j * rng.standard_normal(len(state))
    return ComplexState(state.values + amp * noise / math.sqrt(2.0), t=state.t)


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

def _spec_dp54(t_end: float, sample_every: float) -> IntegratorSpec:
    return IntegratorSpec(
        t_end=t_end, method=Method.DP54_ADAPTIVE,
        dt=1e-3, rtol=1e-9, atol=1e-11, sample_every=sample_every,
    )


def catalog() -> dict[str, ScenarioSpec]:
    """All built-in scenarios, fully validated."""
    small = LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)
    small_weak = LatticeConfig(L=50.0, N=100, gamma=0.1, delta=-0.1)
    wide_crit = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
    wide_off = LatticeConfig(L=200.0, N=400, gamma=0.01, delta=-0.01)

    algebraic = AlgebraicBumpIC(background=0.5, lam1=1.0, lam2=1.0, lam3=4.0)
    sechbump = SechBumpIC(background=0.5, sigma=0.6, rho=1.0)
    dps_alg = DpsParams(q=0.5, t0=2.40)
    dps_sech = DpsParams(q=0.5, t0=3.30)

    entries = [
        ScenarioSpec(
            name="fig5",
            description="Stable plane-wave carrier K=45: spectra and phase-plane "
                        "orbits converging to the unit-amplitude limit cycle.",
            systems=(System.DNLS,),
            cfg=small,
            variants=(
                ScenarioVariant("ap_plus2", PlaneWaveIC(1.0, 2.0, 45)),
                ScenarioVariant("ap_minus0p999", PlaneWaveIC(1.0, -0.999, 45)),
            ),
            integrator=_spec_dp54(t_end=10.0, sample_every=0.1),
            outputs=("spectrum", "phase_plane", "densities"),
            background=1.0,
        ),
        ScenarioSpec(
            name="fig6",
            description="Unstable plane-wave carrier K=8, full horizon: fast "
                        "amplitude convergence, broadband transient, stable-mode selection.",
            systems=(System.DNLS,),
            cfg=small,
            variants=(ScenarioVariant("ap_plus2", PlaneWaveIC(1.0, 2.0, 8)),),
            integrator=_spec_dp54(t_end=3700.0, sample_every=1.0),
            outputs=("spectrum", "phase_plane"),
            background=1.0,
            noise_amp=1e-12,
            noise_seed=1234,
        ),
        ScenarioSpec(
            name="fig8",
            description="Algebraic bump on an off-critical background "
                        "(gamma=-delta=0.1): spectrum collapses onto one stable mode.",
            systems=(System.DNLS,),
            cfg=small_weak,
            variants=(ScenarioVariant("algebraic", algebraic),),
            integrator=_spec_dp54(t_end=600.0, sample_every=1.0),
            outputs=("spectrum", "densities"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig9a",
            description="Algebraic bump on the critical background 0.5: wedge-shaped "
                        "oscillatory core between quiescent sectors.",
            systems=(System.DNLS,),
            cfg=wide_crit,
            variants=(ScenarioVariant("algebraic", algebraic, dps_alg),),
            integrator=_spec_dp54(t_end=40.0, sample_every=0.1),
            outputs=("densities", "wedge", "center_density"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig9b",
            description="Sech bump on the critical background 0.5: same wedge "
                        "structure as fig9a.",
            systems=(System.DNLS,),
            cfg=wide_crit,
            variants=(ScenarioVariant("sech", sechbump, dps_sech),),
            integrator=_spec_dp54(t_end=40.0, sample_every=0.1),
            outputs=("densities", "wedge", "center_density"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig9c",
            description="Integrable-lattice counterpart of fig9a (same initial data).",
            systems=(System.AL,),
            cfg=wide_crit,
            variants=(ScenarioVariant("algebraic", algebraic, dps_alg),),
            integrator=_spec_dp54(t_end=40.0, sample_every=0.1),
            outputs=("densities", "wedge", "center_density"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig9d",
            description="Integrable-lattice counterpart of fig9b (same initial data).",
            systems=(System.AL,),
            cfg=wide_crit,
            variants=(ScenarioVariant("sech", sechbump, dps_sech),),
            integrator=_spec_dp54(t_end=40.0, sample_every=0.1),
            outputs=("densities", "wedge", "center_density"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig10a",
            description="Algebraic bump on background 0.5 with critical amplitude 1: "
                        "the wedge rides an amplifying background.",
            systems=(System.DNLS,),
            cfg=wide_off,
            variants=(ScenarioVariant("algebraic", algebraic, dps_alg),),
            integrator=_spec_dp54(t_end=40.0, sample_every=0.1),
            outputs=("densities", "wedge"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig10b",
            description="Sech bump variant of fig10a.",
            systems=(System.DNLS,),
            cfg=wide_off,
            variants=(ScenarioVariant("sech", sechbump, dps_sech),),
            integrator=_spec_dp54(t_end=40.0, sample_every=0.1),
            outputs=("densities", "wedge"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig11",
            description="First extreme events of the off-critical runs against the "
                        "rational rogue profile on background 0.5.",
            systems=(System.DNLS,),
            cfg=wide_off,
            variants=(
                ScenarioVariant("algebraic", algebraic, dps_alg),
                ScenarioVariant("sech", sechbump, dps_sech),
            ),
            integrator=_spec_dp54(t_end=10.0, sample_every=0.05),
            outputs=("center_density", "densities"),
            background=0.5,
        ),
        ScenarioSpec(
            name="fig12",
            description="Paired gain/loss vs integrable runs from identical bumps: "
                        "averaged distance curves with analytic envelopes.",
            systems=(System.DNLS, System.AL),
            cfg=wide_crit,
            variants=(
                ScenarioVariant("algebraic", algebraic, dps_alg),
                ScenarioVariant("sech", sechbump, dps_sech),
            ),
            integrator=_spec_dp54(t_end=10.0, sample_every=0.05),
            outputs=("proximity",),
            background=0.5,
        ),
    ]
    return {spec.name: spec for spec in entries}


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("L", "N", "gamma", "delta", "ic", "t_end")
_OPTIONAL_KEYS = (
    "name", "systems", "h", "bc",
    "amplitude", "perturbation", "mode",
    "background", "lam1", "lam2", "lam3", "sigma", "rho",
    "method", "dt", "rtol", "atol", "sample_every",
    "outputs", "window_lo", "window_hi",
    "dps_t0", "dps_q", "noise_amp", "noise_seed", "variant",
)
_IC_KEYS = {
    "planewave": ("amplitude", "perturbation", "mode"),
    "algebraic": ("background", "lam1", "lam2", "lam3"),
    "sech": ("background", "sigma", "rho"),
}


def _parse_mapping(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in mapping:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ParseError(f"line {lineno}: empty value for key {key!r}")
        mapping[key] = value
    return mapping


def _take_float(mapping: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in mapping:
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ParseError(f"key {key!r}: not a number: {mapping[key]!r}") from exc


def _take_int(mapping: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in mapping:
        if default is None:
            raise ParseError(f"missing required key {key!r}")
        return default
    try:
        return int(mapping[key])
    except ValueError as exc:
        raise ParseError(f"key {key!r}: not an integer: {mapping[key]!r}") from exc


def _scenario_from_mapping(mapping: dict[str, str], fallback_name: str) -> ScenarioSpec:
    unknown = set(mapping) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(sorted(unknown))}")
    for key in _REQUIRED_KEYS:
        if key not in mapping:
            raise ParseError(f"missing required key {key!r}")

    ic_kind = mapping["ic"]
    if ic_kind not in _IC_KEYS:
        raise ParseError(f"key 'ic': expected one of {sorted(_IC_KEYS)}, got {ic_kind!r}")
    for key in _IC_KEYS[ic_kind]:
        if key not in mapping:
            raise ParseError(f"initial condition {ic_kind!r} needs key {key!r}")

    try:
        bc = BoundaryKind(mapping.get("bc", "periodic"))
    except ValueError as exc:
        raise ParseError(f"key 'bc': {exc}") from exc
    method_name = mapping.get("method", "dp54")
    try:
        method = Method(method_name)
    except ValueError as exc:
        raise ParseError(f"key 'method': expected rk4 or dp54, got {method_name!r}") from exc

    systems_raw = mapping.get("systems", "dnls")
    try:
        systems = tuple(System(tok.strip()) for tok in systems_raw.split(","))
    except ValueError as exc:
        raise ParseError(f"key 'systems': {exc}") from exc

    outputs_raw = mapping.get("outputs", "densities")
    outputs = tuple(tok.strip() for tok in outputs_raw.split(",") if tok.strip())

    h_val = _take_float(mapping, "h", default=math.nan)
    try:
        cfg = LatticeConfig(
            L=_take_float(mapping, "L"),
            N=_take_int(mapping, "N"),
            gamma=_take_float(mapping, "gamma"),
            delta=_take_float(mapping, "delta"),
            bc=bc,
            h=None if math.isnan(h_val) else h_val,
        )
        if ic_kind == "planewave":
            ic: InitialCondition = PlaneWaveIC(
                amplitude=_take_float(mapping, "amplitude"),
                perturbation=_take_float(mapping, "perturbation"),
                mode=_take_int(mapping, "mode"),
            )
            background = _take_float(mapping, "background", default=ic.amplitude)
        elif ic_kind == "algebraic":
            ic = AlgebraicBumpIC(
                background=_take_float(mapping, "background"),
                lam1=_take_float(mapping, "lam1"),
                lam2=_take_float(mapping, "lam2"),
                lam3=_take_float(mapping, "lam3"),
            )
            background = ic.background
        else:
            ic = SechBumpIC(
                background=_take_float(mapping, "background"),
                sigma=_take_float(mapping, "sigma"),
                rho=_take_float(mapping, "rho"),
            )
            background = ic.background

        integrator = IntegratorSpec(
            t_end=_take_float(mapping, "t_end"),
            method=method,
            dt=_take_float(mapping, "dt", default=1e-3),
            rtol=_take_float(mapping, "rtol", default=1e-9),
            atol=_take_float(mapping, "atol", default=1e-11),
            sample_every=_take_float(mapping, "sample_every", default=0.1),
        )

        dps_ref = None
        if "dps_t0" in mapping:
            dps_ref = DpsParams(
                q=_take_float(mapping, "dps_q", default=background),
                t0=_take_float(mapping, "dps_t0"),
            )
        variant = ScenarioVariant(mapping.get("variant", "main"), ic, dps_ref)

        return ScenarioSpec(
            name=mapping.get("name", fallback_name),
            description="user scenario",
            systems=systems,
            cfg=cfg,
            variants=(variant,),
            integrator=integrator,
            outputs=outputs,
            background=background,
            noise_amp=_take_float(mapping, "noise_amp", default=0.0),
            noise_seed=_take_int(mapping, "noise_seed", default=0),
            window=(
                _take_float(mapping, "window_lo", default=-10.0),
                _take_float(mapping, "window_hi", default=10.0),
            ),
        )
    except ParseError:
        raise
    except ValidationFailure as exc:
        raise ValidationError(str(exc)) from exc


def load_scenario(name_or_path: str | Path) -> ScenarioSpec:
    """Resolve a catalog name or parse a scenario file into a validated spec."""
    known = catalog()
    name = str(name_or_path)
    if name in known:
        return known[name]
    path = Path(name_or_path)
    if not path.is_file():
        raise ValidationError(
            f"{name!r} is neither a catalog scenario ({', '.join(sorted(known))}) "
            "nor an existing file"
        )
    return _scenario_from_mapping(_parse_mapping(path.read_text(encoding="utf-8")), path.stem)


def smoke_variant(spec: ScenarioSpec, cap: float = 10.0) -> ScenarioSpec:
    """Copy of a scenario with the horizon capped (CI smoke mode)."""
    if spec.integrator.t_end <= cap:
        return spec
    return replace(spec, integrator=replace(spec.integrator, t_end=cap))
