"""Scenario catalog and structured-text scenario files.

A scenario pins a lattice, one or more initial-condition variants, the
integrator settings, and the list of data products to emit.  The built-in
catalog reproduces the standard experiments (keys fig5 .. fig12); scenario
files use a flat ``key = value`` format with ``#`` comments and no silent
defaults for physics parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    _CLOSURES,
    AlgebraicBumpIC,
    ComplexState,
    InitialCondition,
    LatticeConfig,
    PlaneWaveIC,
    SechBumpIC,
    System,
    central_node_index,
    check_system,
    make_initial_condition,
    node_grid,
)
from .errors import ParseError, ValidationError, ValidationFailure
from .proximity import DpsParams, dps_eval, window_nodes
from .timestep import IntegratorSpec, Method

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
)


@dataclass(frozen=True)
class ScenarioVariant:
    """One initial condition of a scenario, optionally with the peak time
    ``dps_t0`` of the rogue-profile reference used by the center-density
    product."""

    label: str
    ic: InitialCondition
    dps_t0: float | None = None

    @property
    def background(self) -> float:
        """The background amplitude of the initial condition: a plane wave's
        amplitude, a bump's background."""
        return self.ic.amplitude if isinstance(self.ic, PlaneWaveIC) else self.ic.background

    @property
    def dps_reference(self) -> DpsParams | None:
        """The rogue profile on the variant's background peaking at ``dps_t0``."""
        if self.dps_t0 is None:
            return None
        return DpsParams(q=self.background, t0=self.dps_t0)


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    name: str
    description: str
    systems: tuple[System, ...]
    cfg: LatticeConfig
    variants: tuple[ScenarioVariant, ...]
    integrator: IntegratorSpec
    outputs: tuple[str, ...]
    noise_amp: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValidationError("scenario must name at least one system")
        # each system is integrated, and each output written, once per variant
        for what, names in (("system", [system.value for system in self.systems]),
                            ("output", self.outputs)):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValidationError(f"repeated {what}: {', '.join(repeated)}")
        # as run_scenario integrates them: with no background
        for system in self.systems:
            check_system(system, self.cfg)
        if not self.variants:
            raise ValidationError("scenario must define at least one initial condition")
        for out in self.outputs:
            if out not in KNOWN_OUTPUTS:
                raise ValidationError(f"unknown output product {out!r}")
        if "proximity" in self.outputs:
            if set(self.systems) != {System.DNLS, System.AL}:
                raise ValidationError("the proximity product needs paired dnls and al runs")
            if not (self.cfg.gamma > 0 and self.cfg.delta < 0):
                raise ValidationError("the proximity product needs gamma > 0 and delta < 0")
            # checked, like the rules below, by calling the function the run applies
            window_nodes(self.cfg)
        # the products that track the central node x = 0
        if {"phase_plane", "center_density"} & set(self.outputs):
            central_node_index(self.cfg)
        if self.noise_amp < 0 or self.noise_seed < 0:
            raise ValidationError("noise amplitude and seed must be nonnegative")
        # Dry-run every IC so catalog errors surface at load time.
        for variant in self.variants:
            make_initial_condition(variant.ic, self.cfg)
            if variant.dps_t0 is not None:
                # the rogue profile at x = 0, read there by center_density
                dps_eval(node_grid(self.cfg), variant.dps_t0, variant.dps_reference)
                central_node_index(self.cfg)
        # the manifest holds one gate record, so one background per scenario
        backgrounds = {variant.background for variant in self.variants}
        if len(backgrounds) > 1:
            raise ValidationError(f"the variants of a scenario must share one background, "
                                  f"got {sorted(backgrounds)}")

    @property
    def background(self) -> float:
        """The background amplitude all variants' initial conditions sit on."""
        return self.variants[0].background


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

def catalog() -> dict[str, ScenarioSpec]:
    """All built-in scenarios, fully validated.  A figure's siblings are
    derived from the first scenario of its family with ``replace``."""
    small = LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)
    small_weak = LatticeConfig(L=50.0, N=100, gamma=0.1, delta=-0.1)
    wide_crit = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
    wide_off = LatticeConfig(L=200.0, N=400, gamma=0.01, delta=-0.01)

    algebraic = AlgebraicBumpIC(background=0.5, lam1=1.0, lam2=1.0, lam3=4.0)
    sechbump = SechBumpIC(background=0.5, sigma=0.6, rho=1.0)
    alg = ScenarioVariant("algebraic", algebraic, dps_t0=2.40)
    sech = ScenarioVariant("sech", sechbump, dps_t0=3.30)
    short_dense = IntegratorSpec(t_end=10.0, sample_every=0.05)

    fig9a = ScenarioSpec(
        name="fig9a",
        description="Algebraic bump on the critical background 0.5: wedge-shaped "
                    "oscillatory core between quiescent sectors.",
        systems=(System.DNLS,),
        cfg=wide_crit,
        variants=(alg,),
        integrator=IntegratorSpec(t_end=40.0),
        outputs=("densities", "wedge", "center_density"),
    )
    fig10a = ScenarioSpec(
        name="fig10a",
        description="Algebraic bump on background 0.5 with critical amplitude 1: "
                    "the wedge rides an amplifying background.",
        systems=(System.DNLS,),
        cfg=wide_off,
        variants=(alg,),
        integrator=IntegratorSpec(t_end=40.0),
        outputs=("densities", "wedge"),
    )
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
            integrator=IntegratorSpec(t_end=10.0),
            outputs=("spectrum", "phase_plane", "densities"),
        ),
        ScenarioSpec(
            name="fig6",
            description="Unstable plane-wave carrier K=8, full horizon: fast "
                        "amplitude convergence, broadband transient, stable-mode selection.",
            systems=(System.DNLS,),
            cfg=small,
            variants=(ScenarioVariant("ap_plus2", PlaneWaveIC(1.0, 2.0, 8)),),
            # DP54 keeps the seed-1234 realisation that converges by t = 3700
            integrator=IntegratorSpec(t_end=3700.0, method=Method.DP54_ADAPTIVE,
                                      rtol=1e-9, atol=1e-11, sample_every=1.0),
            outputs=("spectrum", "phase_plane"),
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
            integrator=IntegratorSpec(t_end=600.0, sample_every=1.0),
            outputs=("spectrum", "densities"),
        ),
        fig9a,
        replace(
            fig9a,
            name="fig9b",
            description="Sech bump on the critical background 0.5: same wedge "
                        "structure as fig9a.",
            variants=(sech,),
        ),
        replace(
            fig9a,
            name="fig9c",
            description="Integrable-lattice counterpart of fig9a (same initial data).",
            systems=(System.AL,),
        ),
        replace(
            fig9a,
            name="fig9d",
            description="Integrable-lattice counterpart of fig9b (same initial data).",
            systems=(System.AL,),
            variants=(sech,),
        ),
        fig10a,
        replace(
            fig10a,
            name="fig10b",
            description="Sech bump variant of fig10a.",
            variants=(sech,),
        ),
        replace(
            fig10a,
            name="fig11",
            description="First extreme events of the off-critical runs against the "
                        "rational rogue profile on background 0.5.",
            variants=(alg, sech),
            integrator=short_dense,
            outputs=("center_density", "densities"),
        ),
        replace(
            fig9a,
            name="fig12",
            description="Paired gain/loss vs integrable runs from identical bumps: "
                        "averaged distance curves with analytic envelopes.",
            systems=(System.DNLS, System.AL),
            variants=(alg, sech),
            integrator=short_dense,
            outputs=("proximity",),
        ),
    ]
    return {spec.name: spec for spec in entries}


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_IC_KINDS = {"planewave": PlaneWaveIC, "algebraic": AlgebraicBumpIC, "sech": SechBumpIC}
_INTEGER_KEYS = frozenset({"N", "mode", "noise_seed"})
# the keys of every file; the fields of its ``ic`` kind are its other keys
_KEYS = frozenset({
    "name", "systems", "ic", "variant", "outputs", "method",
    "L", "N", "gamma", "delta",
    "t_end", "dt", "rtol", "atol", "sample_every",
    "dps_t0", "noise_amp", "noise_seed",
})
_REQUIRED = object()


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


def _number(mapping: dict[str, str], key: str, default=_REQUIRED) -> float:
    """The finite number under ``key`` (an int for the integer keys), or
    ``default`` when the key is absent; without a default the key is required."""
    if key not in mapping:
        if default is _REQUIRED:
            raise ParseError(f"missing required key {key!r}")
        return default
    raw = mapping[key]
    parse, what = (int, "an integer") if key in _INTEGER_KEYS else (float, "a number")
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ParseError(f"key {key!r}: not {what}: {raw!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"key {key!r} must be finite, got {raw!r}")
    return value


def _member(kind: type[Enum], key: str, raw: str):
    """The member of the enum ``kind`` whose value is ``raw``."""
    try:
        return kind(raw.strip())
    except ValueError as exc:
        names = ", ".join(member.value for member in kind)
        raise ParseError(f"key {key!r}: expected one of {names}, got {raw.strip()!r}") from exc


def _scenario_from_mapping(mapping: dict[str, str], fallback_name: str) -> ScenarioSpec:
    if "ic" not in mapping:
        raise ParseError("missing required key 'ic'")
    ic_kind = _IC_KINDS.get(mapping["ic"])
    if ic_kind is None:
        raise ParseError(f"key 'ic': expected one of {sorted(_IC_KINDS)}, got {mapping['ic']!r}")
    ic_keys = [f.name for f in fields(ic_kind)]
    unknown = set(mapping) - _KEYS - set(ic_keys)
    if unknown:
        raise ParseError(f"unknown keys: {', '.join(sorted(unknown))}")

    systems = tuple(_member(System, "systems", tok)
                    for tok in mapping.get("systems", "dnls").split(","))
    outputs_raw = mapping.get("outputs", "densities")
    outputs = tuple(tok.strip() for tok in outputs_raw.split(",") if tok.strip())

    def given(*keys: str) -> dict:
        """The settings among ``keys`` that the file gives; the receiving
        dataclass's own defaults stand for the others."""
        return {key: _member(Method, key, mapping[key]) if key == "method"
                else _number(mapping, key) for key in keys if key in mapping}

    try:
        # the lattice has the closure its first system runs under
        cfg = LatticeConfig(
            L=_number(mapping, "L"),
            N=_number(mapping, "N"),
            gamma=_number(mapping, "gamma"),
            delta=_number(mapping, "delta"),
            bc=_CLOSURES[systems[0]],
        )
        variant = ScenarioVariant(mapping.get("variant", "main"),
                                  ic_kind(**{key: _number(mapping, key) for key in ic_keys}),
                                  dps_t0=_number(mapping, "dps_t0", None))
        integrator = IntegratorSpec(
            t_end=_number(mapping, "t_end"),
            **given("method", "dt", "rtol", "atol", "sample_every"),
        )
        return ScenarioSpec(
            name=mapping.get("name", fallback_name),
            description="user scenario",
            systems=systems,
            cfg=cfg,
            variants=(variant,),
            integrator=integrator,
            outputs=outputs,
            **given("noise_amp", "noise_seed"),
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


def smoke_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """Copy of a scenario with the horizon capped at t = 10 (CI smoke mode)."""
    if spec.integrator.t_end <= 10.0:
        return spec
    return replace(spec, integrator=replace(spec.integrator, t_end=10.0))
