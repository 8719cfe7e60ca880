"""Catalog validation and the scenario file parser."""
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dnlslab.core import AlgebraicBumpIC, LatticeConfig, PlaneWaveIC, make_initial_condition
from dnlslab.errors import DomainError, ParseError, ValidationError
from dnlslab.proximity import DpsParams
from dnlslab.scenarios import (
    ScenarioSpec,
    ScenarioVariant,
    apply_noise,
    catalog,
    load_scenario,
    smoke_variant,
)
from dnlslab.timestep import IntegratorSpec, System


EXPECTED_NAMES = {
    "fig5", "fig6", "fig8", "fig9a", "fig9b", "fig9c", "fig9d",
    "fig10a", "fig10b", "fig11", "fig12",
}


def test_catalog_is_complete_and_validated():
    specs = catalog()
    assert set(specs) == EXPECTED_NAMES
    for spec in specs.values():
        assert isinstance(spec, ScenarioSpec)
        # every variant's IC must evaluate on its lattice
        for variant in spec.variants:
            make_initial_condition(variant.ic, spec.cfg)


def test_background_is_each_variants_initial_condition():
    for spec in catalog().values():
        for variant in spec.variants:
            assert spec.background == variant.background
            ic = variant.ic
            assert variant.background == (ic.amplitude if isinstance(ic, PlaneWaveIC)
                                          else ic.background)
            if variant.dps_reference is not None:
                assert variant.dps_reference.q == spec.background


def test_variants_on_different_backgrounds_rejected():
    with pytest.raises(ValidationError, match="one background"):
        ScenarioSpec(
            name="split", description="", systems=(System.DNLS,),
            cfg=LatticeConfig(L=50.0, N=100, gamma=0.0025, delta=-0.01),
            variants=(ScenarioVariant("a", AlgebraicBumpIC(0.5, 1.0, 1.0, 4.0)),
                      ScenarioVariant("b", AlgebraicBumpIC(0.6, 1.0, 1.0, 4.0))),
            integrator=IntegratorSpec(t_end=1.0), outputs=("densities",),
        )


def test_rogue_profile_sits_on_its_variants_background():
    spec = catalog()["fig11"]
    variant = spec.variants[0]
    # the profile's background is the initial condition's, not a field
    with pytest.raises(TypeError):
        replace(variant, dps_reference=DpsParams(q=0.7, t0=2.4))
    moved = replace(variant, ic=replace(variant.ic, background=0.7))
    assert moved.dps_reference == DpsParams(q=0.7, t0=variant.dps_t0)
    with pytest.raises(DomainError):
        replace(spec, variants=(replace(variant, ic=replace(variant.ic, background=0.0)),))


def test_fig6_resolved_parameters():
    spec = load_scenario("fig6")
    cfg = spec.cfg
    assert (cfg.L, cfg.h, cfg.N) == (50.0, 1.0, 100)
    assert (cfg.gamma, cfg.delta) == (1.5, -1.5)
    ic = spec.variants[0].ic
    assert isinstance(ic, PlaneWaveIC)
    assert ic.mode == 8 and ic.perturbation == 2.0
    assert spec.integrator.t_end == 3700.0
    assert spec.noise_amp == 1e-12


def test_fig9a_resolved_parameters():
    spec = load_scenario("fig9a")
    cfg = spec.cfg
    assert (cfg.L, cfg.h, cfg.N) == (200.0, 1.0, 400)
    assert (cfg.gamma, cfg.delta) == (0.0025, -0.01)
    ic = spec.variants[0].ic
    assert isinstance(ic, AlgebraicBumpIC)
    assert (ic.lam1, ic.lam2, ic.lam3) == (1.0, 1.0, 4.0)
    assert ic.background == 0.5
    assert spec.variants[0].dps_reference.t0 == 2.40


def test_fig12_is_paired():
    spec = load_scenario("fig12")
    assert set(spec.systems) == {System.DNLS, System.AL}
    assert "proximity" in spec.outputs


def test_smoke_variant_caps_horizon():
    spec = load_scenario("fig6")
    capped = smoke_variant(spec)
    assert capped.integrator.t_end == 10.0
    short = load_scenario("fig12")
    assert smoke_variant(short) is short


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

GOOD_FILE = """\
# paired comparison on a small lattice
name = demo
systems = dnls, al
L = 50
N = 100
gamma = 0.0025
delta = -0.01
ic = sech
background = 0.5
sigma = 0.6
rho = 1.0
t_end = 5
sample_every = 0.25
outputs = proximity
dps_t0 = 3.3
"""


def test_parse_good_file(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(GOOD_FILE)
    spec = load_scenario(path)
    assert spec.name == "demo"
    assert set(spec.systems) == {System.DNLS, System.AL}
    assert spec.cfg.N == 100
    assert spec.variants[0].dps_reference.q == 0.5  # defaults to the background


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(examples) == 1
    path = tmp_path / "readme_example.cfg"
    path.write_text(examples[0])
    spec = load_scenario(path)
    assert spec.name == "demo"
    assert spec.outputs == ("proximity",)


def test_missing_required_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_FILE.replace("delta = -0.01\n", ""))
    with pytest.raises(ParseError, match="delta"):
        load_scenario(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_FILE + "mystery = 1\n")
    with pytest.raises(ParseError, match="mystery"):
        load_scenario(path)


def test_syntax_error_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("L = 50\nthis line has no equals\n")
    with pytest.raises(ParseError, match="line 2"):
        load_scenario(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_FILE + "L = 25\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_scenario(path)


def test_non_numeric_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_FILE.replace("gamma = 0.0025", "gamma = fast"))
    with pytest.raises(ParseError, match="gamma"):
        load_scenario(path)


def test_missing_ic_parameter(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_FILE.replace("rho = 1.0\n", ""))
    with pytest.raises(ParseError, match="rho"):
        load_scenario(path)


def test_precondition_violation_is_validation_error(tmp_path):
    path = tmp_path / "bad.cfg"
    content = GOOD_FILE.replace("ic = sech", "ic = planewave").replace(
        "sigma = 0.6\nrho = 1.0\n", "amplitude = 1\nperturbation = 0\nmode = 999\n"
    )
    path.write_text(content.replace("background = 0.5\n", ""))
    with pytest.raises(ValidationError):
        load_scenario(path)


def test_rogue_reference_accepts_spacing_within_rounding(tmp_path):
    # h = 2L/N is 2 ulp above 1 here; the rogue profile allows |h - 1| <= 1e-12
    path = tmp_path / "near_unit.cfg"
    path.write_text(GOOD_FILE.replace("L = 50\n", "L = 50.00000000000001\n")
                    .replace("outputs = proximity", "outputs = center_density"))
    spec = load_scenario(path)
    assert spec.cfg.h != 1.0


def test_unknown_scenario_name():
    with pytest.raises(ValidationError, match="neither"):
        load_scenario("fig99")


def test_apply_noise_is_seeded_and_optional():
    spec = load_scenario("fig6")
    ic = make_initial_condition(spec.variants[0].ic, spec.cfg)
    a = apply_noise(ic, 1e-12, 7)
    b = apply_noise(ic, 1e-12, 7)
    c = apply_noise(ic, 1e-12, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert apply_noise(ic, 0.0, 7) is ic
    assert np.max(np.abs(a.values - ic.values)) < 1e-11
