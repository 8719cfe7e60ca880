"""End-to-end CLI runs, product schemas, exit codes, determinism."""
import gc
import json
import weakref
from dataclasses import fields
from enum import Enum

import numpy as np
import pytest

from dnlslab import cli
from dnlslab.cli import main
from dnlslab.core import LatticeConfig, central_node_index
from dnlslab.errors import StepFailure, ValidationError
from dnlslab.products import write_density_csv
from dnlslab.scenarios import load_scenario
from dnlslab.timestep import IntegratorSpec, Method, System, Trajectory


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig6", "fig12"):
        assert name in out


class TestGate:
    def test_prints_critical_amplitude(self, capsys):
        assert main(["gate", "--gamma", "0.0025", "--delta", "-0.01"]) == 0
        assert "A* = 0.5" in capsys.readouterr().out

    def test_solvability_verdict(self, capsys):
        assert main(["gate", "--gamma", "0.01", "--delta", "-0.01", "--a", "0.5"]) == 0
        assert "no" in capsys.readouterr().out

    def test_generalized_verdict(self, capsys):
        assert main(["gate", "--gamma", "0.0025", "--delta", "-0.01",
                     "--zeta", "0.5", "--g-freq", "0.5"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_domain_error_exits_2(self, capsys):
        assert main(["gate", "--gamma", "-1.0", "--delta", "-0.01"]) == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gate", "--gamma", "0.1"])  # missing --delta
        assert exc.value.code == 2


# Each non-finite setting, with the outputs (and systems) of a file that uses it.
NON_FINITE_SETTINGS = {
    "sample_every = nan": "densities",
    "sample_every = inf": "densities",
    "atol = inf": "densities",
    "rtol = inf": "densities",
    "dt = inf": "densities",
    "dps_t0 = nan": "densities, center_density",
    "noise_amp = nan": "densities",
}


# A file's lattice has the closure of its first system, so a later system on
# another closure breaks the closure rule; the shifted system breaks the
# background rule, since only integrate(..., background=A) runs it: a
# scenario's initial condition is the unshifted field.
SYSTEM_RULE_BREAKS = {
    "dnls_then_shifted": "systems = dnls, shifted\n",
    "shifted_dirichlet": "systems = shifted\n",
}


class TestSimulate:
    def test_fig5_smoke_products_and_manifest(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", "fig5", "--smoke",
                     "--out", str(tmp_path)]) == 0
        out_dir = tmp_path / "fig5"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["gate"]["solvable"] is True
        assert manifest["gate"]["a_star"] == 1.0
        assert manifest["software_version"]
        for name in manifest["products"]:
            assert (out_dir / name).exists(), name
        # both perturbation variants emit phase-plane traces
        names = set(manifest["products"])
        assert "phase_plane__dnls__ap_plus2.csv" in names
        assert "phase_plane__dnls__ap_minus0p999.csv" in names

    def test_fig5_orbits_converge_to_unit_circle(self, tmp_path):
        assert main(["simulate", "--scenario", "fig5", "--smoke",
                     "--out", str(tmp_path)]) == 0
        for label, start_outside in (("ap_plus2", True), ("ap_minus0p999", False)):
            rows = np.genfromtxt(
                tmp_path / "fig5" / f"phase_plane__dnls__{label}.csv",
                delimiter=",", names=True,
            )
            radius = np.hypot(rows["re_center"], rows["im_center"])
            assert abs(radius[-1] - 1.0) < 1e-3
            assert (radius[0] > 1.0) == start_outside

    def test_scenario_file_run(self, tmp_path):
        cfgfile = tmp_path / "mini.cfg"
        cfgfile.write_text(
            "L = 25\nN = 50\ngamma = 1.5\ndelta = -1.5\nic = planewave\n"
            "amplitude = 1\nperturbation = 0.5\nmode = 20\nt_end = 2\n"
            "sample_every = 0.5\noutputs = densities, spectrum\n"
        )
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(tmp_path)]) == 0
        out_dir = tmp_path / "mini"
        assert (out_dir / "density.csv").exists()
        assert (out_dir / "spectrum.csv").exists()

    def test_dop853_scenario_file_run(self, tmp_path):
        # fig9c's integrable run from a file, on the 8th-order pair: the AL
        # invariant, read back from the density product (h = 1), holds to 1e-8
        cfgfile = tmp_path / "al853.cfg"
        cfgfile.write_text(
            "systems = al\nL = 200\nN = 400\ngamma = 0.0025\ndelta = -0.01\n"
            "ic = algebraic\nbackground = 0.5\nlam1 = 1\nlam2 = 1\nlam3 = 4\n"
            "t_end = 40\nsample_every = 0.5\nmethod = dop853\noutputs = densities\n"
        )
        assert load_scenario(cfgfile).integrator.method is Method.DOP853
        assert main(["simulate", "--scenario", str(cfgfile), "--smoke",
                     "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "al853" / "density.csv", delimiter=",", skiprows=1)
        invariant = np.log1p(rows[:, 2].reshape(-1, 400)).sum(axis=1)
        assert invariant.size == 21
        assert np.max(np.abs(invariant / invariant[0] - 1.0)) < 1e-8

    def test_scenario_file_without_gain_loss(self, tmp_path):
        # no critical amplitude exists, so the gate is recorded as not applicable
        cfgfile = tmp_path / "conservative.cfg"
        cfgfile.write_text(
            "L = 25\nN = 50\ngamma = 0\ndelta = 0\nic = planewave\n"
            "amplitude = 1\nperturbation = 0.5\nmode = 20\nt_end = 2\n"
            "sample_every = 0.5\noutputs = densities\n"
        )
        assert main(["simulate", "--scenario", str(cfgfile), "--smoke",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "conservative" / "manifest.json").read_text())
        assert manifest["gate"]["a_star"] is None
        assert manifest["gate"]["solvable"] is None
        assert manifest["products"] == ["density.csv"]

    @pytest.mark.parametrize("product", ["proximity"])
    def test_gain_loss_product_without_gain_loss_rejected_at_load(
        self, tmp_path, capsys, product
    ):
        cfgfile = tmp_path / "conservative.cfg"
        cfgfile.write_text(
            "L = 25\nN = 50\ngamma = 0\ndelta = 0\nsystems = dnls, al\n"
            "ic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
            f"t_end = 2\nsample_every = 0.5\noutputs = densities, {product}\n"
        )
        out_root = tmp_path / "out"
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(out_root)]) == 2
        assert "gamma > 0 and delta < 0" in capsys.readouterr().err
        assert not (out_root / "conservative").exists()

    def test_rk4_scenario_file_run(self, tmp_path):
        # the fixed-step method from a file: 11 samples of 50 nodes to t = 1
        cfgfile = tmp_path / "rk4.cfg"
        cfgfile.write_text(
            "L = 25\nN = 50\ngamma = 1.5\ndelta = -1.5\nic = planewave\n"
            "amplitude = 1\nperturbation = 0.5\nmode = 20\nt_end = 1\n"
            "method = rk4\ndt = 0.01\n"
        )
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "rk4" / "manifest.json").read_text())
        assert manifest["integrator"]["method"] == "rk4"
        assert manifest["products"] == ["density.csv"]
        rows = np.loadtxt(tmp_path / "rk4" / "density.csv", delimiter=",", skiprows=1)
        assert rows.shape == (11 * 50, 3)
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("setting", list(NON_FINITE_SETTINGS))
    def test_non_finite_integrator_setting_rejected_at_load(self, tmp_path, capsys, setting):
        cfgfile = tmp_path / "planewave.cfg"
        cfgfile.write_text(
            "L = 50\nN = 100\ngamma = 1.5\ndelta = -1.5\nic = planewave\n"
            "amplitude = 1\nperturbation = 0.5\nmode = 20\nt_end = 1\n"
            f"outputs = {NON_FINITE_SETTINGS[setting]}\n{setting}\n"
        )
        out_root = tmp_path / "out"
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(out_root)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (out_root / "planewave").exists()

    @pytest.mark.parametrize("body, message", [
        ("L = 50\nN = 101\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "outputs = densities, center_density\n", "even node count"),
        ("L = 100\nN = 100\nic = sech\nbackground = 0.5\nsigma = 0.6\nrho = 1.0\n"
         "dps_t0 = 3.3\noutputs = densities, center_density\n", "unit spacing"),
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "noise_amp = 1e-12\nnoise_seed = -1\n", "must be nonnegative"),
        # the spacing is derived from L and N, so a file cannot set it
        ("L = 50\nN = 100\nh = 1\nic = planewave\namplitude = 1\nperturbation = 0.5\n"
         "mode = 20\n", "unknown keys: h"),
        # a plane wave's background is its amplitude, so a file cannot set another
        ("L = 50\nN = 100\nic = planewave\namplitude = 0.5\nperturbation = 0.5\nmode = 20\n"
         "background = 0.7\n", "unknown keys: background"),
        # the keys of another initial-condition kind
        ("L = 50\nN = 100\nic = planewave\namplitude = 0.5\nperturbation = 0.5\nmode = 20\n"
         "sigma = 0.6\n", "unknown keys: sigma"),
        # the rogue profile sits on the initial condition's background
        ("L = 50\nN = 100\nic = sech\nbackground = 0.5\nsigma = 0.6\nrho = 1.0\n"
         "dps_t0 = 3.3\ndps_q = 0.7\noutputs = densities, center_density\n",
         "unknown keys: dps_q"),
        # and needs that background to be positive
        ("L = 50\nN = 100\nic = sech\nbackground = 0\nsigma = 0.6\nrho = 1.0\n"
         "dps_t0 = 3.3\noutputs = densities, center_density\n",
         "q must be positive"),
        # the closure follows the systems, so a file cannot set it
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "bc = periodic\n", "unknown keys: bc"),
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "systems = dnls\nbc = dirichlet_zero\n", "unknown keys: bc"),
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "systems = al\nbc = dirichlet_zero\n", "unknown keys: bc"),
        # the proximity window is a constant
        ("L = 50\nN = 100\nic = sech\nbackground = 0.5\nsigma = 0.6\nrho = 1.0\n"
         "systems = dnls, al\noutputs = densities, proximity\nwindow_lo = -5\n",
         "unknown keys: window_lo"),
        # and needs a node in it: h = 40 puts the nearest nodes at x = -20 and 20
        ("L = 100\nN = 5\nic = sech\nbackground = 0.5\nsigma = 0.6\nrho = 1.0\n"
         "systems = dnls, al\noutputs = densities, proximity\n",
         "no lattice nodes fall in the window"),
        # the rogue profile is read at the central node, whatever the outputs
        ("L = 50.5\nN = 101\nic = sech\nbackground = 0.5\nsigma = 0.6\nrho = 1.0\n"
         "dps_t0 = 3.3\noutputs = densities\n", "even node count"),
        # the sideband map needs no integration: dnlslab mi-scan writes it
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 8\n"
         "outputs = mi_scan\n", "unknown output product 'mi_scan'"),
        # each system runs, and each product is written, once
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "systems = dnls, dnls\n", "repeated system: dnls"),
        ("L = 50\nN = 100\nic = sech\nbackground = 0.5\nsigma = 0.6\nrho = 1.0\n"
         "systems = dnls, al, al\noutputs = densities, proximity\n", "repeated system: al"),
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "outputs = densities, densities\n", "repeated output: densities"),
        # t_end / sample_every is inf, then 1e300: not every sample index is an exact float
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "dt = 5e-324\nsample_every = 5e-324\n", "t_end / sample_every must be below 2**53"),
        ("L = 50\nN = 100\nic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
         "dt = 1e-300\nsample_every = 1e-300\n", "t_end / sample_every must be below 2**53"),
    ], ids=["center_density_odd_N", "rogue_reference_h_2",
            "noise_seed_negative", "spacing_set", "planewave_background_set",
            "other_ic_kind_key", "rogue_background_set", "rogue_background_zero",
            "bc_periodic", "dnls_dirichlet", "al_dirichlet", "window_lo_set",
            "proximity_window_empty", "rogue_reference_odd_N", "mi_scan_output",
            "system_repeated", "paired_system_repeated", "output_repeated",
            "sample_ratio_inf", "sample_grid_too_large"])
    def test_scenario_precondition_rejected_at_load(
        self, tmp_path, capsys, monkeypatch, body, message
    ):
        cfgfile = tmp_path / "precondition.cfg"
        cfgfile.write_text(f"gamma = 0.0025\ndelta = -0.01\nt_end = 1\n{body}")
        _forbid_integration(monkeypatch)
        out_root = tmp_path / "out"
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(out_root)]) == 2
        assert message in capsys.readouterr().err
        assert not (out_root / "precondition").exists()

    @pytest.mark.parametrize("rule", list(SYSTEM_RULE_BREAKS))
    def test_system_rule_rejected_at_load(self, tmp_path, capsys, rule):
        plane_wave = ("name = rule\nL = 25\nN = 50\ngamma = 1.5\ndelta = -1.5\n"
                      "ic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
                      "t_end = 1\nsample_every = 0.5\n")
        cfgfile = tmp_path / "rule.cfg"
        cfgfile.write_text(plane_wave + SYSTEM_RULE_BREAKS[rule])
        with pytest.raises(ValidationError):
            load_scenario(cfgfile)
        out_root = tmp_path / "out"
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(out_root)]) == 2
        assert not (out_root / "rule").exists()
        # an earlier run of the same name keeps its manifest and products
        (tmp_path / "good.cfg").write_text(plane_wave)
        assert main(["simulate", "--scenario", str(tmp_path / "good.cfg"),
                     "--out", str(out_root)]) == 0
        before = {p.name: p.read_bytes() for p in (out_root / "rule").iterdir()}
        assert set(before) == {"density.csv", "manifest.json"}
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(out_root)]) == 2
        assert {p.name: p.read_bytes() for p in (out_root / "rule").iterdir()} == before
        err = capsys.readouterr().err
        assert "closure only" in err or "integrate(..., background=A)" in err

    def test_rerun_leaves_only_listed_products(self, tmp_path):
        def listed_exactly():
            manifest = json.loads((out_dir / "manifest.json").read_text())
            names = sorted(p.name for p in out_dir.iterdir())
            return names == sorted(manifest["products"] + ["manifest.json"])

        out_dir = tmp_path / "fig5"
        assert main(["simulate", "--scenario", "fig5", "--smoke",
                     "--out", str(tmp_path)]) == 0
        # a scenario file of the same name with a single output
        cfgfile = tmp_path / "fig5.cfg"
        cfgfile.write_text(
            "L = 25\nN = 50\ngamma = 1.5\ndelta = -1.5\nic = planewave\n"
            "amplitude = 1\nperturbation = 0.5\nmode = 20\nt_end = 1\n"
        )
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert listed_exactly()
        assert main(["simulate", "--scenario", "fig5", "--smoke",
                     "--out", str(tmp_path)]) == 0
        assert main(["attractor-check", "--scenario", "fig5", "--smoke",
                     "--out", str(tmp_path)]) == 0
        assert listed_exactly()

    def test_rerun_keeps_files_no_manifest_lists(self, tmp_path):
        out_dir = tmp_path / "fig5"
        out_dir.mkdir()
        (out_dir / "notes.csv").write_text("mine\n")
        for _ in range(2):
            assert main(["simulate", "--scenario", "fig5", "--smoke",
                         "--out", str(tmp_path)]) == 0
        assert (out_dir / "notes.csv").read_text() == "mine\n"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "notes.csv" not in manifest["products"]

    def test_foreign_manifest_is_not_replaced(self, tmp_path, capsys):
        out_dir = tmp_path / "fig5"
        out_dir.mkdir()
        (out_dir / "manifest.json").write_text('["density.csv"]\n')
        (out_dir / "density.csv").write_text("mine\n")
        assert main(["simulate", "--scenario", "fig5", "--smoke",
                     "--out", str(tmp_path)]) == 2
        assert "not a run manifest" in capsys.readouterr().err
        assert (out_dir / "manifest.json").read_text() == '["density.csv"]\n'
        assert (out_dir / "density.csv").read_text() == "mine\n"

    @pytest.mark.parametrize("name", [".", "..", "nested/name"])
    def test_run_name_outside_its_own_directory_rejected(self, tmp_path, capsys, name):
        # the run directory is cleared before a run, so it must be a child of --out
        out_root = tmp_path / "out"
        (out_root / "nested").mkdir(parents=True)
        keep = [out_root / "keep.csv", tmp_path / "keep.csv", out_root / "nested" / "keep.csv"]
        for path in keep:
            path.write_text("t\n")
        cfgfile = tmp_path / "named.cfg"
        cfgfile.write_text(
            f"name = {name}\nL = 25\nN = 50\ngamma = 1.5\ndelta = -1.5\nic = planewave\n"
            "amplitude = 1\nperturbation = 0.5\nmode = 20\nt_end = 1\n"
        )
        assert main(["simulate", "--scenario", str(cfgfile), "--out", str(out_root)]) == 2
        assert "single directory name" in capsys.readouterr().err
        assert all(path.exists() for path in keep)

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["simulate", "--scenario", "fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["simulate", "--scenario", "fig9a", "--smoke",
                         "--out", str(tmp_path / sub)]) == 0
        body_a = (tmp_path / "a" / "fig9a" / "density.csv").read_bytes()
        body_b = (tmp_path / "b" / "fig9a" / "density.csv").read_bytes()
        assert body_a == body_b

    def test_density_schema(self, tmp_path):
        assert main(["simulate", "--scenario", "fig9a", "--smoke",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fig9a" / "density.csv") as fh:
            assert fh.readline().strip() == "t,x,density"
        wedge = np.genfromtxt(tmp_path / "fig9a" / "wedge.csv",
                              delimiter=",", names=True)
        slope = 4.0 * np.sqrt(2.0) * 0.5
        assert wedge["x_plus"][-1] == pytest.approx(slope * wedge["t"][-1])


@pytest.mark.parametrize("name", sorted(
    ["fig5", "fig6", "fig8", "fig9a", "fig9b", "fig9c", "fig9d",
     "fig10a", "fig10b", "fig11", "fig12"]
))
def test_every_catalog_scenario_runs_in_smoke_mode(tmp_path, name):
    assert main(["simulate", "--scenario", name, "--smoke",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / name / "manifest.json").read_text())
    assert manifest["products"]
    # the embedded gate verdict must match a recomputation from the manifest
    from dnlslab.core import GATE_TOL, solvability_gate

    gate = manifest["gate"]
    params = manifest["parameters"]
    assert gate["tolerance"] == GATE_TOL
    assert gate["solvable"] == solvability_gate(
        gate["background"], params["gamma"], params["delta"]
    )


def test_center_density_is_the_density_at_x_0(tmp_path):
    assert main(["simulate", "--scenario", "fig11", "--out", str(tmp_path)]) == 0
    spec = load_scenario("fig11")
    idx = central_node_index(spec.cfg)
    for variant in spec.variants:
        tail = f"__dnls__{variant.label}.csv"
        center = (tmp_path / "fig11" / f"center_density{tail}").read_text().splitlines()[1:]
        field = (tmp_path / "fig11" / f"density{tail}").read_text().splitlines()[1:]
        at_zero = field[idx::spec.cfg.N]
        assert {row.split(",")[1] for row in at_zero} == {"0"}
        # %.17g text: equal text is equal bits
        assert [row.split(",")[1] for row in center] == [row.split(",")[2] for row in at_zero]


# a value other than the default for each setting a scenario file gives of
# the lattice (all but bc, which the first system sets) and the integrator
FILE_SETTINGS = {
    LatticeConfig: {"L": 25.0, "N": 50, "gamma": 1.25, "delta": -0.75},
    IntegratorSpec: {"t_end": 0.5, "method": Method.RK4_FIXED, "dt": 0.004, "rtol": 1e-7,
                     "atol": 1e-9, "sample_every": 0.25},
}


def test_every_setting_is_a_file_key_and_a_manifest_entry(tmp_path):
    for kind, values in FILE_SETTINGS.items():
        settable = [f for f in fields(kind) if f.init and f.name != "bc"]
        assert sorted(values) == sorted(f.name for f in settable)
        assert all(values[f.name] != f.default for f in settable)
    cfgfile = tmp_path / "every.cfg"
    cfgfile.write_text(
        "ic = planewave\namplitude = 1\nperturbation = 0.5\nmode = 20\n"
        + "".join(f"{key} = {value.value if isinstance(value, Method) else value}\n"
                  for values in FILE_SETTINGS.values() for key, value in values.items()))
    spec = load_scenario(cfgfile)
    records = {LatticeConfig: ("parameters", spec.cfg),
               IntegratorSpec: ("integrator", spec.integrator)}
    for kind, values in FILE_SETTINGS.items():
        assert {key: getattr(records[kind][1], key) for key in values} == values
    assert main(["simulate", "--scenario", str(cfgfile), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "every" / "manifest.json").read_text())
    for kind, (entry, settings) in records.items():
        for f in fields(kind):
            value = getattr(settings, f.name)
            assert manifest[entry][f.name] == (value.value if isinstance(value, Enum)
                                               else value)


def test_fig12_emits_proximity(tmp_path):
    assert main(["simulate", "--scenario", "fig12", "--out", str(tmp_path)]) == 0
    out_dir = tmp_path / "fig12"
    for label in ("algebraic", "sech"):
        rows = np.genfromtxt(out_dir / f"proximity__{label}.csv",
                             delimiter=",", names=True)
        assert rows["D_a"][0] == 0.0  # identical initial data
        assert np.all(rows["D_a"] <= rows["bound_II"] + 1e-12)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["extra"]["proximity__algebraic"]["smallness_ok"] is False


def test_paired_scenario_file_run(tmp_path):
    # fig9a's lattice and bump, with the integrable run and the proximity
    # product beside its own outputs
    cfgfile = tmp_path / "paired.cfg"
    cfgfile.write_text(
        "systems = dnls, al\nL = 200\nN = 400\ngamma = 0.0025\ndelta = -0.01\n"
        "ic = algebraic\nvariant = algebraic\nbackground = 0.5\nlam1 = 1\nlam2 = 1\n"
        "lam3 = 4\ndps_t0 = 2.4\nt_end = 10\n"
        "outputs = densities, wedge, center_density, proximity\n"
    )
    assert main(["simulate", "--scenario", str(cfgfile), "--out", str(tmp_path)]) == 0
    out_dir = tmp_path / "paired"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["parameters"]["systems"] == ["dnls", "al"]
    assert "proximity__algebraic.csv" in manifest["products"]
    assert "proximity__algebraic" in manifest["extra"]
    rows = np.genfromtxt(out_dir / "proximity__algebraic.csv", delimiter=",", names=True)
    assert rows["D_a"][0] == 0.0  # identical initial data
    assert rows["D_a"][-1] > 0.0
    densities = {}
    for system in ("dnls", "al"):
        name = f"density__{system}__algebraic.csv"
        assert name in manifest["products"]
        densities[system] = np.loadtxt(out_dir / name, delimiter=",", skiprows=1)
    assert densities["dnls"].shape == densities["al"].shape == (101 * 400, 3)
    assert np.array_equal(densities["dnls"][:400], densities["al"][:400])
    assert not np.array_equal(densities["dnls"][-400:], densities["al"][-400:])


def test_attractor_check(tmp_path, capsys):
    assert main(["attractor-check", "--scenario", "fig5", "--smoke",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert "in_stable_band=True" in out
    manifest = json.loads((tmp_path / "fig5" / "manifest.json").read_text())
    assert manifest["extra"]["attractor_verdict"]["final_mode"] == 45
    assert manifest["wall_time_s"] > 0.0


def test_attractor_check_manifest_lists_only_the_integrated_run(tmp_path):
    # fig5 has two variants; attractor-check integrates the first one only
    assert main(["attractor-check", "--scenario", "fig5", "--smoke",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "fig5" / "manifest.json").read_text())
    assert manifest["parameters"]["variants"] == ["ap_plus2"]
    assert manifest["parameters"]["systems"] == ["dnls"]
    assert manifest["products"] == []


def test_attractor_check_on_a_paired_scenario(tmp_path):
    # fig12 pairs each gain/loss run with an integrable one for its proximity
    # product; attractor-check integrates the gain/loss run alone
    assert main(["attractor-check", "--scenario", "fig12", "--smoke",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "fig12" / "manifest.json").read_text())
    assert manifest["parameters"]["systems"] == ["dnls"]
    assert manifest["products"] == []


def _forbid_integration(monkeypatch):
    def fail(*args):
        raise AssertionError("integrated before the input was checked")

    monkeypatch.setattr(cli, "integrate", fail)


def test_attractor_check_without_gain_loss_exits_before_integrating(
    tmp_path, capsys, monkeypatch
):
    cfgfile = tmp_path / "conservative.cfg"
    cfgfile.write_text(
        "L = 25\nN = 50\ngamma = 0\ndelta = 0\nic = planewave\n"
        "amplitude = 1\nperturbation = 0.5\nmode = 20\nt_end = 2\n"
    )
    _forbid_integration(monkeypatch)
    out_root = tmp_path / "out"
    assert main(["attractor-check", "--scenario", str(cfgfile), "--out", str(out_root)]) == 2
    assert "gamma must be > 0" in capsys.readouterr().err
    assert not (out_root / "conservative").exists()


def test_attractor_check_into_foreign_directory_exits_before_integrating(
    tmp_path, capsys, monkeypatch
):
    out_dir = tmp_path / "fig8"
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text('["density.csv"]\n')
    _forbid_integration(monkeypatch)
    assert main(["attractor-check", "--scenario", "fig8", "--out", str(tmp_path)]) == 2
    assert "not a run manifest" in capsys.readouterr().err
    assert (out_dir / "manifest.json").read_text() == '["density.csv"]\n'


def test_proximity_from_the_zero_state_has_no_estimate_I(tmp_path):
    # estimate I's hypothesis needs a nonzero start; estimate II still holds
    cfgfile = tmp_path / "zero.cfg"
    cfgfile.write_text(
        "L = 50\nN = 100\ngamma = 0.0025\ndelta = -0.01\nsystems = dnls, al\n"
        "ic = planewave\namplitude = 0\nperturbation = 0\nmode = 0\n"
        "t_end = 1\nsample_every = 0.5\noutputs = densities, proximity\n"
    )
    assert main(["simulate", "--scenario", str(cfgfile), "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "zero" / "proximity__main.csv", delimiter=",", names=True)
    assert rows["t"].size == 3
    assert np.all(np.isnan(rows["bound_I"])) and np.all(np.isfinite(rows["bound_II"]))
    manifest = json.loads((tmp_path / "zero" / "manifest.json").read_text())
    assert manifest["extra"]["proximity__main"]["estimate_I_hypothesis"] is False


@pytest.mark.parametrize("argv", [
    ["attractor-check", "--scenario", "fig5", "--smoke", "--plot-scripts"],
    ["simulate", "--scenario", "fig5", "--smoke", "--plot-scripts"],
    ["compare-al", "--scenario", "fig12", "--smoke"],
    ["simulate", "--scenario", "fig5", "--smoke", "--ap", "1.5"],
    ["attractor-check", "--scenario", "fig5", "--smoke", "--ap", "1.5"],
    ["simulate", "--scenario", "fig11", "--smoke", "--auto-t0"],
    ["mi-scan", "--gamma", "1.5", "--delta", "-1.5", "--L", "50", "--N", "100", "--h", "1"],
    # abbreviations of --window and --plot-scripts
    ["attractor-check", "--scenario", "fig5", "--smoke", "--win", "3"],
    ["simulate", "--scenario", "fig5", "--smoke", "--plot"],
    ["gate", "--gamma", "1.5", "--delta", "-1.5", "--a", "1", "--tol", "1e-9"],
    ["attractor-check", "--scenario", "fig5", "--smoke", "--tol-amp", "1e-3"],
    ["attractor-check", "--scenario", "fig5", "--smoke", "--window", "3"],
], ids=["attractor_check_plot_scripts", "simulate_plot_scripts", "compare_al",
        "simulate_ap", "attractor_check_ap", "simulate_auto_t0",
        "mi_scan_h", "attractor_check_win", "simulate_plot", "gate_tol", "attractor_check_tol_amp", "attractor_check_window"])
def test_removed_flags_exit_2(tmp_path, argv):
    if argv[0] != "gate":  # gate writes nothing and takes no --out
        argv = argv + ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_mi_scan_command(tmp_path, capsys):
    assert main(["mi-scan", "--gamma", "1.5", "--delta", "-1.5",
                 "--L", "50", "--N", "100", "--carrier", "8",
                 "--out", str(tmp_path)]) == 0
    assert "unstable" in capsys.readouterr().out
    rows = np.genfromtxt(tmp_path / "mi_scan" / "mi_scan.csv",
                         delimiter=",", names=True)
    assert rows["growth"][0] == 0.0
    assert np.max(rows["growth"]) > 0.25
    # the lattice record of every run's manifest, then the carriers scanned
    manifest = json.loads((tmp_path / "mi_scan" / "manifest.json").read_text())
    assert manifest["parameters"] == {"L": 50.0, "N": 100, "h": 1.0, "k": 1.0, "gamma": 1.5,
                                      "delta": -1.5, "bc": "periodic", "carriers": [8]}
    assert manifest["products"] == ["mi_scan.csv"]
    assert manifest["wall_time_s"] > 0.0


MI_SCAN_ARGS = ["mi-scan", "--gamma", "1.5", "--delta", "-1.5", "--L", "50", "--N", "100"]


def test_mi_scan_carrier_out_of_range_exits_before_the_run_directory(tmp_path, capsys):
    assert main(MI_SCAN_ARGS + ["--carrier", "51", "--out", str(tmp_path)]) == 2
    assert "mode index must lie in [0, N/2]" in capsys.readouterr().err
    assert not (tmp_path / "mi_scan").exists()


def test_mi_scan_into_foreign_directory_exits_before_scanning(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "mi_scan"
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text('["mi_scan.csv"]\n')

    def fail(*args):
        raise AssertionError("scanned before the run directory was checked")

    monkeypatch.setattr(cli, "mi_scan", fail)
    assert main(MI_SCAN_ARGS + ["--out", str(tmp_path)]) == 2
    assert "not a run manifest" in capsys.readouterr().err
    assert (out_dir / "manifest.json").read_text() == '["mi_scan.csv"]\n'


@pytest.mark.parametrize("argv, name, target", [
    (["simulate", "--scenario", "fig5", "--smoke"], "fig5", "integrate"),
    (["attractor-check", "--scenario", "fig5", "--smoke"], "fig5", "integrate"),
    (MI_SCAN_ARGS, "mi_scan", "mi_scan"),
], ids=["simulate", "attractor_check", "mi_scan"])
def test_failed_run_leaves_no_manifest(tmp_path, capsys, monkeypatch, argv, name, target):
    # the manifest of an earlier run goes before the work starts, and a run
    # whose work fails writes none
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / name / "manifest.json").exists()

    def fail(*args):
        raise StepFailure("step size underflowed")

    monkeypatch.setattr(cli, target, fail)
    assert main(argv + ["--out", str(tmp_path)]) == 3
    assert "step size underflowed" in capsys.readouterr().err
    assert not (tmp_path / name / "manifest.json").exists()


def test_empty_trajectory_gives_header_only_csv(tmp_path):
    cfg = LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)
    traj = Trajectory(times=np.empty(0), states=[], system=System.DNLS)
    path = tmp_path / "density.csv"
    write_density_csv(path, traj, cfg)
    assert path.read_text() == "t,x,density\n"


def test_previous_variant_freed_before_next_integrates(tmp_path, monkeypatch):
    # fig12 integrates two systems for each of two variants; the first
    # variant's trajectories must be gone when the second starts integrating
    refs, alive = [], []
    real = cli.integrate

    def recording(*args):
        if len(refs) == 2:
            gc.collect()
            alive.extend(ref() is not None for ref in refs)
        traj = real(*args)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(cli, "integrate", recording)
    assert main(["simulate", "--scenario", "fig12", "--smoke", "--out", str(tmp_path)]) == 0
    assert len(refs) == 4
    assert alive == [False, False]
