"""CSV number format: the table and long-format writers against the per-value
formatting rules."""
import math

import numpy as np
import pytest

from dnlslab.analysis import mi_scan, spectrum
from dnlslab.core import (
    LatticeConfig,
    PlaneWaveIC,
    central_node_index,
    make_initial_condition,
    node_grid,
)
from dnlslab.products import (
    _write_long,
    _write_table,
    write_center_density_csv,
    write_density_csv,
    write_mi_scan_csv,
    write_phase_plane_csv,
    write_spectrum_csv,
)
from dnlslab.proximity import DpsParams, dps_eval
from dnlslab.timestep import IntegratorSpec, System, Trajectory, integrate


def _fmt(value) -> str:
    """Per-value formatting rules, the oracle for the block writer: integers
    print as themselves, everything else with 17 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _oracle_text(header, rows) -> str:
    return "".join([",".join(header) + "\n"] + [",".join(_fmt(v) for v in row) + "\n"
                                                for row in rows])


def _assert_text(path, expected: str) -> None:
    """The file holds ``expected``.  Compares line by line and reports the
    first differing line, so a wrong writer fails at once instead of making
    pytest diff two multi-thousand-line texts."""
    actual = path.read_text()
    got, want = actual.splitlines(), expected.splitlines()
    for lineno, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            pytest.fail(f"{path.name} line {lineno}: got {a!r}, expected {b!r}")
    if len(got) != len(want):
        pytest.fail(f"{path.name} has {len(got)} lines, expected {len(want)}")
    if actual != expected:
        pytest.fail(f"{path.name} differs from the expected text in its line breaks")


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
           1e300, -1e300, 0.1]


def test_float_columns_match_the_rules(tmp_path):
    block = np.array([SPECIAL, SPECIAL[::-1], np.roll(SPECIAL, 3)]).T
    path = tmp_path / "t.csv"
    _write_table(path, ("a", "b", "c"), "%.17g,%.17g,%.17g", block)
    _assert_text(path, _oracle_text(("a", "b", "c"), block))


def test_integer_columns_match_the_rules(tmp_path):
    n = 401
    rows = [(k, m, g) for k in (0, n - 1) for m, g in enumerate(np.linspace(-1.0, 1.0, n))]
    path = tmp_path / "t.csv"
    _write_table(path, ("K", "M", "growth"), "%d,%d,%.17g", np.array(rows, dtype=np.float64))
    _assert_text(path, _oracle_text(("K", "M", "growth"), rows))


def test_no_blocks_is_header_only(tmp_path):
    path = tmp_path / "t.csv"
    _write_table(path, ("t", "x", "density"), "%.17g,%.17g,%.17g", np.empty((0, 3)))
    _assert_text(path, "t,x,density\n")


def test_long_value_column_matches_the_rules(tmp_path):
    keys = np.array([-0.0, 5e-324, 1e300, 0.1])
    leads = [-0.0, 5e-324, 1e300]
    values = np.array(SPECIAL + SPECIAL[:2]).reshape(3, 4)
    path = tmp_path / "t.csv"
    _write_long(path, ("t", "x", "density"), "%.17g,%.17g,%.17g", keys, zip(leads, values))
    rows = [(t, x, v) for t, vs in zip(leads, values) for x, v in zip(keys, vs)]
    _assert_text(path, _oracle_text(("t", "x", "density"), rows))


def test_long_integer_keys_match_the_rules(tmp_path):
    n = 401
    growth = np.linspace(-1.0, 1.0, n)
    path = tmp_path / "t.csv"
    _write_long(path, ("K", "M", "growth"), "%d,%d,%.17g", np.arange(n),
                [(0, growth), (n - 1, growth[::-1])])
    rows = [(k, m, g) for k, gs in ((0, growth), (n - 1, growth[::-1]))
            for m, g in enumerate(gs)]
    _assert_text(path, _oracle_text(("K", "M", "growth"), rows))


def test_long_no_blocks_is_header_only(tmp_path):
    path = tmp_path / "t.csv"
    _write_long(path, ("t", "K", "abs_coeff"), "%.17g,%d,%.17g", np.arange(5), [])
    _assert_text(path, "t,K,abs_coeff\n")


def test_field_writers_on_an_empty_trajectory_are_header_only(tmp_path):
    cfg = LatticeConfig(L=25.0, N=50, gamma=1.5, delta=-1.5)
    empty = Trajectory(times=np.empty(0), states=[])
    for writer, header in ((write_density_csv, "t,x,density"),
                           (write_spectrum_csv, "t,K,abs_coeff"),
                           (write_phase_plane_csv, "t,re_center,im_center"),
                           (write_center_density_csv, "t,density")):
        writer(tmp_path / "e.csv", empty, cfg)
        _assert_text(tmp_path / "e.csv", header + "\n")


def test_mi_scan_writer_matches_the_rules(tmp_path):
    cfg = LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)
    scans = [mi_scan(k, cfg, 1.0, cfg.delta) for k in (3, 50)]
    write_mi_scan_csv(tmp_path / "m.csv", scans)
    rows = [(s.K, m, g) for s in scans for m, g in enumerate(s.growth)]
    _assert_text(tmp_path / "m.csv", _oracle_text(("K", "M", "growth"), rows))


@pytest.fixture(scope="module")
def short_run():
    cfg = LatticeConfig(L=25.0, N=50, gamma=1.5, delta=-1.5)
    ic = make_initial_condition(PlaneWaveIC(1.0, 0.5, 20), cfg)
    return cfg, integrate(System.DNLS, ic, cfg, IntegratorSpec(t_end=1.0, sample_every=0.01))


def test_field_writers_match_the_rules(tmp_path, short_run):
    cfg, traj = short_run
    x = node_grid(cfg).x
    idx = central_node_index(cfg)
    ref = DpsParams(q=0.5, t0=0.5)
    density_rows = [(t, xn, d) for t, s in zip(traj.times, traj.states)
                    for xn, d in zip(x, s.values.real**2 + s.values.imag**2)]
    spectrum_rows = [(f.t, k, m) for f in (spectrum(s, cfg) for s in traj.states)
                     for k, m in enumerate(np.abs(f.coeffs))]
    center_rows = [(t, abs(s.values[idx]) ** 2,
                    abs(dps_eval(node_grid(cfg), float(t), ref).values[idx]) ** 2)
                   for t, s in zip(traj.times, traj.states)]

    write_density_csv(tmp_path / "d.csv", traj, cfg)
    write_spectrum_csv(tmp_path / "s.csv", traj, cfg)
    write_center_density_csv(tmp_path / "c.csv", traj, cfg, ref)
    _assert_text(tmp_path / "d.csv", _oracle_text(("t", "x", "density"), density_rows))
    _assert_text(tmp_path / "s.csv", _oracle_text(("t", "K", "abs_coeff"), spectrum_rows))
    _assert_text(tmp_path / "c.csv",
                 _oracle_text(("t", "density", "dps_density"), center_rows))
