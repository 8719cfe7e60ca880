"""Data-product emission: fixed-schema CSV files and the run manifest.

Float columns print as ``%.17g`` (17 significant digits, so repeated runs of
the same configuration diff byte-identically) and integer columns as ``%d``.
Non-finite floats print as ``nan``, ``inf`` and ``-inf``; the one product
that emits them on purpose is proximity's ``bound_I``, nan where its
hypothesis fails.  Non-finite integrator settings never reach a writer:
``IntegratorSpec`` rejects them when a scenario is loaded.

Two writers share these rules:

* ``_write_long`` writes the long-format tables whose rows are
  (lead, key, value): density ``t,x,density``, spectrum ``t,K,abs_coeff`` and
  mi_scan ``K,M,growth``.  The key column is the same for every block of a
  file, so it is formatted once per file; each block (one sample, or one
  carrier) formats its lead value once, joins it into a row template in one
  call, and formats only its value column row by row.
* ``_write_table`` writes the single-block products (phase plane, center
  density, wedge, proximity): a header line, then one 2-D float block,
  written with one ``%`` of a row format repeated once per row.

Either way every number goes through the same ``%`` conversion, and a writer
holds O(N) values at a time, never the whole file.  Every run directory holds
exactly one ``manifest.json`` which lists the emitted files.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analysis import MIScan, spectrum
from .core import LatticeConfig, central_node_index, node_grid
from .proximity import DpsParams, ProximityReport, dps_eval
from .timestep import Trajectory

__all__ = [
    "RunManifest",
    "write_density_csv",
    "write_spectrum_csv",
    "write_phase_plane_csv",
    "write_center_density_csv",
    "write_wedge_csv",
    "write_mi_scan_csv",
    "write_proximity_csv",
    "write_manifest",
    "WEDGE_SLOPE",
]

# Front slope of the wedge overlay, x = +- 4*sqrt(2)*A*t.
WEDGE_SLOPE = 4.0 * math.sqrt(2.0)


def _write_table(path: Path, header: tuple[str, ...], fmt: str, block: np.ndarray) -> None:
    """Write the header line, then every row of the (rows, cols) ``block``
    with the row format ``fmt``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(((fmt + "\n") * len(block)) % tuple(block.ravel().tolist()))


def _write_long(path: Path, header: tuple[str, ...], fmt: str, keys: np.ndarray,
                blocks) -> None:
    """Write the header line, then for each ``(lead, values)`` block one row
    ``lead,key,value`` per key, with the three-field row format ``fmt``.
    ``values`` holds one value per key, in key order."""
    lead_fmt, key_fmt, value_fmt = fmt.split(",")
    # "" first, so that join puts the lead at the start of every row.
    parts = [""] + [f",{key_fmt % k},{value_fmt}\n" for k in keys.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lead, values in blocks:
            fh.write((lead_fmt % lead).join(parts) % tuple(values.tolist()))


def _center(traj: Trajectory, cfg: LatticeConfig) -> np.ndarray:
    """The central node (x = 0) at every sample, none for an empty trajectory."""
    return traj.values.reshape(-1, cfg.N)[:, central_node_index(cfg)]


def _center_density(traj: Trajectory, cfg: LatticeConfig) -> np.ndarray:
    """Density |u|^2 of the central node (x = 0) at every sample."""
    # abs(v) ** 2 per numpy scalar: np.abs(column) ** 2 differs in the last bit
    return np.array([abs(v) ** 2 for v in _center(traj, cfg)])


def write_density_csv(path: Path, traj: Trajectory, cfg: LatticeConfig) -> None:
    """Long-format density field: one row per (t, x) with |u|^2."""
    blocks = ((t, v.real**2 + v.imag**2) for t, v in zip(traj.times, traj.values))
    _write_long(path, ("t", "x", "density"), "%.17g,%.17g,%.17g", node_grid(cfg).x, blocks)


def write_spectrum_csv(path: Path, traj: Trajectory, cfg: LatticeConfig) -> None:
    """Modal magnitudes |A_K| per sample."""
    frames = (spectrum(state, cfg) for state in traj.states)
    blocks = ((f.t, np.abs(f.coeffs)) for f in frames)
    _write_long(path, ("t", "K", "abs_coeff"), "%.17g,%d,%.17g", np.arange(cfg.N), blocks)


def write_phase_plane_csv(path: Path, traj: Trajectory, cfg: LatticeConfig) -> None:
    """Trace of the central node (x = 0) in the complex plane."""
    center = _center(traj, cfg)
    block = np.column_stack((traj.times, center.real, center.imag))
    _write_table(path, ("t", "re_center", "im_center"), "%.17g,%.17g,%.17g", block)


def write_center_density_csv(
    path: Path, traj: Trajectory, cfg: LatticeConfig, dps_ref: DpsParams | None = None
) -> None:
    """Central-node density series, optionally with the rogue-profile reference."""
    columns = [traj.times, _center_density(traj, cfg)]
    header = ("t", "density")
    if dps_ref is not None:
        grid, idx = node_grid(cfg), central_node_index(cfg)
        columns.append([abs(dps_eval(grid, float(t), dps_ref).values[idx]) ** 2
                        for t in traj.times])
        header += ("dps_density",)
    block = np.column_stack(columns)
    _write_table(path, header, ",".join(["%.17g"] * len(header)), block)


def write_wedge_csv(path: Path, times: np.ndarray, background: float) -> None:
    """Wedge boundary overlay lines x = -+ 4*sqrt(2)*A*t."""
    slope = WEDGE_SLOPE * background
    block = np.column_stack((times, -slope * times, slope * times))
    _write_table(path, ("t", "x_minus", "x_plus"), "%.17g,%.17g,%.17g", block)


def write_mi_scan_csv(path: Path, scans: list[MIScan]) -> None:
    """Sideband growth map, one row per (carrier K, sideband M).  All scans
    come from one lattice, so they share the sidebands M = 0..N/2."""
    sidebands = np.arange(scans[0].growth.size if scans else 0)
    _write_long(path, ("K", "M", "growth"), "%d,%d,%.17g", sidebands,
                ((scan.K, scan.growth) for scan in scans))


def write_proximity_csv(path: Path, report: ProximityReport) -> None:
    """Distance curves with analytic envelopes; bound_I is nan when its
    hypothesis fails."""
    bound_i = report.bound_I if report.bound_I is not None else math.nan
    block = np.column_stack(np.broadcast_arrays(
        report.times, report.D_a, report.D_a_r, bound_i, report.bound_II))
    _write_table(path, ("t", "D_a", "D_a_r", "bound_I", "bound_II"),
                 "%.17g,%.17g,%.17g,%.17g,%.17g", block)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Resolved run metadata; one per output directory."""

    scenario: str
    parameters: dict
    gate: dict
    integrator: dict
    software_version: str
    products: list[str] = field(default_factory=list)
    noise: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    extra: dict = field(default_factory=dict)


def write_manifest(path: Path, manifest: RunManifest) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")

