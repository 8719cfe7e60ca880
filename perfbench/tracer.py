"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public functions from outside, under the
names the program and the benchmark call them by (``cli`` and ``timestep``
import most of them into their own namespaces).  Each wrapped call records a
span (name, layer, start, end, parent) in memory.  RHS evaluations are too
many for one span each: they are counted, and their time is added to the
enclosing span, so ``timestep`` self time is the integrator's own overhead.

Layers are the program's modules: scenarios, core, timestep, analysis,
proximity, products and cli.  ``derive_setup`` and ``derive_pass`` turn the
spans of one phase into per-layer metrics.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

from dnlslab import analysis, cli, core, products, proximity, scenarios, timestep

# (layer, span name, [(module, attribute) under which it is called])
TARGETS = [
    ("scenarios", "load_scenario", [(scenarios, "load_scenario")]),
    ("core", "make_initial_condition", [(core, "make_initial_condition"),
                                        (cli, "make_initial_condition")]),
    ("core", "apply_noise", [(scenarios, "apply_noise"), (cli, "apply_noise")]),
    ("timestep", "integrate", [(timestep, "integrate"), (cli, "integrate"),
                               (analysis, "integrate")]),
    ("analysis", "mi_scan", [(analysis, "mi_scan"), (cli, "mi_scan")]),
    ("analysis", "mi_growth_oracle", [(analysis, "mi_growth_oracle")]),
    ("analysis", "spectrum", [(analysis, "spectrum"), (products, "spectrum")]),
    ("proximity", "build_proximity_report", [(proximity, "build_proximity_report"),
                                             (cli, "build_proximity_report")]),
    ("proximity", "estimate_I_curve", [(proximity, "estimate_I_curve")]),
    ("proximity", "dps_eval", [(proximity, "dps_eval"), (products, "dps_eval")]),
    ("cli", "run_scenario", [(cli, "run_scenario")]),
] + [
    ("products", name, [(products, name), (cli, name)])
    for name in (
        "write_density_csv", "write_spectrum_csv", "write_phase_plane_csv",
        "write_center_density_csv", "write_wedge_csv", "write_mi_scan_csv",
        "write_proximity_csv", "write_manifest",
    )
]
RHS_NAMES = ("dnls_rhs_values", "al_rhs_values", "shifted_rhs_values")

# span record fields
NAME, LAYER, START, END, PARENT, RHS_S, OK = range(7)


class Tracer:
    """Spans of the traced calls, an RHS counter, and the written paths.

    The wrappers are in place only between ``start`` and ``stop``, so the
    untraced passes and the output checks run the program unwrapped."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.saved: list[tuple] = []
        self.rhs_evals = 0
        self.rhs_s = 0.0
        self.written: list[Path] = []

    def start(self) -> int:
        """Install the wrappers; returns the index of the phase's first span."""
        self.rhs_evals, self.rhs_s, self.written = 0, 0.0, []
        for layer, name, sites in TARGETS:
            for module, attr in sites:
                self._patch(module, attr, self._span(layer, name, getattr(module, attr)))
        # integrate looks these up in timestep's namespace on every call
        for attr in RHS_NAMES:
            self._patch(timestep, attr, self._rhs(getattr(timestep, attr)))
        return len(self.spans)

    def stop(self) -> None:
        """Put the program's own functions back."""
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved = []

    def _patch(self, module, attr: str, wrapper) -> None:
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, layer: str, name: str, fn):
        writes = layer == "products"

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0, False]
            self.spans.append(span)
            self.stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
                return result
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
                if writes:
                    self.written.append(Path(args[0]))

        return traced

    def _rhs(self, fn):
        def counted(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                dt = time.perf_counter() - t0
                self.rhs_evals += 1
                self.rhs_s += dt
                if self.stack:
                    self.spans[self.stack[-1]][RHS_S] += dt

        return counted

    def dump(self, path: Path) -> None:
        """Write every span recorded in this process as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "layer": s[LAYER], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "rhs_s": s[RHS_S], "ok": s[OK],
                }) + "\n")


def self_times(spans: list[list], first: int) -> list[float]:
    """Self time of each span from ``first`` on: its duration minus the part
    covered by its child spans and by the RHS evaluations it made."""
    own = [s[END] - s[START] - s[RHS_S] for s in spans[first:]]
    for s in spans[first:]:
        if s[PARENT] >= first:
            own[s[PARENT] - first] -= s[END] - s[START]
    return own


def derive_setup(tracer: Tracer, first: int) -> dict[str, float]:
    """Per-layer metrics of a traced set-up whose spans start at ``first``."""
    spans = tracer.spans[first:]
    return {
        "core.ic_s": _total(spans, "make_initial_condition") + _total(spans, "apply_noise"),
        "scenarios.load_s": _total(spans, "load_scenario"),
    }


def derive_pass(tracer: Tracer, first: int, horizon: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose spans start at ``first``;
    ``horizon`` is the time integrated over all trajectories of the pass."""
    spans = tracer.spans[first:]
    own = self_times(tracer.spans, first)

    def count(name, ok_only=False):
        return sum(1 for s in spans if s[NAME] == name and (s[OK] or not ok_only))

    def layer_self(layer):
        return sum(t for s, t in zip(spans, own) if s[LAYER] == layer)

    integrate_s = _total(spans, "integrate")
    # product writers never nest, so their spans add up without overlap
    write_s = sum(s[END] - s[START] for s in spans if s[LAYER] == "products")
    # the manifest records its own wall time, so only CSV bytes repeat exactly
    csvs = [p for p in tracer.written if p.suffix == ".csv"]
    rows = nbytes = 0
    for path in csvs:
        data = path.read_bytes()
        rows += data.count(b"\n") - 1
        nbytes += len(data)
    evals = tracer.rhs_evals
    return {
        "core.rhs_evals": evals,
        "core.rhs_s": tracer.rhs_s,
        "timestep.integrate_calls": count("integrate"),
        "timestep.integrate_s": integrate_s,
        "timestep.self_s": layer_self("timestep"),
        "timestep.us_per_rhs_eval": integrate_s / evals * 1e6,
        "timestep.rhs_evals_per_tu": evals / horizon,
        "analysis.mi_scan_s": _total(spans, "mi_scan"),
        "analysis.oracle_calls": count("mi_growth_oracle"),
        "analysis.self_s": layer_self("analysis"),
        "proximity.report_s": _total(spans, "build_proximity_report"),
        "proximity.quad_s": _total(spans, "estimate_I_curve"),
        "proximity.quad_runs": count("estimate_I_curve", ok_only=True),
        "products.write_s": write_s,
        "products.rows": rows,
        "products.bytes": nbytes,
        "products.files": len(tracer.written),
        "products.rows_per_s": rows / write_s,
        "cli.run_scenario_s": _total(spans, "run_scenario"),
        "cli.self_s": layer_self("cli"),
    }


def _total(spans: list[list], name: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)
