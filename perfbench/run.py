"""dnlslab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload long_run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see workloads.py):

* ``long_run``      - catalog fig8 at full horizon (N=100, t=600);
* ``wide_products`` - fig9a, fig9c, fig10a and fig11 at full horizon (N=400);
* ``ensemble``      - MI growth oracles, an N=400 MI scan, the fig12 paired
  run, a paired run below the critical power, and a shifted/periodic gauge pair.

``--trace 0`` measures end-to-end metrics with tracing off: ``wall_s`` (median
pass time, set-up excluded), ``lattice_rate``, ``setup_s`` (median over
fresh interpreters) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of tracer.py, the RHS
micro-benchmarks and the tracing overhead.  Every pass is checked; a pass
with a failed check gives no time.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP pools are pinned to one thread before numpy loads, here and in
# every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_run", "wide_products", "ensemble")
SETUP_PROBES = 5       # fresh interpreters timed for setup_s, after one warm-up
MIN_PASSES = 3         # timed passes per run, even past --seconds
MIN_TRACED = 2         # traced and untraced passes each, in a traced run
PROBE_TIMEOUT_S = 60

EXACT = ("core.rhs_evals", "timestep.integrate_calls", "analysis.oracle_calls",
         "proximity.quad_runs", "products.rows", "products.bytes", "products.files")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn, each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--noise-amp", type=float, default=1e-12,
                   help="noise floor on the catalog ICs (default 1e-12; 0 reproduces "
                        "the noise-free RHS counts)")
    return p.parse_args(argv)


def _host_record(seed: int) -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "seed": seed,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def _setup_seconds(args) -> list[float]:
    """Set-up time in fresh interpreters; the first one (which may compile
    bytecode) is discarded."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           args.workload, str(args.seed), repr(args.noise_amp)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


class Runner:
    """Runs and checks the passes of one workload in this process."""

    def __init__(self, args, out_base: Path):
        # both import dnlslab, so they load once src/ is on the path
        import tracer as tracing
        import workloads

        self.w = workloads
        self.tracing = tracing
        self.observer = workloads.IntegrateObserver()
        self.observer.install()
        self.tracer = tracing.Tracer() if args.trace else None
        self.out_base = out_base
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_layers: list[dict] = []
        self.inp = None
        for _ in range(SETUP_PROBES if args.trace else 1):
            first = self.tracer.start() if args.trace else 0
            self.inp = workloads.prepare(args.workload, args.seed, args.noise_amp)
            if args.trace:
                self.tracer.stop()
                self.setup_layers.append(tracing.derive_setup(self.tracer, first))

    def one_pass(self, traced: bool = False, self_check: bool = False):
        """Run one pass; returns (wall seconds or None if a check failed,
        lattice work, per-layer metrics or None)."""
        out = self.out_base / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        first = self.tracer.start() if traced else 0
        t0 = time.perf_counter()
        ops = self.w.run_pass(self.inp, self.observer, out)
        wall = time.perf_counter() - t0
        if traced:
            self.tracer.stop()
        fails = []
        for op in ops:
            op_fails = self.w.check(self.inp, op, out)
            fails += op_fails
            self.failed += bool(op_fails)
        self.attempted += len(ops)
        if self_check and not fails:
            bad = self.w.corrupt(self.inp, ops, out)
            if not any(self.w.check(self.inp, op, out) for op in bad):
                fails.append("self-check: a corrupted result passed the checks")
                self.failed += 1
        self.failures += fails
        work = sum(op.obs.work for op in ops)
        horizon = sum(op.obs.horizon for op in ops)
        layers = None
        if traced and not fails:
            layers = self.tracing.derive_pass(self.tracer, first, horizon)
        return (None if fails else wall), work, layers


def _median(values):
    return float(statistics.median(values))


def _more(start: float, seconds: float, passes: int, min_passes: int) -> bool:
    """Keep measuring until ``seconds`` have passed and ``min_passes`` passes
    succeeded, but never past three times ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed < 3 * seconds and (elapsed < seconds or passes < min_passes)


def _end_to_end(args, runner: Runner, setup: list[float]):
    walls, rates = [], []
    start = time.perf_counter()
    while _more(start, args.seconds, len(walls), MIN_PASSES):
        wall, work, _ = runner.one_pass(self_check=runner.attempted == 0)
        if wall is not None:
            walls.append(wall)
            rates.append(work / wall)
    if not walls:
        return {}, {}
    samples = {"wall_s": walls, "lattice_rate": rates, "setup_s": setup}
    metrics = {k: _median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples


def _per_layer(args, runner: Runner):
    overhead, layers = [], []
    start = time.perf_counter()
    while _more(start, args.seconds, len(layers), MIN_TRACED):
        plain, _, _ = runner.one_pass(self_check=runner.attempted == 0)
        traced, _, lay = runner.one_pass(traced=True)
        if plain is not None and traced is not None:
            # adjacent passes share the host's state, so compare within a pair
            overhead.append(traced / plain - 1.0)
            layers.append(lay)
    if not layers:
        return {}, {}
    for name in EXACT:
        seen = {lay[name] for lay in layers}
        if len(seen) != 1:
            runner.failures.append(f"counter {name} did not repeat: {sorted(seen)}")
            runner.failed += 1
    samples = {name: [lay[name] for lay in layers] for name in layers[0]}
    for name in runner.setup_layers[0]:
        samples[name] = [lay[name] for lay in runner.setup_layers]
    for name, value in runner.w.rhs_microbench().items():
        samples[name] = [value]
    samples["trace.overhead"] = overhead
    metrics = {k: _median(v) for k, v in samples.items()}
    for name in EXACT:
        metrics[name] = int(layers[0][name])
    runner.tracer.dump(runner.out_base.parent / f"trace_{args.workload}_seed{args.seed}.jsonl")
    return metrics, samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "dnlslab" / "__init__.py").is_file():
        print(f"error: no dnlslab sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for workload in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--noise-amp", repr(args.noise_amp)]
            code = subprocess.run(cmd, cwd=ROOT).returncode
            if code:
                return code
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    setup = [] if args.trace else _setup_seconds(args)

    sys.path.insert(0, str(src))
    out_base = ROOT / ".perfbench_out" / f"{args.workload}_{os.getpid()}"
    try:
        runner = Runner(args, out_base)
        if args.trace:
            metrics, samples = _per_layer(args, runner)
        else:
            metrics, samples = _end_to_end(args, runner, setup)
    finally:
        shutil.rmtree(out_base, ignore_errors=True)

    print("host: " + json.dumps(_host_record(args.seed)))
    print(f"workload: {args.workload} ({runner.w.workload_size(runner.inp)})")
    for fail in runner.failures:
        print(f"FAILED: {fail}")
    fail_rate = runner.failed / max(runner.attempted, 1)
    print(f"{'fail_rate':32s} {fail_rate:.6g} (failed {runner.failed} of "
          f"{runner.attempted} operations)")
    for name, value in metrics.items():
        vals = samples.get(name, [value])
        print(f"{name:32s} {value:.6g} {units[name]}  "
              f"(median of {len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})")
    if not metrics:
        print("error: no pass passed its checks", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
