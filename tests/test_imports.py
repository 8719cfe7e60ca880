"""Import footprint: the library runs on numpy alone and never loads scipy."""
import json
import os
import subprocess
import sys
from pathlib import Path

import dnlslab

_SRC = str(Path(dnlslab.__file__).resolve().parents[1])


def _fresh(code: str, cwd: Path) -> str:
    """Run ``code`` in a new interpreter that imports dnlslab from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120, check=True)
    return done.stdout


def test_import_list_and_simulate_leave_scipy_unloaded(tmp_path):
    out = _fresh(
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import dnlslab\n"
        "seen = [scipy_modules()]\n"
        "from dnlslab.cli import main\n"
        "assert main(['list-scenarios']) == 0\n"
        "seen.append(scipy_modules())\n"
        "assert main(['simulate', '--scenario', 'fig8', '--smoke', '--out', 'out']) == 0\n"
        "seen.append(scipy_modules())\n"
        "print(json.dumps(seen))\n",
        tmp_path,
    )
    assert json.loads(out.splitlines()[-1]) == [[], [], []]
    assert (tmp_path / "out" / "fig8" / "manifest.json").exists()


def test_runtime_runs_with_scipy_blocked(tmp_path):
    out = _fresh(
        "import json, sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "import numpy as np\n"
        "import dnlslab\n"
        "from dnlslab.analysis import (mi_growth_oracle, mi_scan, plane_wave_exact,\n"
        "                              plane_wave_family)\n"
        "from dnlslab.cli import main\n"
        "from dnlslab.core import LatticeConfig, SechBumpIC, make_initial_condition\n"
        "from dnlslab.proximity import build_proximity_report, estimate_I_curve\n"
        "from dnlslab.timestep import IntegratorSpec, System, integrate\n"
        "small = LatticeConfig(L=50.0, N=100, gamma=1.5, delta=-1.5)\n"
        "fam = plane_wave_family(5, 0.5, 0.0, small)\n"
        "w = plane_wave_exact(fam, 5.0)\n"
        "assert np.all(np.isfinite(w.values))\n"
        "scan = mi_scan(24, small, 1.0, -1.5)\n"
        "m = int(np.argmax(scan.growth))\n"
        "fit = mi_growth_oracle(24, m, small, 1.5, -1.5)\n"
        "assert fit.grew and abs(fit.rate / scan.growth[m] - 1) < 0.05\n"
        "wide = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)\n"
        "curve = estimate_I_curve(wide, 90.0, 0.5, np.linspace(0.0, 10.0, 21), 0.25)\n"
        "assert np.all(np.diff(curve) > 0)\n"
        "u0 = make_initial_condition(SechBumpIC(0.45, 0.05, 1.0), wide)\n"
        "spec = IntegratorSpec(t_end=1.0, sample_every=0.5)\n"
        "rep = build_proximity_report(integrate(System.DNLS, u0, wide, spec),\n"
        "                             integrate(System.AL, u0, wide, spec), wide)\n"
        "assert rep.bound_I is not None and np.all(rep.D_a <= rep.bound_I)\n"
        "assert main(['simulate', '--scenario', 'fig12', '--smoke', '--out', 'out']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n",
        tmp_path,
    )
    assert json.loads(out.splitlines()[-1]) == []
    assert (tmp_path / "out" / "fig12" / "manifest.json").exists()
