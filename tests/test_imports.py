"""Import footprint: scipy is loaded only by the two quadratures that use it."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dnlslab
from dnlslab.core import LatticeConfig
from dnlslab.proximity import estimate_I_curve

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


def test_estimate_I_curve_loads_scipy_on_demand(tmp_path):
    out = _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from dnlslab.core import LatticeConfig\n"
        "from dnlslab.proximity import estimate_I_curve\n"
        "assert 'scipy' not in sys.modules\n"
        "cfg = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)\n"
        "curve = estimate_I_curve(cfg, 0.0025, -0.01, 90.0, 0.5, np.linspace(0.0, 10.0, 21), 0.25)\n"
        "assert 'scipy.integrate' in sys.modules\n"
        "print(json.dumps(curve.tolist()))\n",
        tmp_path,
    )
    # the same call in this process, where scipy is already loaded
    cfg = LatticeConfig(L=200.0, N=400, gamma=0.0025, delta=-0.01)
    here = estimate_I_curve(cfg, 0.0025, -0.01, 90.0, 0.5, np.linspace(0.0, 10.0, 21), 0.25)
    assert np.array_equal(np.array(json.loads(out)), here)
