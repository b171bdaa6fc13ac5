import os
import subprocess
import sys
from pathlib import Path

import pytest

import contraction_lab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Same environment as test_module_entrypoint: the child runs in tmp_path
    # (some demos write CSVs), so the package directory goes first and
    # inherited PYTHONPATH entries are made absolute.
    package_root = Path(contraction_lab.__file__).resolve().parent.parent
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = [str(package_root)] + [os.path.abspath(p) for p in inherited if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
