"""Smoke runs of the quick demos: each script must exit 0.

The demos build DbmParams by hand and read GradEstimate fields directly,
so they break when those names or constructors change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spindbm

DEMOS = Path(__file__).resolve().parent.parent / "demos"
PACKAGE_PARENT = str(Path(spindbm.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script", ["01_model_basics.py", "02_local_search_and_sampling.py",
                                    "06_benchmark_couplings.py"])
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
