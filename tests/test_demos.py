"""Smoke runs of the quick demos and of the README's library tour.

Each demo script must exit 0, and the tour's code block must run as
written. The demos build DbmParams by hand and read GradEstimate fields
directly, so they break when those names or constructors change; the tour
breaks when a name it shows is renamed or deleted.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spindbm

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
PACKAGE_PARENT = str(Path(spindbm.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script", ["01_model_basics.py", "02_local_search_and_sampling.py",
                                    "06_benchmark_couplings.py"])
def test_demo_exits_0(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the tour trains into runs/demo
    exec(compile(code, "README.md (library tour)", "exec"), {})
    assert (tmp_path / "runs" / "demo" / "ckpt-000020.udbm").exists()
