"""The library and its command line run on numpy alone; scipy is a test referee.

Importing them also leaves multiprocessing out: only a coupling sweep's
worker pool needs it.
"""

import os
import subprocess
import sys

from test_demos import PACKAGE_PARENT


def _loaded_on_import(package: str) -> str:
    """The sorted list of package and its submodules that importing spindbm and
    spindbm.cli loads in a fresh interpreter, as printed there."""
    code = ("import sys, spindbm, spindbm.cli; print(sorted(m for m in sys.modules "
            f"if m == {package!r} or m.startswith({package + '.'!r})))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_on_import("scipy") == "[]"


def test_import_loads_no_multiprocessing():
    assert _loaded_on_import("multiprocessing") == "[]"
