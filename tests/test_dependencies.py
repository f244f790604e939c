"""The library and its command line run on numpy alone; scipy is a test referee."""

import os
import subprocess
import sys

from test_demos import PACKAGE_PARENT


def test_import_loads_no_scipy():
    code = ("import sys, spindbm, spindbm.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
