"""Each script under demo/ runs to completion against the package."""

import glob
import os
import subprocess
import sys

import pytest

import dtspn

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demo")
SCRIPTS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))


def test_the_demo_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=os.path.basename)
def test_demo_script_exits_zero(script, tmp_path):
    # the scripts write their SVG, CSV and dataset files into the working
    # directory, so each runs in its own
    src = os.path.dirname(os.path.dirname(dtspn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, script], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
