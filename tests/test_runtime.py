"""The package runs on numpy and the standard library alone."""

import json
import os
import subprocess
import sys

import dtspn

# the distributions behind the top-level modules that the code imports,
# beyond those the interpreter loaded at startup (site hooks may load some)
PROBE = """
import importlib, importlib.metadata, json, pkgutil, sys
before = {m.partition(".")[0] for m in sys.modules}
CODE
new = {m.partition(".")[0] for m in sys.modules} - before - {"dtspn"}
dists = importlib.metadata.packages_distributions()
print(json.dumps(sorted({d for m in new for d in dists.get(m, ())})))
"""

IMPORT_ALL = """
import dtspn
for m in pkgutil.walk_packages(dtspn.__path__, "dtspn."):
    importlib.import_module(m.name)
"""


def imported_distributions(code: str) -> list:
    src = os.path.dirname(os.path.dirname(dtspn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", PROBE.replace("CODE", code)],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_every_module_imports_numpy_alone():
    assert imported_distributions("import numpy") == ["numpy"]
    assert imported_distributions(IMPORT_ALL) == ["numpy"]
