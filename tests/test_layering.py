import json
import os
import subprocess
import sys

import qlogent

# The package imports none of its modules, so an import cycle shows only for the module
# imported first. In one interpreter, each module is imported after every qlogent entry is
# dropped from sys.modules; prints {module: the qlogent modules then loaded}.
IMPORT_EACH_FIRST = """
import importlib, json, pkgutil, sys
import qlogent
loaded = {}
for info in pkgutil.iter_modules(qlogent.__path__):
    for name in [m for m in sys.modules if m == "qlogent" or m.startswith("qlogent.")]:
        del sys.modules[name]
    importlib.import_module("qlogent." + info.name)
    loaded[info.name] = sorted(m[8:] for m in sys.modules if m.startswith("qlogent."))
print(json.dumps(loaded))
"""


def _fresh_interpreter(script: str):
    """The JSON that script prints, run in a new interpreter on this qlogent."""
    src = os.path.dirname(os.path.dirname(qlogent.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_module_imports_first_and_layers_hold():
    loaded = _fresh_interpreter(IMPORT_EACH_FIRST)
    assert "cli" in loaded, loaded
    # partitions, the classical layer, is the base module: it imports no other qlogent module
    assert loaded["partitions"] == ["partitions"]
    # the post-selected layer builds on the quantum one (states) and through it on partitions
    assert loaded["postselect"] == ["linalg", "partitions", "postselect", "states"]


# verify reads no file, so it never maps orjson; the first matrix-file read does
ORJSON_ON_FIRST_READ = """
import contextlib, io, json, os, sys, tempfile
import numpy as np
from qlogent import cli, reports
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--prop", "1a", "--dims", "2", "--trials", "2"])
after_verify = "orjson" in sys.modules
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "rho.json")
    reports.write_matrix_file(path, "density", np.eye(2) / 2)
    reports.load_matrix_file(path, "density")
print(json.dumps([code, after_verify, "orjson" in sys.modules]))
"""


def test_orjson_is_imported_by_the_first_matrix_file_read_only():
    assert _fresh_interpreter(ORJSON_ON_FIRST_READ) == [0, False, True]
