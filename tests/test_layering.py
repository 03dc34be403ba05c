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


def test_each_module_imports_first_and_layers_hold():
    src = os.path.dirname(os.path.dirname(qlogent.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH_FIRST], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "cli" in loaded, loaded
    # partitions, the classical layer, is the base module: it imports no other qlogent module
    assert loaded["partitions"] == ["partitions"]
    # the post-selected layer builds on the quantum one (states) and through it on partitions
    assert loaded["postselect"] == ["linalg", "partitions", "postselect", "states"]
