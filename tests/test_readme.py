import importlib
import re
from pathlib import Path

import qlogent

README = Path(__file__).parent.parent / "README.md"


def test_readme_names_resolve():
    # names are often deleted from the code; every (qlogent.)module.name[.attr] that README.md
    # cites must still resolve. numpy.linalg.eigh is not one (it follows a dot), nor is a file
    # name such as partitions.py
    modules = sorted(p.stem for p in Path(qlogent.__file__).parent.glob("[!_]*.py"))
    pattern = r"(?<![\w.])(?:qlogent\.)?(" + "|".join(modules) + r")\.(\w+)(?:\.(\w+))?"
    missing = []
    for m in re.finditer(pattern, README.read_text()):
        module, *names = (g for g in m.groups() if g)
        if names[0] == "py":
            continue
        obj = importlib.import_module("qlogent." + module)
        try:
            for name in names:
                obj = getattr(obj, name)
        except AttributeError:
            missing.append(m.group(0))
    assert not missing, f"README cites names the code lacks: {sorted(set(missing))}"
