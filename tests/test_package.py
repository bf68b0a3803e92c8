"""The package's export list and its one error type for a bad argument."""
import ast
import os
import pathlib
import subprocess
import sys

import blesim


def test_every_exported_name_resolves_and_star_import_binds_it():
    assert not [name for name in blesim.__all__ if not hasattr(blesim, name)]
    namespace = {}
    exec("from blesim import *", namespace)
    for name in blesim.__all__:
        assert namespace[name] is getattr(blesim, name), name


def test_no_module_raises_a_bare_value_or_type_error():
    # A bad argument raises ParamError, which is also a ValueError.
    found = []
    for path in sorted(pathlib.Path(blesim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_module_imports_a_name_it_never_uses():
    # perfbench traces a stage by rebinding the name a module imported, so
    # an import left behind by a deleted call would report a silent 0.
    found = []
    for path in sorted(pathlib.Path(blesim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # imports to re-export them
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_importing_blesim_does_not_load_scipy_signal():
    # scipy.signal takes as long to import as the rest of blesim's start,
    # and pytest's own process has it loaded, so a fresh interpreter looks.
    src = str(pathlib.Path(blesim.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, blesim, blesim.cli, blesim.harness; "
            "print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
