"""The package's export list and its one error type for a bad argument."""
import ast
import pathlib

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
