"""The package's export list and its one error type for a bad argument."""
import ast
import os
import pathlib
import subprocess
import sys
import textwrap

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


def test_only_serial_matmul_multiplies_matrices():
    # gmsk.serial_matmul keeps a BLAS product on the calling thread, so an
    # np.matmul or @ anywhere else could start OpenBLAS's thread pool.
    found = []
    for path in sorted(pathlib.Path(blesim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "gmsk.py":
            allowed = {id(node) for fn in tree.body
                       if isinstance(fn, ast.FunctionDef) and fn.name == "serial_matmul"
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "matmul"
                    or isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):
                found.append(f"{path.name}:"
                             + ("serial_matmul" if id(node) in allowed
                                else str(node.lineno)))
    assert found == ["gmsk.py:serial_matmul"], found


def test_blesim_runs_without_scipy():
    # blesim needs only numpy at run time; scipy is a test dependency.
    # pytest's own process has scipy loaded, so a fresh interpreter
    # imports blesim and runs one frame of each mode through the NLOS
    # profile and the interferer, so that an import inside a function
    # fails this too.
    src = str(pathlib.Path(blesim.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = textwrap.dedent("""\
        import sys
        import blesim, blesim.cli
        from blesim.channel import InterfererConfig, nlos_profile
        from blesim.harness import ScenarioConfig, run_frame
        from blesim.phymode import PhyMode
        cfg = ScenarioConfig(id="x", seed=1, phy_modes=tuple(PhyMode),
                             snr_sweep_db=(20.0,), sir_sweep_db=(0.0,),
                             profile=nlos_profile(), interferer=InterfererConfig(),
                             frames=1, pdu_bits=32)
        # Detected frames run every receiver stage, the decoders included.
        print(all(run_frame(cfg, mode, 20.0, 0.0, 0).detected
                  for mode in cfg.phy_modes),
              sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True []"
