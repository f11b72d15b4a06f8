"""Every import in the package and its tests is used.

No linter is a dependency of this project, so this is a small stand-in for
pyflakes' unused-import check, built on the standard-library ``ast``.  A
name counts as used when the module reads it anywhere, or, in a package
``__init__``, when ``__all__`` lists it.  The package's ``__all__`` must
also name each export once, and each must resolve: a name left behind by a
deletion fails here.  numpy is the one runtime dependency: neither the
package nor any command it runs imports scipy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import ukfkit

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "ukfkit").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(path: Path) -> list[str]:
    """'file:line name' for each name an import in `path` binds and the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in used]


def test_no_unused_imports():
    assert {"__init__.py", "kf.py", "test_imports.py"} <= {path.name for path in SOURCES}
    assert [hit for path in SOURCES for hit in unused_imports(path)] == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\nimport os\nimport os.path as osp\nimport sys as system\n"
        "from math import pi, tau\n\n__all__ = ['osp']\nprint(system.argv, tau)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["probe.py:2 os", "probe.py:5 pi"]


def test_package_exports_resolve_once_each():
    assert len(ukfkit.__all__) == len(set(ukfkit.__all__))
    assert [name for name in ukfkit.__all__ if getattr(ukfkit, name, None) is None] == []


def test_no_source_imports_scipy():
    imported = []
    for path in sorted((ROOT / "src" / "ukfkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append((path.name, node.module or ""))
    assert [hit for hit in imported if hit[1].split(".")[0] == "scipy"] == []


def test_numpy_still_has_the_four_private_gufuncs_of_the_lapack_layer():
    # numerics calls these directly; a numpy that renames them must fail here, not be routed around.
    from numpy.linalg._umath_linalg import cholesky_lo, qr_r_raw, solve, solve1

    from ukfkit import numerics

    assert numerics._umath_linalg.__name__ == "numpy.linalg._umath_linalg"
    assert [f.signature for f in (cholesky_lo, solve, solve1, qr_r_raw)] == ["(m,m)->(m,m)", "(m,m),(m,n)->(m,n)", "(m,m),(m)->(m)", "(m,n)->(p)"]
    assert all("d->d" in f.types or "dd->d" in f.types for f in (cholesky_lo, solve, solve1, qr_r_raw))


# Runs in a fresh interpreter, since this test process has scipy loaded.
NO_SCIPY_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import ukfkit
from ukfkit import cli
out = sys.argv[2]
assert cli.main(["run", "--model", "lorenz", "--filters", "enkf,ekf,ukf,eukfa,eukfc", "--ensemble", "50",
                 "--steps", "5", "--out", out + "/run.csv"]) == 0
assert cli.main(["run", "--model", "linear-ex1", "--filters", "kf,eukfa", "--steps", "5", "--out", out + "/kf.csv"]) == 0
assert cli.main(["verify", "--trials", "2"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_command_loads_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CODE, str(ROOT / "src"), str(tmp_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
