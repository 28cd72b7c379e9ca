import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stripdep

ROOT = Path(__file__).resolve().parents[1]


def test_library_modules_use_every_name_they_import():
    # `__init__.py` imports only to re-export
    unused = []
    for path in sorted(Path(stripdep.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_library_definition_is_used():
    # `__init__.py` re-exports every public name, so its imports do not count.
    # A method or property of a library class counts as read only as an
    # attribute outside its own `def`; dunders are left out, because
    # operators such as `*` read them without an attribute.
    package = sorted(Path(stripdep.__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package}
    defined = {(path.name, node.name) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    methods = [(path, f"{cls.name}.{node.name}", node)
               for path, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    readers = [p for p in package if p.name != "__init__.py"]
    readers += [p for d in ("tests", "bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    used = set()
    attributes = []
    for path in readers:
        for node in ast.walk(trees.get(path) or ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                attributes.append((path, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert defined and methods
    assert sorted(f"{module}: {name}" for module, name in defined if name not in used) == []
    unread = [f"{path.name}: {name}" for path, name, node in methods
              if not any(attr == node.name
                         and (at != path or not node.lineno <= line <= node.end_lineno)
                         for at, line, attr in attributes)]
    assert unread == []


def test_simulate_never_imports_scipy(tmp_path):
    # one fresh interpreter, every statistic, and the JSON summary that
    # carries each statistic's KS value
    out = tmp_path / "sim.json"
    script = (
        "import json, sys\n"
        "from stripdep.cli import main\n"
        "code = main(['simulate', '--K', '30', '--runs', '64', '--seed', '5',"
        " '--stat', 'roots', '--stat', 'gaps', '--i', '1', '--i', '2',"
        " '--stat', 'empirical-gap-average', '--stat', 'height-growth', '--n-steps', '300',"
        f" '--format', 'json', '--out', {str(out)!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
    summary = json.loads(out.read_text())["statistics"]
    assert sorted(summary) == ["empirical_gap_average", "gaps[1]", "gaps[2]", "height_growth",
                               "roots"]
    assert all("ks_normal" in entry for entry in summary.values())


def test_third_party_imports_are_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    imported = set()
    for path in sorted(Path(stripdep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = sorted(imported - set(sys.stdlib_module_names))

    def names(requirements):
        return sorted(re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements)

    assert third_party == names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
