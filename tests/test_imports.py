import ast
from pathlib import Path

import stripdep


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
    # `__init__.py` re-exports every public name, so its imports do not count
    root = Path(__file__).resolve().parents[1]
    package = sorted(Path(stripdep.__file__).parent.glob("*.py"))
    defined = {(path.name, node.name) for path in package
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    readers = [p for p in package if p.name != "__init__.py"]
    readers += [p for d in ("tests", "bench", "demos") for p in sorted((root / d).glob("*.py"))]
    used = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert defined
    assert sorted(f"{module}: {name}" for module, name in defined if name not in used) == []
