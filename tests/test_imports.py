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
    # `__init__.py` re-exports every public name, so its imports do not count.
    # A method or property of a library class counts as read only as an
    # attribute outside its own `def`; dunders are left out, because
    # operators such as `*` read them without an attribute.
    root = Path(__file__).resolve().parents[1]
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
    readers += [p for d in ("tests", "bench", "demos") for p in sorted((root / d).glob("*.py"))]
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
