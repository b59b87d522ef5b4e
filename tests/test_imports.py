"""Layering: every import in the package sits at the top of its module."""

import ast
import pathlib

import variety_forge

# Element.__str__ prints through exprs, which imports terms
_ALLOWED = {("terms", "Element.__str__")}


def _function_imports(tree):
    """(qualified function name, line) of each import inside a function body."""
    found = []

    def walk(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.append((".".join(scope), child.lineno))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + [child.name], in_function)
            else:
                walk(child, scope, in_function)

    walk(tree, [], False)
    return found


def test_imports_are_at_module_level():
    package = pathlib.Path(variety_forge.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, lineno in _function_imports(tree):
            if (path.stem, function) not in _ALLOWED:
                offenders.append("%s.py:%d in %s" % (path.stem, lineno, function))
    assert not offenders, offenders


def test_algebras_imports_nothing_from_linalg():
    # structure-constant evaluation needs no row reduction
    path = pathlib.Path(variety_forge.__file__).parent / "algebras.py"
    modules = {node.module for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)}
    assert "linalg" not in modules, modules


def test_no_module_imports_dataclasses():
    # dataclasses pulls inspect, ast, dis and tokenize into every process
    package = pathlib.Path(variety_forge.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append("%s.py:%d" % (path.stem, node.lineno))
    assert not offenders, offenders
