import ast
from pathlib import Path

import dichroma

PACKAGE = Path(dichroma.__file__).resolve().parent


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "dichroma"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "dichroma" for alias in node.names
    )


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # must be an explicit raise
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_sit_at_module_top():
    # each module states its package dependencies once, in its import
    # block, so an import cycle fails when the package is imported
    found = sorted({
        f"{name}.py:{node.lineno}"
        for name, tree in _modules()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _package_import(node)
    })
    assert found == []

