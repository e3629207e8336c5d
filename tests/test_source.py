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



# functions kept without a caller in the package, with the reason
UNCALLED = {
    # the unfiltered orientation stream, the reference the census
    # stream is tested against
    "enumeration.gen_orientations",
}


def test_every_function_has_a_caller_or_is_exported():
    # library code that only tests call belongs in the tests
    refs: dict[str, set] = {}
    defs = []
    for name, tree in _modules():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = top.name
                defs.append((name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                refs.setdefault(ref, set()).add((name, owner))
    found = [
        f"{mod}.{fn}"
        for mod, fn in defs
        if fn not in dichroma.__all__
        and not refs.get(fn, set()) - {(mod, fn)}
        and f"{mod}.{fn}" not in UNCALLED
    ]
    assert found == []
