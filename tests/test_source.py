import ast
from pathlib import Path

import dichroma

PACKAGE = Path(dichroma.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def test_no_unused_imports():
    # an import that nothing reads is dead code; a name in __all__ is read
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        found += [
            f"{path.parent.name}/{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in used
        ]
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


def _functions(node, prefix):
    """(qualified name, node) of every function below node, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def test_no_recursion_outside_allowlist():
    # a recursive search is bounded by Python's recursion limit, which
    # inputs within MAX_VERTICES can pass, so every search runs on an
    # explicit stack and no function calls itself
    found = sorted(
        name
        for mod, tree in _modules()
        for name, fn in _functions(tree, mod)
        if any(
            isinstance(call, ast.Call)
            and (
                isinstance(call.func, ast.Name) and call.func.id == fn.name
                or isinstance(call.func, ast.Attribute)
                and call.func.attr == fn.name
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
            )
            for call in ast.walk(fn)
        )
    )
    assert found == []
