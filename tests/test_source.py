import ast
import importlib
from collections import Counter
from pathlib import Path

import dichroma
from mutants import EQUIVALENT, MUTANTS

PACKAGE = Path(dichroma.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


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


def test_front_ends_import_no_private_name():
    # the paper re-check checks through the entry points users call, so
    # its claims cannot re-run a search's internals and share its faults
    found = [
        f"{name}.py:{node.lineno} {alias.name}"
        for name, tree in _modules()
        if name in ("claims", "cli")
        for node in ast.walk(tree)
        if _package_import(node)
        for alias in node.names
        if alias.name.startswith("_")
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


def test_one_graph_type():
    # a graph is a symmetric Digraph, so no class beside Digraph stores
    # bitset rows, as an attribute or as a dataclass field
    found = sorted(
        f"{name}.{cls.name}"
        for name, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(
            isinstance(node, ast.Attribute) and node.attr == "rows"
            and isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.AnnAssign)
            and getattr(node.target, "id", None) == "rows"
            for node in ast.walk(cls)
        )
    )
    assert found == ["digraphs.Digraph"]


def test_only_digraphs_sets_in_rows():
    # a Digraph's in-rows are its transpose, built by in_rows or handed to
    # the constructor by a caller that knows them, so no module but
    # digraphs names the cached _irows, to write it or otherwise
    found = sorted(
        f"{name}.py:{node.lineno}"
        for name, tree in _modules()
        if name != "digraphs"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_irows"
    )
    assert found == []


def test_one_canonical_search():
    # canon._canon is the one canonical search: no other module names it,
    # its refinement or its leaf encoding, so every certificate, the
    # census's partial states included, comes from canon's own code
    private = {"_canon", "_refine", "_encode"}
    found = sorted(
        f"{name}.py:{node.lineno} {ref}"
        for name, tree in _modules()
        if name != "canon"
        for node in ast.walk(tree)
        for ref in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        if ref in private
    )
    assert found == []


def test_benchmark_entry_points_exist():
    # the benchmark calls the package by name, private names included, and
    # no other test runs it: every name it imports from dichroma and every
    # attribute it reads off a dichroma module must exist
    missing, checked = [], set()
    for path in (BENCH / "run.py", BENCH / "make_reference.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {"dichroma": dichroma}
        reads = [
            (node.lineno, node.module, alias.name, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and _package_import(node)
            for alias in node.names
        ]
        for lineno, module, name, bound in reads:
            try:
                modules[bound] = importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                pass
        reads += [
            (node.lineno, modules[node.value.id].__name__, node.attr, None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
        for lineno, module, name, _ in reads:
            checked.add(f"{module}.{name}")
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}:{lineno} {module}.{name}")
    assert {"dichroma.solver._bound_chunk", "dichroma.cli._CLAIMS"} <= checked
    assert missing == []


def test_every_function_has_a_caller():
    # library code that only tests call belongs in the tests, exported or
    # not: a top-level function is referenced outside its own body, and a
    # method of a top-level class other than a dunder is referenced
    # outside its class
    refs: dict[str, set] = {}
    defs = []
    for name, tree in _modules():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = top.name
                defs.append((name, owner, owner))
            elif isinstance(top, ast.ClassDef):
                owner = top.name
                defs += [(name, owner, node.name) for node in top.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not node.name.startswith("__")]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                refs.setdefault(ref, set()).add((name, owner))
    found = [
        f"{mod}.{fn}" if owner == fn else f"{mod}.{owner}.{fn}"
        for mod, owner, fn in defs
        if not refs.get(fn, set()) - {(mod, owner)}
    ]
    assert found == []


def test_every_bruteforce_reference_is_used():
    # a reference that no test reaches checks nothing: every function of
    # bruteforce.py is imported by a test module, or named by a bruteforce
    # function that is; and every helper of a test module or conftest.py,
    # a top-level function that is no test, fixture, Hypothesis strategy
    # or pytest hook, is named outside its own body
    tree = ast.parse((TESTS / "bruteforce.py").read_text())
    names = {
        top.name: {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
    }
    todo = [
        alias.name
        for path in sorted(TESTS.glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "bruteforce"
        for alias in node.names
    ]
    reached = set()
    while todo:
        name = todo.pop()
        if name in names and name not in reached:
            reached.add(name)
            todo += names[name]
    assert sorted(names.keys() - reached) == []
    unused = []
    for path in [TESTS / "conftest.py", *sorted(TESTS.glob("test_*.py"))]:
        body = ast.parse(path.read_text()).body
        named = [{n.id for n in ast.walk(top) if isinstance(n, ast.Name)} for top in body]
        for i, top in enumerate(body):
            if not isinstance(top, ast.FunctionDef) or top.name.startswith(("test_", "pytest_")):
                continue
            decorators = {getattr(getattr(dec, "func", dec), "attr", None)
                          for dec in top.decorator_list}
            if not decorators & {"fixture", "composite"} and not any(
                top.name in names for j, names in enumerate(named) if j != i
            ):
                unused.append(f"{path.name}:{top.lineno} {top.name}")
    assert unused == []


def test_mutants_name_live_code():
    # each mutant of mutants.py replaces text that occurs exactly once in
    # its file and names tests that exist, so a change that rewrites the
    # code must rewrite its mutant instead of silently dropping it
    tests = {
        f"tests/{path.name}": {node.name for node in ast.parse(path.read_text()).body
                               if isinstance(node, ast.FunctionDef)}
        for path in TESTS.glob("test_*.py")
    }
    names = [m.name for m in MUTANTS + EQUIVALENT]
    assert len(set(names)) == len(names)
    for m in MUTANTS + EQUIVALENT:
        assert (PACKAGE / m.path).read_text().count(m.old) == 1, m.name
        assert m.kills or m in EQUIVALENT, m.name
        for node in m.kills:
            path, test = node.split("::")
            assert test.split("[")[0] in tests[path], (m.name, node)


def test_one_claim_runner():
    # the claim table has one runner, verify-paper: no test builds its own
    # ClaimContext, and the acceptance gate reads the suite's full run
    # rather than calling searches or brute-force oracles itself
    found = [
        f"{path.name}:{node.lineno} ClaimContext"
        for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "ClaimContext" in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))
    ]
    barred = {"bruteforce"} | {
        f"dichroma.{m}" for m in ("canon", "digraphs", "solver", "structure")
    }
    for node in ast.walk(ast.parse((TESTS / "test_acceptance.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [f"test_acceptance.py:{node.lineno} {m}" for m in names if m in barred]
    assert found == []


def test_no_test_skips_itself():
    # the test extra (pytest and hypothesis) is the one test environment:
    # no test module calls pytest's skip, its mark or its form for a module
    # that fails to import (any callee named *skip), so a missing module
    # fails the run instead of silently dropping the property tests
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
        for path in sorted(TESTS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", "")).endswith("skip")
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


def test_no_function_calls_itself():
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


def test_one_colouring_search():
    # solver._static_colourings is the one walk over colourings: it calls
    # the class test through its blocked argument, and by name only the
    # census pool's one-step extension calls _creates_cycle, so no second
    # search can grow around it; passing _creates_cycle as blocked is fine
    found = sorted(
        name
        for mod, tree in _modules()
        for name, fn in _functions(tree, mod)
        if any(
            isinstance(call, ast.Call)
            and "_creates_cycle" in (getattr(call.func, "id", None),
                                     getattr(call.func, "attr", None))
            for call in ast.walk(fn)
        )
    )
    assert found == ["enumeration._extend"]


def test_verify_path_shares_no_search_code():
    # every positive answer is re-checked by code that shares nothing with
    # the search that found it, so a fault in the search cannot pass its
    # own answers: the checks live in certify, and neither it nor what it
    # imports imports a search (an import of any other form adds a name)
    imports = {name: {getattr(node, "module", None) for node in ast.walk(tree)
                      if _package_import(node)} for name, tree in _modules()}
    assert (imports["certify"], imports["formats"], imports["digraphs"]) == (
        {"digraphs", "formats"}, {"digraphs"}, set())
    checks = ("_mask_acyclic", "verify_dicolouring", "_verified")
    assert {getattr(dichroma.certify, name).__module__ for name in checks} == {
        "dichroma.certify"}
    assert [name for mod, tree in _modules() if mod != "certify"
            for name, fn in _functions(tree, mod) if fn.name in checks] == []


def test_certificate_entries_name_their_checker():
    # each public entry that returns a certificate checks it itself, so a
    # refactor cannot drop that check without this test failing
    defs = {fn.name: fn for _, tree in _modules() for _, fn in _functions(tree, "")}
    for entry, checker in (("is_k_dicolourable", "_verified"),
                           ("induced_acyclic_set", "_mask_acyclic"),
                           ("cactus_induced_forest", "_mask_acyclic"),
                           ("arboricity", "_mask_acyclic")):
        names = {node.id for node in ast.walk(defs[entry])
                 if isinstance(node, ast.Name)}
        assert checker in names, entry


def test_cli_declares_each_option_once():
    # an option that subcommands share is declared once, in a parent parser
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    declared = Counter(
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    )
    assert "--json" in declared
    assert sorted(opt for opt, count in declared.items() if count > 1) == []


def test_integers_and_json_have_one_reader():
    # formats.read_int and read_json decide the syntax of every integer and
    # JSON document the program reads: no other code checks digits, hands
    # argparse int or calls json.load(s)
    found = []
    for name, tree in _modules():
        inside = {
            id(node)
            for qualified, fn in _functions(tree, name)
            if qualified in ("formats.read_int", "formats.read_json")
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            func = node.func
            attr = getattr(func, "attr", None)
            if (
                attr in ("isdigit", "isdecimal", "isnumeric")
                or attr in ("load", "loads")
                and getattr(func.value, "id", None) == "json"
                or attr == "add_argument"
                and any(kw.arg == "type" and getattr(kw.value, "id", None) == "int"
                        for kw in node.keywords)
            ):
                found.append(f"{name}.py:{node.lineno} {attr}")
    assert found == []


def test_surface_bounds_are_integer_arithmetic():
    # surfaces' docstring says every bound is exact integer arithmetic: no
    # decimal, no logarithm, ceiling or float() call, no float literal and
    # no true division, so a float path cannot come back unnoticed
    tree = dict(_modules())["surfaces"]
    assert "is exact integer arithmetic" in ast.get_docstring(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            bad = any(m.split(".")[0] == "decimal" for m in names)
        elif isinstance(node, ast.Call):
            called = ast.unparse(node.func)
            bad = called in ("float", "math.ceil") or called.startswith("math.log")
        else:
            bad = isinstance(node, ast.Div) or (
                isinstance(node, ast.Constant) and isinstance(node.value, float))
        if bad:
            found.append(f"{getattr(node, 'lineno', '')} {type(node).__name__}")
    assert found == []
