import ast
from pathlib import Path

import dichroma

PACKAGE = Path(dichroma.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # must be an explicit raise
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
