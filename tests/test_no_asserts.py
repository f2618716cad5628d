"""Checks in the package are real code: `python -O` strips `assert`."""

import ast
from pathlib import Path

import momlab


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(momlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in momlab: {found}"
