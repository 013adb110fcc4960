"""Checks on the package source itself."""

import ast
import pathlib

import quepp

PACKAGE = pathlib.Path(quepp.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert; invariants must raise a QueppError instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert not found, f"assert statements in {found}"
