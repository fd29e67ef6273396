"""Source-level rules for the library modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parkfunc"


def test_no_bare_assert_in_the_library():
    # `python -O` strips assert statements, so an invariant check written as
    # one would silently vanish; raise InvariantError or ValueError instead.
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
