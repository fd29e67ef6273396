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


def _private_defs(tree):
    """Each private (not dunder) function, class or method defined in tree."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]


def _referenced_names(tree, skip):
    """The names read as an ast.Name or ast.Attribute in tree, outside ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


# Kept with no caller in the library: the tests hold shi._regions to it, and
# it is the engine for Shi arrangements that the (w, U) path does not cover.
KEPT_UNREFERENCED = {"shi._walk"}


def test_every_private_helper_has_a_caller_in_the_library():
    # A helper left behind by a deleted path is dead code; a reference from
    # inside its own body (recursion) does not count.
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    orphans = set()
    for module, tree in trees.items():
        for node in _private_defs(tree):
            used = any(node.name in _referenced_names(other, node)
                       for other in trees.values())
            if not used:
                orphans.add(f"{module}.{node.name}")
    assert orphans == KEPT_UNREFERENCED
