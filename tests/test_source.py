"""Source-level rules for the library modules and the test references."""

import ast
import re
from pathlib import Path

import pytest

from parkfunc import (
    GuardRangeError, count_parking_functions, count_prime_parking_functions,
    enumerate_regions, verify_bijection, verify_pak_stanley, verify_proposition,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "parkfunc"


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


def _trees(folder):
    """Module name -> parsed source, for each module in folder."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(folder.glob("*.py"))}


def _private_defs(tree):
    """Each private (not dunder) function, class or method defined in tree."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]


def _referenced_names(tree, skip):
    """The names read as an ast.Name or ast.Attribute in tree, outside ``skip``.

    An attribute read on a plain name, ``a.b``, also adds "a.b".
    """
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_private_helper_has_a_caller_in_the_library():
    # A helper left behind by a deleted path is dead code; a reference from
    # inside its own body (recursion) does not count.
    trees = _trees(SRC)
    orphans = set()
    for module, tree in trees.items():
        for node in _private_defs(tree):
            used = any(node.name in _referenced_names(other, node)
                       for other in trees.values())
            if not used:
                orphans.add(f"{module}.{node.name}")
    assert orphans == set()


def _reads_through(tree, module):
    """The names a tests module reads through the module named ``module``.

    ``module.X`` and ``from module import X`` read X, and so does the string
    "X" in a function that calls ``getattr(module, ...)`` or
    ``monkeypatch.setattr(module, ...)``, as a parametrized test does.
    """
    names = {name.partition(".")[2] for name in _referenced_names(tree, None)
             if name.startswith(module + ".")}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and call.args
            and ast.unparse(call.func) in ("getattr", "monkeypatch.setattr")
            and ast.unparse(call.args[0]) == module
            for call in ast.walk(node)
        ):
            names.update(const.value for const in ast.walk(node)
                         if isinstance(const, ast.Constant) and isinstance(const.value, str))
    return names


@pytest.mark.parametrize("module", ["word_oracle", "shi_walk"])
def test_every_reference_def_has_a_reader_in_the_tests(module):
    # A reference whose tests were deleted is dead code too: each top-level
    # def must be read through its module by another tests module, or be
    # read by another def of its own.  A library name it shares does not count.
    trees = _trees(TESTS)
    read = set().union(*(_reads_through(tree, module)
                         for name, tree in trees.items() if name != module))
    orphans = {
        node.name for node in trees[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
        and node.name not in _referenced_names(trees[module], node)
    }
    assert orphans == set()


def _binds_only(node):
    """Whether a module-level statement only binds names when it runs.

    Imports, def and class statements, and dunder names bound to literals
    (``__all__``, ``__version__``) bind; so does the ``__main__`` guard,
    whose body runs only when the module is the program.
    """
    if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                         ast.AsyncFunctionDef, ast.ClassDef)):
        return True
    if isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if len(names) != len(node.targets) or not all(
                name.startswith("__") and name.endswith("__") for name in names):
            return False
        try:
            ast.literal_eval(node.value)
        except ValueError:
            return False
        return True
    return (isinstance(node, ast.If) and not node.orelse
            and ast.unparse(node.test) == "__name__ == '__main__'")


def test_module_bodies_do_no_work_at_import():
    # Every command pays for the import, so a table computed in a module body
    # is paid for by callers that never read it; build it inside the call.
    work = [
        f"{module}.py:{node.lineno}"
        for module, tree in _trees(SRC).items()
        for node in tree.body[ast.get_docstring(tree) is not None:]
        if not _binds_only(node)
    ]
    assert work == []


LIBRARY_IMPORTS = {
    "argparse", "fractions", "functools", "itertools", "json", "math",
    "operator", "os", "random", "sys", "time", "typing",
}


def test_the_library_imports_only_the_pinned_stdlib_modules():
    # A new import adds to every command's start-up, so it is a decision to
    # record here, not a side effect of a change.
    found = set()
    for tree in _trees(SRC).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found == LIBRARY_IMPORTS


GUARDED = [
    count_parking_functions, count_prime_parking_functions, verify_bijection,
    verify_proposition, enumerate_regions, verify_pak_stanley,
]


@pytest.mark.parametrize("oracle", GUARDED, ids=lambda oracle: oracle.__name__)
def test_each_guard_is_the_one_its_docstring_states(oracle):
    # The docstring is where a caller reads the bound, so the check must match it.
    [bound] = re.findall(r"Guarded\s+to\s+n\s+<=\s+(\d+)", oracle.__doc__)
    hi = int(bound)
    with pytest.raises(GuardRangeError) as exc:
        oracle(hi + 1)
    assert str(exc.value) == f"{oracle.__name__} is guarded to n <= {hi} (got n={hi + 1})"


@pytest.mark.parametrize("force", ["yes", "", 1, 0, 1.0, None])
@pytest.mark.parametrize("oracle", GUARDED, ids=lambda oracle: oracle.__name__)
def test_force_must_be_a_bool(oracle, force):
    # A truthy non-bool used to force the run; above the guard it would
    # have scanned a space the guard is there to refuse.
    for n in (3, 11):
        with pytest.raises(ValueError) as exc:
            oracle(n, force=force)
        assert not isinstance(exc.value, GuardRangeError)
        assert str(exc.value) == f"{oracle.__name__} needs a bool force (got force={force!r})"
