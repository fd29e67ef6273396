"""The mutant catalogue of ``tests/mutants.py`` still applies to the source.

This check only reads files; ``tests/run_mutants.py`` runs the mutants.
"""

import ast

import pytest

from mutants import MUTANTS, REPO, SRC


def _defines(path, names):
    """Whether the module at ``path`` defines ``names``: a class, its nested classes, a def."""
    body = ast.parse(path.read_text()).body
    for name in names:
        body = next((node.body for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name),
                    None)
        if body is None:
            return False
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_each_mutant_replaces_one_text_and_names_its_tests(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        # path::Class::test[param]: the param is dropped, and the rest must be defined.
        path, *names = node.partition("[")[0].split("::")
        assert (REPO / path).is_file(), node
        assert names and _defines(REPO / path, names), node


def test_every_library_module_has_a_row():
    # A module that no row mutates has no check that its tests catch a fault.
    modules = {path.name for path in SRC.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert modules - {mutant.file for mutant in MUTANTS} == set()
