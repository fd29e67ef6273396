"""The mutant catalogue of ``tests/mutants.py`` still applies to the source.

This check only reads files; ``tests/run_mutants.py`` runs the mutants.
"""

import pytest

from mutants import MUTANTS, REPO, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_each_mutant_replaces_one_text_and_names_its_tests(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        assert (REPO / node.partition("::")[0]).is_file(), node
