"""The contract of the public records: immutable, compared by fields, fixed reprs."""

import pytest

from parkfunc import (
    CountReport,
    Decomposition,
    Hyperplane,
    ParkOutcome,
    Region,
    ScoreVector,
    SignVector,
)


def _region(label):
    return Region(SignVector(2, (1, -1)), label, True, sum(label) - 2)


# Per record: a builder called twice, a record that differs in one field,
# and the repr of the first, taken from the library when its records were
# frozen dataclasses (the last four) or already NamedTuples (the first three).
RECORDS = {
    "Hyperplane": (lambda: Hyperplane(1, 2, 1), Hyperplane(1, 2, 0),
                   "Hyperplane(i=1, j=2, k=1)"),
    "ScoreVector": (lambda: ScoreVector((1, 3, 2), 1), ScoreVector((1, 3, 2), 2),
                    "ScoreVector(values=(1, 3, 2), argmin=1)"),
    "Decomposition": (lambda: Decomposition(1, (2, 1, 1)), Decomposition(2, (2, 1, 1)),
                      "Decomposition(k=1, b=(2, 1, 1))"),
    "ParkOutcome": (lambda: ParkOutcome(success=False, failed_car=2),
                    ParkOutcome(success=False, failed_car=3),
                    "ParkOutcome(success=False, assignment=None, failed_car=2)"),
    "CountReport": (lambda: CountReport(3, 27, 16, 16, True, 0.5),
                    CountReport(3, 27, 16, 16, True, 0.25),
                    "CountReport(n=3, total_words=27, matching=16, formula_value=16, "
                    "agrees=True, elapsed=0.5)"),
    "SignVector": (lambda: SignVector(2, (1, -1)), SignVector(2, (1, 1)),
                   "SignVector(n=2, signs=(1, -1))"),
    "Region": (lambda: _region((1, 1)), _region((1, 2)),
               "Region(sign_vector=SignVector(n=2, signs=(1, -1)), label=(1, 1), "
               "bounded=True, bfs_depth=0)"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, other, text = RECORDS[name]
    record, twin = build(), build()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    assert record != other
    field = text[len(name) + 1:].split("=")[0]  # the first field, read off the repr
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    assert record == twin

