"""The exact ValueError each public word function raises, per failure class.

Each row is (call, message).  Where an input breaks more than one rule, the
row pins which check fires first.
"""

import pytest

from parkfunc import (
    decompose, is_parking_function, is_prime_parking_function, recompose, scores,
    simulate, sorted_rearrangement, strip_first_one,
)

WORD_FUNCTIONS = {
    "is_parking_function": is_parking_function,
    "is_prime_parking_function": is_prime_parking_function,
    "sorted_rearrangement": sorted_rearrangement,
    "strip_first_one": strip_first_one,
    "simulate": lambda word: simulate(word, (1, 2, 3)),
    "scores": scores,
    "decompose": decompose,
    "recompose": lambda word: recompose(word, 1),
}

# Every word function coerces its word the same way, before any other check.
ENTRY_ROWS = [
    (name, bad, message)
    for name in WORD_FUNCTIONS
    for bad, message in [
        (5, "word must be a sequence of integers"),
        ((1, True, 1), "word entries must be positive integers, got True"),
        ((1, 1.0, 1), "word entries must be positive integers, got 1.0"),
        ((1, 0, 1), "word entries must be positive integers, got 0"),
    ]
]


@pytest.mark.parametrize("name,bad,message", ENTRY_ROWS)
def test_entry_rejections(name, bad, message):
    with pytest.raises(ValueError) as exc:
        WORD_FUNCTIONS[name](bad)
    assert str(exc.value) == message


ROWS = [
    # too short
    ("scores-one", lambda: scores((1,)), "scores need a word of length >= 2"),
    ("scores-empty", lambda: scores(()), "scores need a word of length >= 2"),
    ("decompose-one", lambda: decompose((1,)), "decompose needs a word of length >= 2"),
    ("decompose-empty", lambda: decompose(()), "decompose needs a word of length >= 2"),
    ("recompose-one", lambda: recompose((1,), 1), "recompose needs a word of length >= 2"),
    ("recompose-empty", lambda: recompose((), 1), "recompose needs a word of length >= 2"),
    ("strip-no-one", lambda: strip_first_one((2, 2)),
     "word has no entry equal to 1, nothing to strip"),
    ("strip-empty", lambda: strip_first_one(()),
     "word has no entry equal to 1, nothing to strip"),
    # out of range
    ("parking-range", lambda: is_parking_function((1, 3)),
     "word entry 3 exceeds the allowed maximum label 2"),
    ("prime-range", lambda: is_prime_parking_function((1, 1, 4)),
     "word entry 4 exceeds the allowed maximum label 3"),
    ("simulate-range", lambda: simulate((1, 4), (1, 2, 3)),
     "preference 4 does not appear on the street"),
    ("scores-range", lambda: scores((1, 1, 3)),
     "word entry 3 exceeds the allowed maximum label 2"),
    ("scores-range-n2", lambda: scores((1, 2)),
     "word entry 2 exceeds the allowed maximum label 1"),
    ("decompose-range", lambda: decompose((1, 3, 1)),
     "word entry 3 exceeds the allowed maximum label 2"),
    ("recompose-range", lambda: recompose((1, 3, 1), 1),
     "word entry 3 exceeds the allowed maximum label 2"),
    # not nondecreasing
    ("scores-unsorted", lambda: scores((2, 1, 1)), "scores expect a nondecreasing word"),
    # a bad k
    ("recompose-k-zero", lambda: recompose((1, 2, 1), 0), "shift k must lie in [1, 2], got 0"),
    ("recompose-k-high", lambda: recompose((1, 2, 1), 3), "shift k must lie in [1, 2], got 3"),
    ("recompose-k-n2", lambda: recompose((1, 1), 2), "shift k must lie in [1, 1], got 2"),
    ("recompose-k-bool", lambda: recompose((1, 2, 1), True),
     "shift k must be an integer, got True"),
    ("recompose-k-float", lambda: recompose((1, 2, 1), 1.0),
     "shift k must be an integer, got 1.0"),
    ("recompose-k-false", lambda: recompose((1, 2, 1), False),
     "shift k must be an integer, got False"),
    ("recompose-k-str", lambda: recompose((1, 2, 1), "1"),
     "shift k must be an integer, got '1'"),
    ("recompose-k-none", lambda: recompose((1, 2, 1), None),
     "shift k must be an integer, got None"),
    # the street of simulate
    ("street-not-iterable", lambda: simulate((1, 1), 7), "street must be a sequence of integers"),
    ("street-bool", lambda: simulate((1, 1), (1, False)),
     "street entries must be positive integers, got False"),
    ("street-zero", lambda: simulate((1, 1), (1, 0)),
     "street entries must be positive integers, got 0"),
    # which check fires first
    ("entry-before-range", lambda: is_parking_function((3, 0)),
     "word entries must be positive integers, got 0"),
    ("decompose-length-before-range", lambda: decompose((5,)),
     "decompose needs a word of length >= 2"),
    ("scores-length-before-range", lambda: scores((5,)), "scores need a word of length >= 2"),
    ("scores-range-before-order", lambda: scores((2, 1, 3)),
     "word entry 3 exceeds the allowed maximum label 2"),
    ("recompose-length-before-range-and-k", lambda: recompose((5,), 9),
     "recompose needs a word of length >= 2"),
    ("recompose-range-before-k", lambda: recompose((1, 3, 1), 9),
     "word entry 3 exceeds the allowed maximum label 2"),
    ("simulate-street-before-preferences", lambda: simulate((9,), (1, 0)),
     "street entries must be positive integers, got 0"),
]


@pytest.mark.parametrize("call,message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_rejections(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
