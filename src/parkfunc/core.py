"""Preference words, one-way streets, and the parking process.

A *preference word* is a sequence of 1-based spot labels, one per car: car
``i`` wants the spot labeled ``prefs[i]``.  Cars enter a one-way street in
order; a car whose favorite spot is taken rolls forward to the first free
spot after it, and leaves the street if none exists.  The words for which
every car parks on the plain street ``1..n`` are the parking functions; the
classical Konheim-Weiss criterion characterizes them through the
nondecreasing rearrangement of the word.
"""

from dataclasses import dataclass


PrefWord = tuple[int, ...]
StreetLabels = tuple[int, ...]


def _as_word(word, what="word"):
    """Coerce to a tuple of positive ints, rejecting anything else."""
    try:
        entries = tuple(word)
    except TypeError:
        raise ValueError(f"{what} must be a sequence of integers")
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"{what} entries must be positive integers, got {x!r}")
    return entries


def _check_range(word, max_label, what="word"):
    for x in word:
        if x > max_label:
            raise ValueError(
                f"{what} entry {x} exceeds the allowed maximum label {max_label}"
            )


def parse_word(text):
    """Parse a word literal: positive integers separated by commas or spaces.

    >>> parse_word("3,13,6")
    (3, 13, 6)
    """
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty word literal")
    word = []
    for p in parts:
        x = int(p) if p.isdecimal() else 0
        if x < 1:
            raise ValueError(f"bad word entry {p!r}: expected a positive integer")
        word.append(x)
    return tuple(word)


def format_word(word):
    """Inverse of parse_word: comma-separated entries."""
    return ",".join(str(x) for x in word)


def sorted_rearrangement(word):
    """The nondecreasing rearrangement of a word (sorted multiset of entries)."""
    return tuple(sorted(_as_word(word)))


def _parks_sorted(q):
    """Konheim-Weiss on a nondecreasing word q of positive ints: q_i <= i.

    No input checks: callers validate at their own edge, or pass words they
    built sorted and in range.
    """
    i = 0
    for x in q:
        i += 1
        if x > i:
            return False
    return True


def _prime_sorted(q):
    """q_1 <= 1 and q_i < i for every i > 1, on a nondecreasing word q.

    That is: q has a 1, and deleting it leaves a parking function.  The
    empty word has no 1 to delete, so it is not prime.  No input checks.
    """
    return bool(q) and q[0] <= 1 and _parks_sorted(q[1:])


def is_parking_function(word):
    """True iff the nondecreasing rearrangement q satisfies q_i <= i.

    Entries must lie in [n] where n = len(word); an out-of-range entry is a
    domain error, not a falsy answer.  The empty word parks.
    """
    word = _as_word(word)
    _check_range(word, len(word))
    return _parks_sorted(sorted(word))


def is_prime_parking_function(word):
    """True iff q_1 <= 1 and q_i < i for every i > 1 (q the sorted word).

    Prime parking functions take values in [n-1]; the predicate accepts any
    word over [n] and simply answers False when an entry equals n (n >= 2).
    The length-1 word (1,) counts as prime: the i > 1 condition is vacuous.
    The empty word is not prime: it has no 1 to delete.
    """
    word = _as_word(word)
    _check_range(word, len(word))
    return _prime_sorted(sorted(word))


def strip_first_one(word):
    """Remove the first entry equal to 1, shortening the word by one.

    A word over [n-1] containing a 1 is a prime parking function exactly when
    the stripped word is a parking function of length n-1.
    """
    word = _as_word(word)
    try:
        i = word.index(1)
    except ValueError:
        raise ValueError("word has no entry equal to 1, nothing to strip")
    return word[:i] + word[i + 1:]


def standard_street(n):
    """Spots labeled 1, 2, ..., n."""
    if n < 1:
        raise ValueError("street needs at least one spot")
    return tuple(range(1, n + 1))


def prime_street(n):
    """Spots labeled 1, 1, 2, ..., n-1 (the first label is doubled)."""
    if n < 2:
        raise ValueError("prime street needs n >= 2")
    return (1,) + tuple(range(1, n))


def rotated_street(n, k):
    """Spots labeled k, k, k+1, ..., n-1, 1, 2, ..., k-1 for k in [n-1]."""
    if n < 2:
        raise ValueError("rotated street needs n >= 2")
    if not 1 <= k <= n - 1:
        raise ValueError(f"rotation k must lie in [1, {n - 1}], got {k}")
    return (k,) + tuple(range(k, n)) + tuple(range(1, k))


@dataclass(frozen=True)
class ParkOutcome:
    """Result of running the parking process.

    On success, ``assignment[p]`` is the 1-based index of the car parked at
    physical position p+1 (a bijection when there are as many spots as cars).
    On failure, ``failed_car`` is the first car that left the street and the
    partial assignment is discarded.
    """

    success: bool
    assignment: tuple | None = None
    failed_car: int | None = None


def simulate(word, street):
    """Run the parking process for `word` on a street with the given labels.

    Cars are processed in order.  Car i heads for the leftmost position whose
    label equals its preference and, if that is taken, parks at the smallest
    free position strictly to the right; if none exists it leaves the street
    and the simulation stops.  Every preference must occur among the street's
    labels.
    """
    word = _as_word(word)
    street = _as_word(street, what="street")
    first_pos = _first_positions(street)
    for x in word:
        if x not in first_pos:
            raise ValueError(f"preference {x} does not appear on the street")
    size = len(street)
    parked = [None] * size
    for car, pref in enumerate(word, start=1):
        pos = first_pos[pref]
        while pos < size and parked[pos] is not None:
            pos += 1
        if pos == size:
            return ParkOutcome(success=False, failed_car=car)
        parked[pos] = car
    return ParkOutcome(success=True, assignment=tuple(parked))


def _first_positions(street):
    """Map each label of a street to the leftmost position carrying it."""
    first_pos = {}
    for pos, label in enumerate(street):
        first_pos.setdefault(label, pos)
    return first_pos

