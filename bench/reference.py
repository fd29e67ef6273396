"""Independent reference answers for the benchmark.

Nothing here imports parkfunc: every check is written from the definitions
(the sorted-word criteria, the parking process, the shift congruence and the
closed-form counts), so a wrong answer from the library cannot also be the
reference's answer.
"""

import itertools


def is_parking(word):
    """Sorted-word criterion: entries in [n] and q_i <= i."""
    return all(1 <= q <= i for i, q in enumerate(sorted(word), start=1))


def is_prime(word):
    """Sorted-word criterion for prime words: q_1 = 1 and q_i < i for i > 1."""
    q = sorted(word)
    return bool(q) and q[0] == 1 and all(q[i] <= i for i in range(1, len(q)))


def standard_street(n):
    return list(range(1, n + 1))


def prime_street(n):
    return [1] + list(range(1, n))


def rotated_street(n, k):
    return [k] + list(range(k, n)) + list(range(1, k))


def park(word, labels):
    """Cars take the first free spot at or after their label's first spot.

    Returns (assignment, None) with the car at each spot, or (None, car) for
    the first car that leaves the street.
    """
    first = {}
    for pos, label in enumerate(labels):
        first.setdefault(label, pos)
    spots = [None] * len(labels)
    for car, pref in enumerate(word, start=1):
        pos = first[pref]
        while pos < len(spots) and spots[pos] is not None:
            pos += 1
        if pos == len(spots):
            return None, car
        spots[pos] = car
    return spots, None


def is_shift_pair(word, k, b):
    """Words over [n-1] with a_i = b_i + k - 1 (mod n-1), k in [n-1], b prime."""
    n = len(word)
    m = n - 1
    return (
        len(b) == n
        and 1 <= k <= m
        and all(1 <= a <= m for a in word)
        and is_prime(b)
        and all((a - x - k + 1) % m == 0 for a, x in zip(word, b))
    )


def strip_first_one(word):
    i = word.index(1)
    return word[:i] + word[i + 1:]


def parking_count(n):
    """(n+1)^(n-1) parking functions among the n^n words of [n]^n."""
    return (n + 1) ** (n - 1)


def prime_count(n):
    """(n-1)^(n-1) prime parking functions among the (n-1)^n words."""
    return (n - 1) ** (n - 1)


def parking_words(n):
    return {w for w in itertools.product(range(1, n + 1), repeat=n) if is_parking(w)}


def prime_words(n):
    return {w for w in itertools.product(range(1, n), repeat=n) if is_prime(w)}
