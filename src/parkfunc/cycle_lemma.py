"""Cyclic-shift decomposition of words over [n-1] into prime parking functions.

Every word a in [n-1]^n factors uniquely as a shift k in [n-1] together with
a prime parking function b satisfying a_i = b_i + k - 1 (mod n-1) for all i,
a cycle-lemma style bijection [n-1]^n <-> [n-1] x PPF_n.  The shift is found
by scoring each entry of the sorted word and taking the unique minimizer
(``_shift`` reads it in closed form, with no score vector), and it also
has a street interpretation: k is the one rotation for which all cars park
on the street labeled k, k, k+1, ..., n-1, 1, ..., k-1.

The sampler inverts the counting consequence |PPF_n| = (n-1)^(n-1): pushing
a uniform word through the decomposition yields an exactly uniform prime
parking function.
"""

import itertools
import operator
import random
from typing import NamedTuple

from .core import _as_word, _check_k, _check_range, _prime_sorted
# bench/tracer.py patches this name here, so it stays even when unused.
from .core import is_prime_parking_function  # noqa: F401
from .errors import InvariantError, check_int


class ScoreVector(NamedTuple):
    values: tuple  # score of each sorted entry
    argmin: int  # 1-based index of the unique minimum


class Decomposition(NamedTuple):
    k: int
    b: tuple


def _shift_range(word, needs):
    """Refuse a tuple of positive ints unless it lies over [n-1], n = len(word) >= 2.

    ``needs`` opens the length error.  Returns the word.
    """
    if len(word) < 2:
        raise ValueError(f"{needs} a word of length >= 2")
    _check_range(word, len(word) - 1)
    return word


def scores(q):
    """Score a nondecreasing word q over [n-1]: s_i = sum(q) - n*q_i + (i-1)(n-1).

    The minimizing index is unique: s_i = s_d would force
    (n-1)(i-d) = n(q_i - q_d), impossible for i != d since n and n-1 are
    coprime and |i-d| < n.  A tie therefore indicates a bug, not bad input.
    """
    q = _shift_range(_as_word(q), "scores need")
    n = len(q)
    if any(q[i] > q[i + 1] for i in range(n - 1)):
        raise ValueError("scores expect a nondecreasing word")
    total = sum(q)
    # s_i = (total + (i-1)(n-1)) - n*q_i, one map over q in C.
    values = tuple(map(operator.sub, range(total, total + n * (n - 1), n - 1),
                       map(operator.mul, itertools.repeat(n), q)))
    best = min(values)
    if values.count(best) != 1:
        raise InvariantError(f"score tie for {q}: the minimizer must be unique")
    return ScoreVector(values, values.index(best) + 1)


def _shift_table(k, m):
    """table[a] = ((a - k) mod m) + 1 for a in [m]: k..m go to 1..m-k+1, the rest follow."""
    return [None, *range(m - k + 2, m + 1), *range(1, m - k + 2)]


def decompose(word):
    """Split a word over [n-1] into its unique (shift k, prime word b) pair.

    k is the sorted entry with the minimal score; b applies the cyclic shift
    by k to the word in its original order.  The result always satisfies
    ``is_prime_parking_function(b)`` and ``recompose(b, k) == word``; the
    first is checked on every call, on the sorted b, and a failure raises
    ``InvariantError`` (also under ``python -O``).
    """
    return _decompose_tuple(_as_word(word))


def _decompose_tuple(word):
    """``decompose`` on a tuple of positive ints."""
    return _decompose(_shift_range(word, "decompose needs"))


def _shift(q):
    """The shift k of a nondecreasing word q over [n-1], n >= 2, without input checks."""
    # The score argmin in closed form.  With the excess e_i = q_i - (i-1),
    # sum(q) - s_i = n*e_i + (i-1) and 0 <= i-1 < n, so the scores are
    # distinct and the minimum sits at the last index of the largest excess;
    # no tie can occur.  One scan finds that index: ">=" hands a tied excess
    # to the later entry.  Equal neighbours q_{i-1} = q_i give e_{i-1} > e_i,
    # so that index is also the first position of its entry k.
    top = k = 0
    for i, x in enumerate(q):
        if x - i >= top:
            top, k = x - i, x
    return k


def _decompose(word):
    """``decompose`` without input checks: word is a tuple over [n-1], n >= 2."""
    q = sorted(word)
    k = _shift(q)
    # k sits at the score argmin, which is its first position in q (see _shift).
    i = q.index(k)
    # itemgetter reads the table in C, and returns a tuple since n >= 2.
    table = _shift_table(k, len(q) - 1)
    b = operator.itemgetter(*word)(table)
    # The shift sends the entries >= k, in order, below the entries < k, so
    # q rotated to start at its first k maps to b sorted.
    if not _prime_sorted(operator.itemgetter(*q[i:], *q[:i])(table)):
        raise InvariantError(f"decompose({word}) produced the non-prime word {b}")
    return Decomposition(k, b)


def recompose(b, k):
    """Inverse of decompose: a_i = ((b_i + k - 2) mod (n-1)) + 1."""
    return _recompose_tuple(_as_word(b), k)


def _recompose_tuple(b, k):
    """``recompose`` on a tuple b of positive ints."""
    _shift_range(b, "recompose needs")
    _check_k(k, len(b), "shift")
    return _recompose(b, k)


def _recompose(b, k):
    """``recompose`` without input checks: b is a tuple over [n-1], k in [n-1], n >= 2."""
    # The down-shift by 2-k (mod n-1) is the up-shift by k: x -> ((x + k - 2)
    # mod (n-1)) + 1.  itemgetter reads it in C, and returns a tuple since n >= 2.
    m = len(b) - 1
    return operator.itemgetter(*b)(_shift_table((1 - k) % m + 1, m))


def iter_primes(n, seed):
    """Uniform prime parking functions of length n, drawn one at a time.

    An endless iterator over ``random.Random(seed)`` (Mersenne Twister), so a
    fixed (n, seed) always yields the same words in the same order.  Each
    draw picks a uniform word in [n-1]^n and decomposes it; by the uniqueness
    of the decomposition the image is exactly uniform over the (n-1)^(n-1)
    prime parking functions.  n and seed are checked here, before the first
    draw: n must be an int (not a bool) of at least 2, and a seed that
    ``random.Random`` refuses raises ``ValueError``.
    """
    check_int(n, 2, "n", "sampling needs n >= 2")
    try:
        rng = random.Random(seed)
    except TypeError:
        raise ValueError(f"seed must be None, an int, a float, a str, bytes or a "
                         f"bytearray, got {seed!r}") from None

    def draws():
        while True:
            word = tuple(rng.randint(1, n - 1) for _ in range(n))
            yield decompose(word).b

    return draws()


def sample_primes(n, seed, count):
    """The first `count` words of ``iter_primes(n, seed)``, as a list."""
    check_int(count, 0, "count", "count must be nonnegative")
    return list(itertools.islice(iter_primes(n, seed), count))
