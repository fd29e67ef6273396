"""Cyclic-shift decomposition of words over [n-1] into prime parking functions.

Every word a in [n-1]^n factors uniquely as a shift k in [n-1] together with
a prime parking function b satisfying a_i = b_i + k - 1 (mod n-1) for all i,
a cycle-lemma style bijection [n-1]^n <-> [n-1] x PPF_n.  The shift is found
by scoring each entry of the sorted word and taking the unique minimizer,
and it also has a street interpretation: k is the one rotation for which all
cars park on the street labeled k, k, k+1, ..., n-1, 1, ..., k-1.

The sampler inverts the counting consequence |PPF_n| = (n-1)^(n-1): pushing
a uniform word through the decomposition yields an exactly uniform prime
parking function.
"""

import itertools
import random
from typing import NamedTuple

from .core import _as_word, _check_range, _prime_sorted
# bench/tracer.py patches this name here, so it stays even when unused.
from .core import is_prime_parking_function  # noqa: F401
from .errors import InvariantError


class ScoreVector(NamedTuple):
    values: tuple  # score of each sorted entry
    argmin: int  # 1-based index of the unique minimum


class Decomposition(NamedTuple):
    k: int
    b: tuple


def scores(q):
    """Score a nondecreasing word q over [n-1]: s_i = sum(q) - n*q_i + (i-1)(n-1).

    The minimizing index is unique: s_i = s_d would force
    (n-1)(i-d) = n(q_i - q_d), impossible for i != d since n and n-1 are
    coprime and |i-d| < n.  A tie therefore indicates a bug, not bad input.
    """
    q = _as_word(q)
    n = len(q)
    if n < 2:
        raise ValueError("scores need a word of length >= 2")
    _check_range(q, n - 1)
    if any(q[i] > q[i + 1] for i in range(n - 1)):
        raise ValueError("scores expect a nondecreasing word")
    return _scores(q)


def _scores(q):
    """``scores`` without input checks: q is a nondecreasing word over [n-1], n >= 2."""
    n = len(q)
    total = sum(q)
    values = tuple(total - n * q[i] + i * (n - 1) for i in range(n))
    best = min(values)
    if values.count(best) != 1:
        raise InvariantError(f"score tie for {q}: the minimizer must be unique")
    return ScoreVector(values=values, argmin=values.index(best) + 1)


def _shift_down(word, k, m):
    """Map each entry a to ((a - k) mod m) + 1."""
    return tuple((a - k) % m + 1 for a in word)


def decompose(word):
    """Split a word over [n-1] into its unique (shift k, prime word b) pair.

    k is the sorted entry with the minimal score; b applies the cyclic shift
    by k to the word in its original order.  The result always satisfies
    ``is_prime_parking_function(b)`` and ``recompose(b, k) == word``; the
    first is checked on every call, on the sorted b, and a failure raises
    ``InvariantError`` (also under ``python -O``).
    """
    word = _as_word(word)
    n = len(word)
    if n < 2:
        raise ValueError("decompose needs a word of length >= 2")
    _check_range(word, n - 1)
    q = tuple(sorted(word))
    k = q[_scores(q).argmin - 1]
    b = _shift_down(word, k, n - 1)
    if not _prime_sorted(sorted(b)):
        raise InvariantError(f"decompose({word}) produced the non-prime word {b}")
    return Decomposition(k=k, b=b)


def recompose(b, k):
    """Inverse of decompose: a_i = ((b_i + k - 2) mod (n-1)) + 1."""
    b = _as_word(b)
    n = len(b)
    if n < 2:
        raise ValueError("recompose needs a word of length >= 2")
    _check_range(b, n - 1)
    if not 1 <= k <= n - 1:
        raise ValueError(f"shift k must lie in [1, {n - 1}], got {k}")
    return tuple((x + k - 2) % (n - 1) + 1 for x in b)


def iter_primes(n, seed):
    """Uniform prime parking functions of length n, drawn one at a time.

    An endless iterator over ``random.Random(seed)`` (Mersenne Twister), so a
    fixed (n, seed) always yields the same words in the same order.  Each
    draw picks a uniform word in [n-1]^n and decomposes it; by the uniqueness
    of the decomposition the image is exactly uniform over the (n-1)^(n-1)
    prime parking functions.  n is checked here, before the first draw.
    """
    if n < 2:
        raise ValueError("sampling needs n >= 2")
    rng = random.Random(seed)

    def draws():
        while True:
            word = tuple(rng.randint(1, n - 1) for _ in range(n))
            yield decompose(word).b

    return draws()


def sample_primes(n, seed, count):
    """The first `count` words of ``iter_primes(n, seed)``, as a list."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return list(itertools.islice(iter_primes(n, seed), count))


def sample_prime(n, seed):
    """A single uniform prime parking function of length n (seeded)."""
    return sample_primes(n, seed, 1)[0]
