"""Exhaustive oracles over small word spaces.

These are the ground truth the rest of the library is checked against: they
recount both families against the closed forms (n+1)^(n-1) parking functions
and (n-1)^(n-1) prime ones, and they verify the shift decomposition
[n-1]^n <-> [n-1] x PPF_n and the rotated-street characterization.

The counts and the bijection cover every word through its orbit under
permutations of positions.  Each orbit has one nondecreasing representative
q, and length! / prod(mult!) words sort to it (its weight).  Both predicates
read only the sorted word (Konheim-Weiss), so summing the weights of the
accepted representatives counts the whole space with one predicate call per
orbit.  The decomposition is equivariant by construction: k is read from the
sorted word and b is an entrywise map of the word, so decompose(σa) = (k, σb)
for every permutation σ of positions.  The test suite checks both facts word
by word for small n, and checks these oracles against full word scans.

The proposition is checked word by word: whether a word parks on a rotated
street regardless of the order of its cars is part of what it asserts, so
the orbit reduction is not used there.
"""

import itertools
import math
import time
from dataclasses import dataclass, asdict

from .core import _first_positions, _park, rotated_street
# bench/tracer.py patches these names here, so they stay even when unused.
from .core import is_parking_function, is_prime_parking_function, simulate  # noqa: F401
from .cycle_lemma import _shift_down, decompose, recompose
from .errors import InvariantError, check_guard


def all_words(max_label, length):
    """All words in [max_label]^length in odometer order (last slot fastest)."""
    return itertools.product(range(1, max_label + 1), repeat=length)


def _orbits(max_label, length):
    """Each nondecreasing word of [max_label]^length with its orbit's size.

    The size is the number of words that sort to it, the multinomial
    length! / prod(mult!) over the multiplicities of its entries.
    """
    full = math.factorial(length)
    labels = range(1, max_label + 1)
    for q in itertools.combinations_with_replacement(labels, length):
        weight = full
        for _, run in itertools.groupby(q):
            weight //= math.factorial(len(list(run)))
        yield q, weight


def _tally(predicate, max_label, length):
    """(words, matching words) of [max_label]^length, one call per orbit."""
    total = matching = 0
    for q, weight in _orbits(max_label, length):
        total += weight
        if predicate(q):
            matching += weight
    if total != max_label**length:
        raise InvariantError(
            f"orbit sizes add up to {total}, not {max_label}^{length}"
        )
    return total, matching


@dataclass(frozen=True)
class CountReport:
    """Tally of an exhaustive count against a closed-form value."""

    n: int
    total_words: int
    matching: int
    formula_value: int
    agrees: bool
    elapsed: float

    def as_dict(self):
        return asdict(self)


def count_parking_functions(n, force=False):
    """Count the parking functions among the n^n words of [n]^n.

    The closed form is (n+1)^(n-1).  The predicate runs once per sorted
    word, C(2n-1, n) calls, and each answer counts for its whole orbit.
    Guarded to n <= 10.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_guard("count_parking_functions", n, 1, 10, force)
    start = time.perf_counter()
    total, matching = _tally(is_parking_function, n, n)
    elapsed = time.perf_counter() - start
    formula = (n + 1) ** (n - 1)
    return CountReport(
        n=n,
        total_words=total,
        matching=matching,
        formula_value=formula,
        agrees=matching == formula,
        elapsed=elapsed,
    )


def count_prime_parking_functions(n, force=False):
    """Count the prime parking functions among the (n-1)^n words of [n-1]^n.

    The closed form is (n-1)^(n-1).  The predicate runs once per sorted
    word, C(2n-2, n) calls.  For n = 1 the space [0]^1 is empty but (1,) is
    prime by convention, so the word (1,) is checked instead and the count
    is 1 = 0^0.  Guarded to n <= 10.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_guard("count_prime_parking_functions", n, 1, 10, force)
    start = time.perf_counter()
    if n == 1:
        total, matching = 1, int(is_prime_parking_function((1,)))
    else:
        total, matching = _tally(is_prime_parking_function, n - 1, n)
    elapsed = time.perf_counter() - start
    formula = (n - 1) ** (n - 1)
    return CountReport(
        n=n,
        total_words=total,
        matching=matching,
        formula_value=formula,
        agrees=matching == formula,
        elapsed=elapsed,
    )


def verify_bijection(n, force=False):
    """Check the shift decomposition on every word of [n-1]^n, orbit by orbit.

    For each nondecreasing representative a: the decomposition's b must be
    prime, satisfy the congruence a_i = b_i + k - 1 (mod n-1), recompose back
    to a, and its k must be the only shift in [n-1] whose shifted word is
    prime.  Then the pairs (k, sorted(b)) must cover [n-1] x (prime orbits)
    exactly once each, every pair carrying the size of its prime orbit.

    This covers every word because decompose is equivariant: k is read from
    the sorted word and b is an entrywise map of a, so decompose(σa) = (k, σb)
    for every permutation σ of positions, by construction.  Every clause
    then holds on the whole orbit of a, and a -> b is one-to-one on it, so
    orbits matched with equal sizes match the words one to one.  Guarded to
    n <= 8.
    """
    check_guard("verify_bijection", n, 2, 8, force)
    m = n - 1
    seen = {}
    for a, weight in _orbits(m, n):
        k, b = decompose(a)
        if not is_prime_parking_function(b):
            return False
        if any((a[i] - b[i] - k + 1) % m != 0 for i in range(n)):
            return False
        if recompose(b, k) != a:
            return False
        prime_shifts = [
            kk for kk in range(1, m + 1)
            if is_prime_parking_function(_shift_down(a, kk, m))
        ]
        if prime_shifts != [k]:
            return False
        pair = (k, tuple(sorted(b)))
        if pair in seen:
            return False
        seen[pair] = weight
    primes = [(q, w) for q, w in _orbits(m, n) if is_prime_parking_function(q)]
    wanted = {(k, q): w for k in range(1, m + 1) for q, w in primes}
    return seen == wanted


def verify_proposition(n, force=False):
    """Check that each word of [n-1]^n parks on exactly one rotated street.

    Exactly one rotation k in [n-1] of the street
    k, k, k+1, ..., n-1, 1, ..., k-1 lets every car park, and that rotation
    is the decomposition's shift.  Every word is parked on every street, so
    nothing is assumed about the order of the cars.  The expected shift is
    looked up by sorted word, from public decompose on each sorted word,
    since decompose reads k from the sorted word.  Guarded to n <= 6.
    """
    check_guard("verify_proposition", n, 2, 6, force)
    m = n - 1
    shift_of = {q: decompose(q).k for q, _ in _orbits(m, n)}
    streets = [(k, _first_positions(rotated_street(n, k))) for k in range(1, n)]
    for a in all_words(m, n):
        winners = [k for k, first_pos in streets if _park(a, first_pos, n)[1] is None]
        if winners != [shift_of[tuple(sorted(a))]]:
            return False
    return True
