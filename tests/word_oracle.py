"""Word-by-word oracles: the ground truth for ``parkfunc.enumeration``.

Each scan applies the public predicates, ``simulate`` and ``decompose`` to
every word of its space, with no use of the orbit reduction or the label
recurrence that the library oracles rest on.  ``tests/test_enumeration.py``
checks that the library returns the same answers for every n these scans
reach at desk speed; above that, the library counts are held to their
closed forms.  The closed-form shift of ``decompose`` is held to
``decompose_by_scores``, which takes the minimal entry of the score vector.
"""

import operator
import time

from parkfunc import (
    CountReport,
    all_words,
    decompose,
    is_parking_function,
    is_prime_parking_function,
    recompose,
    rotated_street,
    simulate,
)
from parkfunc.core import _prime_sorted
from parkfunc.cycle_lemma import Decomposition, _shift_table, scores
from parkfunc.errors import InvariantError, check_guard


def count_parking_functions(n, force=False):
    """Scan all n^n words of [n]^n and count the parking functions.

    The closed form is (n+1)^(n-1).  Guarded to n <= 8 (the scan is n^n).
    """
    check_guard("count_parking_functions", n, 1, 8, force)
    start = time.perf_counter()
    matching = sum(1 for w in all_words(n, n) if is_parking_function(w))
    elapsed = time.perf_counter() - start
    formula = (n + 1) ** (n - 1)
    return CountReport(
        n=n,
        total_words=n**n,
        matching=matching,
        formula_value=formula,
        agrees=matching == formula,
        elapsed=elapsed,
    )


def count_prime_parking_functions(n, force=False):
    """Scan all (n-1)^n words of [n-1]^n and count the prime parking functions.

    The closed form is (n-1)^(n-1).  For n = 1 the scan space [0]^1 is empty
    but (1,) is prime by convention, so the word (1,) is scanned instead and
    the count is 1 = 0^0.
    """
    check_guard("count_prime_parking_functions", n, 1, 8, force)
    start = time.perf_counter()
    if n == 1:
        total, matching = 1, int(is_prime_parking_function((1,)))
    else:
        total = (n - 1) ** n
        matching = sum(1 for w in all_words(n - 1, n) if is_prime_parking_function(w))
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
    """Exhaustively check the shift decomposition over every word of [n-1]^n.

    For each word: the decomposition's b must be prime, satisfy the
    congruence a_i = b_i + k - 1 (mod n-1), recompose back to the word, and
    its k must be the only shift in [n-1] whose shifted word is prime.  A k
    outside [n-1] is a wrong answer, so it gives False, not an error.
    Finally the (k, b) pairs must cover [n-1] x PPF_n exactly once each.
    """
    check_guard("verify_bijection", n, 2, 6, force)
    m = n - 1
    seen = set()
    for a in all_words(m, n):
        k, b = decompose(a)
        if not is_prime_parking_function(b):
            return False
        if any((a[i] - b[i] - k + 1) % m != 0 for i in range(n)):
            return False
        if not 1 <= k <= m or recompose(b, k) != a:
            return False
        prime_shifts = [
            kk for kk in range(1, m + 1)
            if is_prime_parking_function(tuple((x - kk) % m + 1 for x in a))
        ]
        if prime_shifts != [k]:
            return False
        if (k, b) in seen:
            return False
        seen.add((k, b))
    primes = {w for w in all_words(m, n) if is_prime_parking_function(w)}
    wanted = {(k, b) for k in range(1, m + 1) for b in primes}
    return seen == wanted


def verify_proposition(n, force=False):
    """Check that each word of [n-1]^n parks on exactly one rotated street.

    Exactly one rotation k in [n-1] of the street
    k, k, k+1, ..., n-1, 1, ..., k-1 lets every car park, and that rotation
    is the decomposition's shift.
    """
    check_guard("verify_proposition", n, 2, 5, force)
    streets = {k: rotated_street(n, k) for k in range(1, n)}
    for a in all_words(n - 1, n):
        winners = [k for k, street in streets.items() if simulate(a, street).success]
        if winners != [decompose(a).k]:
            return False
    return True


def decompose_by_scores(word):
    """The decomposition of a tuple over [n-1], n >= 2, with k read off the scores.

    k is the entry at the minimal score of the sorted word, found by
    building the whole score vector with the public ``scores``.
    """
    q = tuple(sorted(word))
    # The argmin is q's first k: equal entries score higher the later they sit.
    i = scores(q).argmin - 1
    k = q[i]
    table = _shift_table(k, len(word) - 1)
    b = operator.itemgetter(*word)(table)
    if not _prime_sorted(operator.itemgetter(*q[i:], *q[:i])(table)):
        raise InvariantError(f"decompose({word}) produced the non-prime word {b}")
    return Decomposition(k, b)
