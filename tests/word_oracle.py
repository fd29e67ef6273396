"""Word-by-word oracles: the ground truth for ``parkfunc.enumeration``.

Each scan applies the public predicates, ``simulate`` and ``decompose`` to
every word of its space, with no use of the orbit reduction that the library
oracles rest on.  ``tests/test_enumeration.py`` checks that the library
returns the same answers for every n these scans reach at desk speed.

Above that, the library counts are held to ``orbit_tally``: one kernel call
per sorted word, weighted by its orbit size from ``orbit_weights``.  The
closed-form shift of ``decompose`` is held to ``decompose_by_scores``, which
takes the minimal entry of the score vector, and the transition tables of
``verify_proposition`` to ``verify_proposition_by_masks``, which parks each
car bit by bit.
"""

import itertools
import math
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
from parkfunc.core import _first_positions, _prime_sorted
from parkfunc.cycle_lemma import Decomposition, _shift_table, scores
from parkfunc.enumeration import _sorted_words
from parkfunc.errors import InvariantError, check_guard


def orbit_weights(max_label, length):
    """The orbit sizes of [max_label]^length, one per nondecreasing word.

    A sorted word's orbit has length! / prod(mult!) words, over the
    multiplicities of its entries.  The sizes come in the order
    ``itertools.combinations_with_replacement`` yields the sorted words.
    The table is built over the labels from the largest down: ``tail[left]``
    holds prod(mult!) for every sorted word of ``left`` entries over the
    labels taken so far, in that order, and each new (smaller) label is
    prepended c = left, ..., 0 times, which keeps the order.
    """
    fact = [math.factorial(c) for c in range(length + 1)]
    tail = [[1]] + [[] for _ in range(length)]  # no labels yet: only the empty word
    for _ in range(max_label):
        grown = []
        for left in range(length + 1):
            row = []
            for c in range(left, -1, -1):
                f = fact[c]
                row += [f * p for p in tail[left - c]] if f > 1 else tail[left - c]
            grown.append(row)
        tail = grown
    full = fact[length]
    return [full // p for p in tail[length]]


def orbit_tally(kernel, max_label, length):
    """(words, matching words) of [max_label]^length, one kernel call per orbit.

    Both sums run in C over the weight table: ``compress`` keeps the weights
    of the sorted words the kernel accepts.  It stops at the shorter input,
    so the table's length is checked against C(max_label + length - 1,
    length), the number of sorted words, as well as its sum.
    """
    weights = orbit_weights(max_label, length)
    orbits = math.comb(max_label + length - 1, length)
    if len(weights) != orbits:
        raise InvariantError(
            f"{len(weights)} orbit sizes for the {orbits} sorted words "
            f"of [{max_label}]^{length}"
        )
    total = sum(weights)
    if total != max_label**length:
        raise InvariantError(
            f"orbit sizes add up to {total}, not {max_label}^{length}"
        )
    words = itertools.combinations_with_replacement(range(1, max_label + 1), length)
    matching = sum(itertools.compress(weights, map(kernel, words)))
    return total, matching


def count_parking_functions(n, force=False):
    """Scan all n^n words of [n]^n and count the parking functions.

    The closed form is (n+1)^(n-1).  Guarded to n <= 8 (the scan is n^n).
    """
    if n < 1:
        raise ValueError("n must be positive")
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
    if n < 1:
        raise ValueError("n must be positive")
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


def verify_proposition_by_masks(n, force=False):
    """``verify_proposition`` on the same (masks, code) pairs, parking bit by bit.

    Each street's state is its occupied-spot mask, or None once a car has
    left it, and each car takes the lowest free bit at or after the first
    spot its label sits on; no transition table is built.
    """
    check_guard("verify_proposition", n, 2, 9, force)
    m = n - 1
    steps = [(n + 1) ** (p - 1) for p in range(1, n)]
    step_of = [None, *steps]
    shift_of = {
        sum(map(step_of.__getitem__, q)): decompose(q).k for q in _sorted_words(m, n)
    }
    full = (1 << n) - 1
    first = [_first_positions(rotated_street(n, k)) for k in range(1, n)]
    # ahead[p - 1][s]: the spots of street s at or after the first labelled p.
    ahead = [[full & -(1 << fp[p]) for fp in first] for p in range(1, n)]
    pairs = {((0,) * m, 0)}
    for _ in range(n):
        after = set()
        for masks, code in pairs:
            for spots, step in zip(ahead, steps):
                parked = []
                for mask, reach in zip(masks, spots):
                    if mask is not None:
                        free = reach & ~mask
                        mask = mask | (free & -free) if free else None
                    parked.append(mask)
                after.add((tuple(parked), code + step))
        pairs = after
    for masks, code in pairs:
        live = [k for k, mask in enumerate(masks, start=1) if mask is not None]
        if live != [shift_of[code]]:
            return False
    return True
