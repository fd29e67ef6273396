"""Exhaustive oracles over small word spaces.

These are the ground truth the rest of the library is checked against: they
recount both families against the closed forms (n+1)^(n-1) parking functions
and (n-1)^(n-1) prime ones, and they verify the shift decomposition
[n-1]^n <-> [n-1] x PPF_n and the rotated-street characterization.

The counts and the bijection cover every word through its orbit under
permutations of positions.  Each orbit has one nondecreasing representative
q, and length! / prod(mult!) words sort to it (its weight).  Both families
are decided on the sorted word alone (Konheim-Weiss), so summing the weights
of the accepted representatives counts the whole space.  The weights come
from one table, ``_weights``, built label by label in the order
``itertools.combinations_with_replacement`` yields the representatives, and
a count is two C-level sums over that table.  The representatives are
generated sorted and in range, so the oracles call the unchecked kernels
``core._parks_sorted`` and ``core._prime_sorted`` on them directly, once per
orbit; the public predicates validate their input once and then call the
same kernels.  The decomposition is equivariant by construction: k is read
from the sorted word and b is an entrywise map of the word, so
decompose(σa) = (k, σb) for every permutation σ of positions.  The test
suite checks both facts word by word for small n, and checks these oracles
against full word scans.  The bijection reads no weights: matched orbits
have the same size by the congruence (see ``verify_bijection``).

The proposition is checked for every word: whether a word parks on a
rotated street regardless of the order of its cars is part of what it
asserts, so the orbit reduction is not used there.  Instead the words are
parked on all n-1 rotated streets at once, one car per round, as a set of
distinct pairs (the streets' occupied-spot masks, the multiset of cars so
far).  Parking is online, so the pairs after t cars are exactly the
outcomes of all words of t cars, and words that share a pair share their
whole future.
"""

import itertools
import math
import time
from dataclasses import dataclass, asdict

from .core import _first_positions, _parks_sorted, _prime_sorted, rotated_street
# bench/tracer.py patches these names here, so they stay even when unused.
from .core import is_parking_function, is_prime_parking_function, simulate  # noqa: F401
from .cycle_lemma import decompose, recompose
from .errors import InvariantError, check_guard


def all_words(max_label, length):
    """All words in [max_label]^length in odometer order (last slot fastest)."""
    return itertools.product(range(1, max_label + 1), repeat=length)


def _weights(max_label, length):
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


def _sorted_words(max_label, length):
    """The nondecreasing words of [max_label]^length, in lexicographic order."""
    return itertools.combinations_with_replacement(range(1, max_label + 1), length)


def _tally(kernel, max_label, length):
    """(words, matching words) of [max_label]^length, one kernel call per orbit.

    Both sums run in C over the weight table: ``compress`` keeps the weights
    of the sorted words the kernel accepts.  It stops at the shorter input,
    so the table's length is checked against C(max_label + length - 1,
    length), the number of sorted words, as well as its sum.
    """
    weights = _weights(max_label, length)
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
    words = _sorted_words(max_label, length)
    matching = sum(itertools.compress(weights, map(kernel, words)))
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


def _report(n, formula, tally):
    """Time ``tally()``, which returns (total words, matching words), into a report."""
    start = time.perf_counter()
    total, matching = tally()
    elapsed = time.perf_counter() - start
    return CountReport(
        n=n,
        total_words=total,
        matching=matching,
        formula_value=formula,
        agrees=matching == formula,
        elapsed=elapsed,
    )


def count_parking_functions(n, force=False):
    """Count the parking functions among the n^n words of [n]^n.

    The closed form is (n+1)^(n-1).  The Konheim-Weiss kernel runs once per
    sorted word, C(2n-1, n) calls, and each answer counts for its whole orbit.
    Guarded to n <= 10.
    """
    check_guard("count_parking_functions", n, 1, 10, force)
    return _report(n, (n + 1) ** (n - 1), lambda: _tally(_parks_sorted, n, n))


def count_prime_parking_functions(n, force=False):
    """Count the prime parking functions among the (n-1)^n words of [n-1]^n.

    The closed form is (n-1)^(n-1).  The prime kernel runs once per sorted
    word, C(2n-2, n) calls.  For n = 1 the space [0]^1 is empty but (1,) is
    prime by convention, so the word (1,) is checked instead and the count
    is 1 = 0^0.  Guarded to n <= 10.
    """
    check_guard("count_prime_parking_functions", n, 1, 10, force)
    if n == 1:
        return _report(n, 1, lambda: (1, int(_prime_sorted((1,)))))
    return _report(n, (n - 1) ** (n - 1), lambda: _tally(_prime_sorted, n - 1, n))


def verify_bijection(n, force=False):
    """Check the shift decomposition on every word of [n-1]^n, orbit by orbit.

    With m = n-1, each sorted word a must give decompose(a) = (k, b) with
    sorted(b) prime, a_i = b_i + k - 1 (mod m), k in [m] (a shift outside
    it is a wrong answer, not bad input), recompose(b, k) == a, and a pair
    (k, sorted(b)) not seen before.  The pairs must then be exactly
    [m] x (prime sorted words).  No orbit size or prime-shift table is read.

    Why this is exact.  Write down_kk(x) = (x - kk) mod m + 1, a bijection
    of [m].  sorted(b) is prime, so b's entries lie in [m] and the
    congruence forces b = down_k(a) entry by entry: a and sorted(b) have
    the same multiplicities, so their orbits have the same size.  decompose
    is equivariant by construction (k is read from the sorted word and b is
    an entrywise map of the word), so decompose(σa) = (k, σb) for every
    permutation σ of positions, and the orbit of a maps one to one onto
    {k} x orbit(sorted(b)).  No pair repeats, so the count identity
    C(2n-2, n) = m * |primes| is never assumed.  And k is the only prime
    shift: if kk != k made q' = sorted(down_kk(a)) prime, the coverage
    gives a sorted a' with k(a') = kk and sorted(down_kk(a')) = q', so a'
    has a's multiset, a' = a and kk = k.  Only that down_kk permutes [m] is
    used, so the argument holds for any modulus.  Guarded to n <= 8.
    """
    check_guard("verify_bijection", n, 2, 8, force)
    m = n - 1
    primes = set(filter(_prime_sorted, _sorted_words(m, n)))
    seen = set()
    for a in _sorted_words(m, n):
        k, b = decompose(a)
        q = tuple(sorted(b))
        if q not in primes:
            return False
        if any((a[i] - b[i] - k + 1) % m != 0 for i in range(n)):
            return False
        if not 1 <= k <= m or recompose(b, k) != a:
            return False
        if (k, q) in seen:
            return False
        seen.add((k, q))
    return seen == {(kk, q) for kk in range(1, m + 1) for q in primes}


def verify_proposition(n, force=False):
    """Check that each word of [n-1]^n parks on exactly one rotated street.

    Exactly one rotation k in [n-1] of the street
    k, k, k+1, ..., n-1, 1, ..., k-1 lets every car park, and that rotation
    is the decomposition's shift.  Every word is parked on every street, so
    nothing is assumed about the order of the cars.  The expected shift is
    looked up by the word's multiset code sum((n+1)^(x-1)), from public
    decompose on each sorted word, since decompose reads k from the sorted
    word.

    The check runs over one set of pairs (masks, code): masks holds each
    street's occupied-spot bitmask, or None once a car has left that
    street, and code is the multiset code of the cars so far.  The set
    starts as {(empty streets, 0)}, and each of n rounds parks one more car
    p in [n-1] on every street of every pair and adds (n+1)^(p-1) to its
    code.  Parking is online: a word's outcome after t+1 cars is its
    outcome after t cars with the last car parked on top.  So, by induction
    on t, the set after t rounds is exactly {(the word's outcome on every
    street, its code)} over all words of t cars, and checking every final
    pair checks every word: its open streets must be exactly
    [shift_of[code]].  Words that reach the same pair are checked once.
    Guarded to n <= 9.
    """
    check_guard("verify_proposition", n, 2, 9, force)
    m = n - 1
    steps = [(n + 1) ** (p - 1) for p in range(1, n)]
    shift_of = {
        sum(steps[x - 1] for x in q): decompose(q).k for q in _sorted_words(m, n)
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
