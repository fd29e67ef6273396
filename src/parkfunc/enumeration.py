"""Exhaustive oracles over small word spaces.

These are the ground truth the rest of the library is checked against: they
recount both families against the closed forms (n+1)^(n-1) parking functions
and (n-1)^(n-1) prime ones, and they verify the shift decomposition
[n-1]^n <-> [n-1] x PPF_n and the rotated-street characterization.

The counts and the bijection cover every word through its orbit under
permutations of positions.  Each orbit has one nondecreasing representative
q, and length! / prod(mult!) words sort to it (its weight).  Both families
are decided on the sorted word alone (Konheim-Weiss), so summing the weights
of the accepted representatives counts the whole space.  The representatives
are generated sorted and in range, so the oracles call the unchecked kernels
``core._parks_sorted`` and ``core._prime_sorted`` on them directly, once per
orbit; the public predicates validate their input once and then call the
same kernels.  The decomposition is equivariant by construction: k is read
from the sorted word and b is an entrywise map of the word, so
decompose(σa) = (k, σb) for every permutation σ of positions.  The test
suite checks both facts word by word for small n, and checks these oracles
against full word scans.

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
from .cycle_lemma import _shift_down, decompose, recompose
from .errors import InvariantError, check_guard


def all_words(max_label, length):
    """All words in [max_label]^length in odometer order (last slot fastest)."""
    return itertools.product(range(1, max_label + 1), repeat=length)


def _orbits(max_label, length):
    """Each nondecreasing word of [max_label]^length with its orbit's size.

    The size is the number of words that sort to it, the multinomial
    length! / prod(mult!) over the multiplicities of its entries, which in
    a sorted word are its run lengths.
    """
    full = math.factorial(length)
    fact = [math.factorial(i) for i in range(length + 1)]
    labels = range(1, max_label + 1)
    for q in itertools.combinations_with_replacement(labels, length):
        runs = 1
        for x in set(q):
            runs *= fact[q.count(x)]
        yield q, full // runs


def _tally(kernel, max_label, length):
    """(words, matching words) of [max_label]^length, one kernel call per orbit."""
    total = matching = 0
    for q, weight in _orbits(max_label, length):
        total += weight
        if kernel(q):
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

    The closed form is (n+1)^(n-1).  The Konheim-Weiss kernel runs once per
    sorted word, C(2n-1, n) calls, and each answer counts for its whole orbit.
    Guarded to n <= 10.
    """
    check_guard("count_parking_functions", n, 1, 10, force)
    start = time.perf_counter()
    total, matching = _tally(_parks_sorted, n, n)
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

    The closed form is (n-1)^(n-1).  The prime kernel runs once per sorted
    word, C(2n-2, n) calls.  For n = 1 the space [0]^1 is empty but (1,) is
    prime by convention, so the word (1,) is checked instead and the count
    is 1 = 0^0.  Guarded to n <= 10.
    """
    check_guard("count_prime_parking_functions", n, 1, 10, force)
    start = time.perf_counter()
    if n == 1:
        total, matching = 1, int(_prime_sorted((1,)))
    else:
        total, matching = _tally(_prime_sorted, n - 1, n)
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
    orbits matched with equal sizes match the words one to one.  Whether a
    word is prime is read from the set of prime sorted words, built once
    with the prime kernel on the sorted representatives.  Guarded to n <= 8.
    """
    check_guard("verify_bijection", n, 2, 8, force)
    m = n - 1
    orbits = list(_orbits(m, n))
    primes = {q: w for q, w in orbits if _prime_sorted(q)}
    seen = {}
    for a, weight in orbits:
        k, b = decompose(a)
        b_orbit = tuple(sorted(b))
        if b_orbit not in primes:
            return False
        if any((a[i] - b[i] - k + 1) % m != 0 for i in range(n)):
            return False
        if recompose(b, k) != a:
            return False
        prime_shifts = [
            kk for kk in range(1, m + 1)
            if tuple(sorted(_shift_down(a, kk, m))) in primes
        ]
        if prime_shifts != [k]:
            return False
        pair = (k, b_orbit)
        if pair in seen:
            return False
        seen[pair] = weight
    wanted = {(k, q): w for k in range(1, m + 1) for q, w in primes.items()}
    return seen == wanted


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
        sum(steps[x - 1] for x in q): decompose(q).k for q, _ in _orbits(m, n)
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
