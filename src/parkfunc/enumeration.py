"""Exhaustive oracles over small word spaces.

These are the ground truth the rest of the library is checked against: they
recount both families against the closed forms (n+1)^(n-1) parking functions
and (n-1)^(n-1) prime ones, and they verify the shift decomposition
[n-1]^n <-> [n-1] x PPF_n and the rotated-street characterization.

Both families are decided on the sorted word alone (Konheim-Weiss), so the
counts visit no word: they count the words whose sorted form lies under a
bound by a recurrence over the labels (``_words_under``), which must also
recount the whole space.  The verifiers build their words sorted and in
range, so they call the unchecked kernels behind the predicates and
``decompose``/``recompose``; the public functions validate their input once
and then call the same kernels.  The bijection covers each word through its
orbit under permutations of positions: decompose is equivariant by
construction (k is read from the sorted word and b is an entrywise map of
the word), so decompose(σa) = (k, σb), and the congruence gives matched
orbits the same size (see ``verify_bijection``).  The test suite checks
equivariance word by word for small n, and these oracles against full word
scans and, above the scans' reach, the closed forms.

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
import operator
import time
from typing import NamedTuple

from .core import _first_positions, _prime_sorted, rotated_street
# bench/tracer.py patches these names here, so they stay even when unused.
from .core import is_parking_function, is_prime_parking_function, simulate  # noqa: F401
# The unchecked kernels, under the public names bench/tracer.py and the tests patch.
from .cycle_lemma import _decompose as decompose, _recompose as recompose
from .errors import InvariantError, check_guard


def all_words(max_label, length):
    """All words in [max_label]^length in odometer order (last slot fastest)."""
    return itertools.product(range(1, max_label + 1), repeat=length)


def _sorted_words(max_label, length):
    """The nondecreasing words of [max_label]^length, in lexicographic order."""
    return itertools.combinations_with_replacement(range(1, max_label + 1), length)


def _binomial_rows(size):
    """rows[r][t] = C(r, t) for 0 <= t <= r <= size."""
    return [[math.comb(r, t) for t in range(r + 1)] for r in range(size + 1)]


def _words_under(max_label, bounds):
    """How many words of [max_label]^L (L = len(bounds)) sort to a q with q_i <= bounds[i-1].

    For nondecreasing bounds that holds iff, for every label j, at least
    #{i : bounds_i <= j} entries are <= j.  ways[c] counts the placements of
    the labels so far that fill c of the L positions: placing label j on t
    of the L - c free positions is C(L - c, t) ways, and the states below
    the label's floor are dropped.
    """
    length = len(bounds)
    rows = _binomial_rows(length)
    ways = [1] + [0] * length
    for j in range(1, max_label + 1):
        floor = sum(map(j.__ge__, bounds))
        ways = [0] * floor + [
            sum(ways[c] * rows[length - c][f - c] for c in range(f + 1))
            for f in range(floor, length + 1)
        ]
    return ways[length]


def _count_under(max_label, bounds):
    """(words, matching words) of [max_label]^len(bounds), by ``_words_under``.

    The unbounded recount must give max_label^L: every placement the bounded
    count adds up is also one of its, so one wrong binomial moves it too.
    """
    length = len(bounds)
    total = _words_under(max_label, (max_label,) * length)
    if total != max_label**length:
        raise InvariantError(f"the label recurrence counts {total} words, "
                             f"not {max_label}^{length}")
    return total, _words_under(max_label, bounds)


class CountReport(NamedTuple):
    """The size of one family in its word space, against the closed form."""

    n: int
    total_words: int
    matching: int
    formula_value: int
    agrees: bool
    elapsed: float


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

    The closed form is (n+1)^(n-1).  A word parks iff its sorted q has
    q_i <= i, so ``_count_under`` counts under the bounds 1, 2, ..., n.
    Guarded to n <= 10.
    """
    check_guard("count_parking_functions", n, 1, 10, force)
    return _report(n, (n + 1) ** (n - 1), lambda: _count_under(n, tuple(range(1, n + 1))))


def count_prime_parking_functions(n, force=False):
    """Count the prime parking functions among the (n-1)^n words of [n-1]^n.

    The closed form is (n-1)^(n-1).  A word is prime iff its sorted q lies
    under the bounds 1, 1, 2, ..., n-1.  For n = 1 the space [0]^1 is empty
    but (1,) is prime by convention, so the space read is [1]^1 under the
    bound (1,), and the count is 1 = 0^0.  Guarded to n <= 10.
    """
    check_guard("count_prime_parking_functions", n, 1, 10, force)
    return _report(n, (n - 1) ** (n - 1),
                   lambda: _count_under(max(n - 1, 1), (1, *range(1, n))))


def verify_bijection(n, force=False):
    """Check the shift decomposition on every word of [n-1]^n, orbit by orbit.

    Write down_kk(x) = (x - kk) mod m + 1, with m = n-1.  Each sorted word
    a must give decompose(a) = (k, b) with k in [m] (a shift outside it is
    a wrong answer, not bad input), b = down_k(a) entry by entry (the
    congruence a_i = b_i + k - 1 (mod m) with b over [m], read from one
    table per shift built in the call), sorted(b) prime,
    recompose(b, k) == a, and a pair (k, sorted(b)) not seen before.  The
    pairs are then distinct and lie in [m] x (prime sorted words), so they
    cover it exactly when there are m * |primes| of them.

    Why this is exact.  down_kk is a bijection of [m], so a and
    sorted(b) = sorted(down_k(a)) have the same multiplicities and their
    orbits have the same size.  decompose is equivariant by construction
    (k is read from the sorted word and b is an entrywise map of the
    word), so decompose(σa) = (k, σb) for every permutation σ of
    positions, and the orbit of a maps one to one onto
    {k} x orbit(sorted(b)).  No pair repeats, so the count identity
    C(2n-2, n) = m * |primes| is never assumed.  And k is the only prime
    shift: if kk != k made q' = sorted(down_kk(a)) prime, the coverage
    gives a sorted a' with k(a') = kk and sorted(down_kk(a')) = q', so a'
    has a's multiset, a' = a and kk = k.  Only that down_kk permutes [m] is
    used, so the argument holds for any modulus.  Guarded to n <= 8.
    """
    check_guard("verify_bijection", n, 2, 8, force)
    m = n - 1
    # down[kk][x] = down_kk(x) for kk and x in [m], from the formula rather
    # than decompose's own shift table, so that a wrong table there shows.
    down = [None, *([None, *((x - kk) % m + 1 for x in range(1, m + 1))]
                    for kk in range(1, m + 1))]
    primes = set(filter(_prime_sorted, _sorted_words(m, n)))
    seen = set()
    for a in _sorted_words(m, n):
        k, b = decompose(a)
        if not 1 <= k <= m or operator.itemgetter(*a)(down[k]) != b:
            return False
        q = tuple(sorted(b))
        if q not in primes or recompose(b, k) != a or (k, q) in seen:
            return False
        seen.add((k, q))
    return len(seen) == m * len(primes)


def _park_column(n, f):
    """column[state]: a street's next state when a car heads for spot f.

    A state of a street of n spots is its occupied-spot mask, or dead = 2^n
    (which no mask reaches) once a car has left it.  The car takes the
    first free spot at or after f, or leaves; dead stays dead.
    """
    dead = 1 << n
    reach = (dead - 1) & -(1 << f)
    return [mask | (free & -free) if (free := reach & ~mask) else dead
            for mask in range(dead)] + [dead]


def verify_proposition(n, force=False):
    """Check that each word of [n-1]^n parks on exactly one rotated street.

    Exactly one rotation k in [n-1] of the street
    k, k, k+1, ..., n-1, 1, ..., k-1 lets every car park, and that rotation
    is the decomposition's shift.  Every word is parked on every street, so
    nothing is assumed about the order of the cars.  The expected shift is
    looked up by the word's multiset code sum((n+1)^(x-1)), from the
    unchecked decompose kernel on each sorted word (generated in range),
    since decompose reads k from the sorted word.

    The check runs over one set of pairs (masks, code): masks holds each
    street's state, its occupied-spot bitmask or dead = 2^n once a car has
    left that street, and code is the multiset code of the cars so far.
    Where a car goes depends only on the spot f where its label first sits,
    so each call builds n shared transition columns after[f][state]
    (``_park_column``), and car p moves street s through the column of its
    first p.  The set starts as {(empty streets, 0)}, and each of n rounds
    parks one more car p in [n-1] on every street of every pair and adds
    (n+1)^(p-1) to its code.  Parking is online: a word's outcome after t+1
    cars is its outcome after t cars with the last car parked on top.  So,
    by induction on t, the set after t rounds is exactly {(the word's
    outcome on every street, its code)} over all words of t cars, and
    checking every final pair checks every word: its open streets must be
    exactly [shift_of[code]].  Words that reach the same pair are checked
    once.  Guarded to n <= 9.
    """
    check_guard("verify_proposition", n, 2, 9, force)
    m = n - 1
    steps = [(n + 1) ** (p - 1) for p in range(1, n)]
    step_of = [None, *steps]
    shift_of = {
        sum(map(step_of.__getitem__, q)): decompose(q).k for q in _sorted_words(m, n)
    }
    dead = 1 << n
    after = [_park_column(n, f) for f in range(n)]
    first = [_first_positions(rotated_street(n, k)) for k in range(1, n)]
    # moves[p - 1][s]: the column car p moves street s through.
    moves = [[after[fp[p]] for fp in first] for p in range(1, n)]
    pairs = {((0,) * m, 0)}
    for _ in range(n):
        pairs = {(tuple(map(list.__getitem__, row, masks)), code + step)
                 for masks, code in pairs for row, step in zip(moves, steps)}
    for masks, code in pairs:
        k = shift_of[code]
        # Check k's range first: k = 0 would read the last street.
        if not 1 <= k <= m or masks[k - 1] == dead or masks.count(dead) != m - 1:
            return False
    return True
