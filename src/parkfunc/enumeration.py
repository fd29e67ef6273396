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
the orbit reduction is not used there.  Parking a word on all n-1 rotated
streets at once is run as a finite automaton instead.  Its state is the
tuple of the streets' occupied-spot masks, None for a street a car has
left.  Parking is online, so the next state depends only on the state and
the next car, and a transition computed once per distinct state gives each
word exactly the outcome of parking it from scratch.  There are few
states: 91 after at most n-2 cars and 31 after n-1 at n=6, 258/63 at n=7
and 715/127 at n=8, against (n-1)^(n-1) prefixes of n-1 cars.
"""

import itertools
import math
import time
from dataclasses import dataclass, asdict

from .core import _first_positions, rotated_street
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
    orbits matched with equal sizes match the words one to one.  Whether a
    word is prime is read from the set of prime sorted words, built once
    with the public predicate, which reads only the sorted word.  Guarded
    to n <= 8.
    """
    check_guard("verify_bijection", n, 2, 8, force)
    m = n - 1
    orbits = list(_orbits(m, n))
    primes = {q: w for q, w in orbits if is_prime_parking_function(q)}
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
    looked up by the word's multiset, from public decompose on each sorted
    word, since decompose reads k from the sorted word.

    Parking the cars of a word one by one on all n-1 streets at once is a
    finite automaton (``_street_automaton``): its state is the tuple of
    occupied-spot masks, None for a street a car has left, and the next
    state depends only on the state and the next car, because parking is
    online.  So each transition is computed once per distinct state, and a
    word's fate on every street is the state its own cars reach, exactly as
    if it were parked from scratch.  The automaton is small: 91 states
    after 0..4 cars and 31 after 5 at n=6, 258/63 at n=7, 715/127 at n=8.

    The walk then visits every prefix of n-2 cars depth first, carrying its
    state and its multiset code sum((n+1)^(x-1)).  For each prefix it
    compares the winners of its (n-1)^2 two-car extensions, memoised per
    state, with their expected shifts, memoised per code.  A winner is the
    one street that admits every car, or 0 when none or several do.
    Guarded to n <= 8.
    """
    check_guard("verify_proposition", n, 2, 8, force)
    m = n - 1
    steps = [(n + 1) ** (p - 1) for p in range(1, n)]
    shift_of = {
        sum(steps[x - 1] for x in q): decompose(q).k for q, _ in _orbits(m, n)
    }
    delta, winner = _street_automaton(
        n, [_first_positions(rotated_street(n, k)) for k in range(1, n)]
    )
    found = {}  # state after n-2 cars -> winners of its two-car extensions
    expected = {}  # code of n-2 cars -> shifts of its two-car extensions
    stack = [(0, 0, 0)]  # (state, code, cars) of the prefixes left to visit
    while stack:
        state, code, cars = stack.pop()
        if cars < n - 2:
            for child, step in zip(delta[state], steps):
                stack.append((child, code + step, cars + 1))
            continue
        got = found.get(state)
        if got is None:
            got = found[state] = tuple(
                tuple(winner[last] for last in delta[child]) for child in delta[state]
            )
        want = expected.get(code)
        if want is None:
            want = expected[code] = tuple(
                tuple(shift_of[code + a + b] for b in steps) for a in steps
            )
        if got != want:
            return False
    return True


def _street_automaton(n, first):
    """The automaton that parks each car on all the streets of ``first`` at once.

    ``first[s]`` maps each label to its first position on street s, which
    has n spots.  A state is the tuple of each street's occupied-spot
    bitmask, or None once a car has left that street; state 0 is the empty
    start.  Returns ``(delta, winner)``: ``delta[state][p - 1]`` is the
    state after one more car preferring p, and ``winner[state]`` is s + 1
    for the only street s still open, or 0 when none or several are.  Every
    reachable state is expanded, so the tables are finite: a full street
    goes to None with the next car, and all None stays put.
    """
    full = (1 << n) - 1
    at_or_after = [full & -(1 << pos) for pos in range(n)]
    labels = range(1, n)
    states = [(0,) * len(first)]
    index = {states[0]: 0}
    delta = []
    for masks in states:  # grows while it is read: a breadth-first search
        children = []
        for p in labels:
            parked = []
            for mask, fp in zip(masks, first):
                if mask is not None:
                    free = at_or_after[fp[p]] & ~mask
                    mask = mask | (free & -free) if free else None
                parked.append(mask)
            parked = tuple(parked)
            if parked not in index:
                index[parked] = len(states)
                states.append(parked)
            children.append(index[parked])
        delta.append(children)
    winner = []
    for masks in states:
        live = [k for k, mask in enumerate(masks, start=1) if mask is not None]
        winner.append(live[0] if len(live) == 1 else 0)
    return delta, winner
