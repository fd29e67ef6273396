import gc
import itertools
import json
import math
import operator

import pytest

import parkfunc.core
import parkfunc.cycle_lemma
import parkfunc.enumeration
import word_oracle
from parkfunc import (
    GuardRangeError,
    InvariantError,
    all_words,
    count_parking_functions,
    count_prime_parking_functions,
    decompose,
    is_parking_function,
    is_prime_parking_function,
    rotated_street,
    simulate,
    verify_bijection,
    verify_proposition,
)
from parkfunc.core import _parks_sorted, _prime_sorted
from parkfunc.cycle_lemma import _shift
from parkfunc.enumeration import _sorted_words

PF_COUNTS = {1: 1, 2: 3, 3: 16, 4: 125, 5: 1296}
PPF_COUNTS = {1: 1, 2: 1, 3: 4, 4: 27, 5: 256}


def test_odometer_order():
    assert list(all_words(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("n,expected", sorted(PF_COUNTS.items()))
def test_count_parking_functions(n, expected):
    report = count_parking_functions(n)
    assert report.matching == expected
    assert report.formula_value == (n + 1) ** (n - 1)
    assert report.agrees
    assert report.total_words == n**n


@pytest.mark.parametrize("n,expected", sorted(PPF_COUNTS.items()))
def test_count_prime_parking_functions(n, expected):
    report = count_prime_parking_functions(n)
    assert report.matching == expected
    assert report.formula_value == (n - 1) ** (n - 1)
    assert report.agrees


def test_report_serializes(capsys):
    # In field order: `parkfunc count --json` writes its keys in this order.
    record = count_parking_functions(3)._asdict()
    assert list(record) == [
        "n", "total_words", "matching", "formula_value", "agrees", "elapsed",
    ]
    assert json.loads(json.dumps(record)) == record


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_bijection(n):
    assert verify_bijection(n)


def test_bijection_image_counts():
    # 8 words over [2]^3 land bijectively on 2 shifts x 4 prime words.
    from parkfunc import decompose

    pairs = {decompose(a) for a in all_words(2, 3)}
    assert len(pairs) == 8
    assert {k for k, _ in pairs} == {1, 2}
    assert len({b for _, b in pairs}) == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_proposition(n):
    assert verify_proposition(n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_parking_functions(11),
        lambda: count_prime_parking_functions(12),
        lambda: verify_bijection(9),
        lambda: verify_proposition(10),
    ],
)
def test_guard_ranges(call):
    with pytest.raises(GuardRangeError):
        call()


def test_guard_is_overridable():
    assert verify_bijection(9, force=True)


def test_nonsense_n_is_invalid_not_guarded():
    with pytest.raises(ValueError) as exc:
        count_parking_functions(0)
    assert not isinstance(exc.value, GuardRangeError)


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("oracle", [verify_bijection, verify_proposition])
def test_n_below_the_domain_is_invalid_even_when_forced(oracle, force):
    # [0]^1 is empty, so a forced run would pass vacuously.
    with pytest.raises(ValueError) as exc:
        oracle(1, force=force)
    assert not isinstance(exc.value, GuardRangeError)


@pytest.mark.parametrize("n", [True, False, 3.0, "3", None])
@pytest.mark.parametrize("oracle", [
    count_parking_functions, count_prime_parking_functions,
    verify_bijection, verify_proposition,
])
def test_n_must_be_an_int(oracle, n):
    with pytest.raises(ValueError) as exc:
        oracle(n, force=True)
    assert not isinstance(exc.value, GuardRangeError)
    assert str(exc.value) == f"{oracle.__name__} needs an integer n (got n={n!r})"


# The library oracles against the word-by-word scans in word_oracle.py.


def _tally(report):
    return {k: v for k, v in report._asdict().items() if k != "elapsed"}


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("name", ["count_parking_functions",
                                  "count_prime_parking_functions"])
def test_counts_agree_with_word_scan(name, n):
    orbit = getattr(parkfunc.enumeration, name)(n)
    assert _tally(orbit) == _tally(getattr(word_oracle, name)(n))


@pytest.mark.parametrize("n", range(2, 7))
def test_bijection_agrees_with_word_scan(n):
    assert verify_bijection(n) is word_oracle.verify_bijection(n) is True


@pytest.mark.parametrize("n", range(2, 7))
def test_proposition_agrees_with_word_scan(n):
    expected = word_oracle.verify_proposition(n, force=True)
    assert verify_proposition(n) is expected is True


@pytest.mark.parametrize("n", range(2, 9))
def test_each_sorted_word_parks_on_its_shift_street_alone(n):
    # The proposition on one word per orbit, parked car by car by simulate
    # rather than through verify_proposition's columns, past the word scan.
    streets = [rotated_street(n, k) for k in range(1, n)]
    for q in _sorted_words(n - 1, n):
        parks = [k for k, street in enumerate(streets, start=1) if simulate(q, street).success]
        assert parks == [decompose(q).k], q


def _shift_moved(decompose):
    """decompose with k moved to the next shift: the congruence breaks."""

    def wrong(word):
        right = decompose(word)
        return right._replace(k=right.k % (len(word) - 1) + 1)

    return wrong


def _shift_mod(decompose):
    """decompose with k reduced mod n-1: k = 0 where it should be n-1."""

    def wrong(word):
        right = decompose(word)
        return right._replace(k=right.k % (len(word) - 1))

    return wrong


def _kernel_moved(shift):
    """The shift kernel with k moved to the next shift, as _shift_moved moves decompose's."""
    return lambda q: shift(q) % (len(q) - 1) + 1


def _kernel_mod(shift):
    """The shift kernel with k reduced mod n-1, as _shift_mod reduces decompose's."""
    return lambda q: shift(q) % (len(q) - 1)


@pytest.mark.parametrize("oracle", ["verify_bijection", "verify_proposition"])
def test_wrong_shift_fails_both_verifiers(monkeypatch, oracle):
    # The library's bijection reads k through decompose and its proposition
    # through the shift kernel alone; word_oracle reads both through decompose.
    def patch(wrong, wrong_kernel):
        monkeypatch.setattr(word_oracle, "decompose", wrong(decompose))
        if oracle == "verify_proposition":
            monkeypatch.setattr(parkfunc.enumeration, "_shift", wrong_kernel(_shift))
        else:
            monkeypatch.setattr(parkfunc.enumeration, "decompose", wrong(decompose))

    patch(_shift_moved, _kernel_moved)
    assert getattr(parkfunc.enumeration, oracle)(4) is False
    assert getattr(word_oracle, oracle)(4) is False
    # A shift outside [n-1] keeps the congruence; it is a false answer, not
    # bad input, so neither verifier may raise on it.
    patch(_shift_mod, _kernel_mod)
    for n in range(3, 7):
        assert getattr(parkfunc.enumeration, oracle)(n) is False, n
        assert getattr(word_oracle, oracle)(n, force=True) is False, n


def test_shifts_moved_in_step_fail_the_congruence(monkeypatch):
    # decompose and recompose off by the same shift still invert each other,
    # and the moved pairs still cover [n-1] x primes: only the congruence
    # sees them.
    def recompose(b, k):
        return parkfunc.recompose(b, (k - 2) % (len(b) - 1) + 1)

    for module in (parkfunc.enumeration, word_oracle):
        monkeypatch.setattr(module, "decompose", _shift_moved(decompose))
        monkeypatch.setattr(module, "recompose", recompose)
    for n in range(3, 7):
        assert verify_bijection(n) is False, n
        assert word_oracle.verify_bijection(n, force=True) is False, n


def _wrong_on_orbit(right, moved, q):
    """moved on the words that sort to q, and right elsewhere."""

    def wrong(word):
        return moved(word) if tuple(sorted(word)) == q else right(word)

    return wrong


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_wrong_orbit_fails_every_verifier(monkeypatch, n, place):
    # The sorted-word pass of the proposition check, and the prime set of
    # the bijection check, must not hide a single bad orbit.
    reps = list(_sorted_words(n - 1, n))
    q = {"first": reps[0], "middle": reps[len(reps) // 2], "last": reps[-1]}[place]
    # The library's proposition reads k through the shift kernel alone.
    wrong = _wrong_on_orbit(decompose, _shift_moved(decompose), q)
    for module in (parkfunc.enumeration, word_oracle):
        monkeypatch.setattr(module, "decompose", wrong)
    monkeypatch.setattr(parkfunc.enumeration, "_shift",
                        _wrong_on_orbit(_shift, _kernel_moved(_shift), q))
    for oracle in ("verify_bijection", "verify_proposition"):
        assert getattr(parkfunc.enumeration, oracle)(n) is False, (oracle, q)
        assert getattr(word_oracle, oracle)(n, force=True) is False, (oracle, q)


def _flipped_on(kernel, q):
    """kernel with its answer flipped on the sorted word q, and right elsewhere."""

    def flipped(word):
        return kernel(word) != (tuple(word) == q)

    return flipped


def _pick(reps, place):
    return {"first": reps[0], "middle": reps[len(reps) // 2], "last": reps[-1]}[place]


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_one_flipped_prime_orbit_fails_the_bijection(monkeypatch, n, place):
    # Both directions: a prime orbit read as non-prime, and a non-prime orbit
    # read as prime, which only the final coverage equality can catch.
    real = parkfunc.enumeration._prime_sorted
    reps = list(_sorted_words(n - 1, n))
    for verdict in (True, False):
        q = _pick([q for q in reps if real(q) is verdict], place)
        monkeypatch.setattr(parkfunc.enumeration, "_prime_sorted", _flipped_on(real, q))
        assert verify_bijection(n) is False, q


def _swapped(rotated_street, k, i, j):
    """rotated_street with the labels at positions i and j of street k swapped."""

    def street(n, kk):
        labels = list(rotated_street(n, kk))
        if kk == k:
            labels[i], labels[j] = labels[j], labels[i]
        return tuple(labels)

    return street


@pytest.mark.parametrize("n", [3, 4, 5])
def test_street_swaps_give_the_word_scan_verdict(monkeypatch, n):
    # The commutation check and the sorted-word pass must see a wrong street
    # exactly where parking every word from scratch does.
    real = parkfunc.enumeration.rotated_street
    verdicts = set()
    for k in range(1, n):
        for i, j in itertools.combinations(range(n), 2):
            for module in (parkfunc.enumeration, word_oracle):
                monkeypatch.setattr(module, "rotated_street", _swapped(real, k, i, j))
            expected = word_oracle.verify_proposition(n)
            assert verify_proposition(n) is expected, f"street {k}, swap {i}<->{j}"
            verdicts.add(expected)
    assert verdicts == {True, False}


def _shift_path_entries(n):
    """The (f, mask) table entries some word reads on its own shift's street.

    Each car of the word reads the entry of the spot f where its label
    first sits and the mask of the spots taken before it.
    """
    entries = set()
    for a in all_words(n - 1, n):
        first = parkfunc.core._first_positions(rotated_street(n, decompose(a).k))
        mask = 0
        for x in a:
            entries.add((first[x], mask))
            free = ((1 << n) - 1) & -(1 << first[x]) & ~mask
            mask |= free & -free
    return entries


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_free_spot_read_as_dead_fails_where_a_word_reads_it(monkeypatch, n):
    # One corrupted entry must fail wherever some word reads it on the
    # street of its shift, where every car must park: the sorted-word pass
    # reads only the sorted words' paths, so the commutation check must
    # catch the rest.  That check reads every state on purpose, so every
    # free spot read as dead fails, on a word's path or not.
    real = parkfunc.enumeration._park_column
    dead = 1 << n
    failed = set()
    for f in range(n):
        for mask, target in enumerate(real(n, f)[:dead]):
            if target == dead:
                continue

            def column(nn, ff, f=f, mask=mask):
                entries = real(nn, ff)
                if ff == f:
                    entries[mask] = dead
                return entries

            monkeypatch.setattr(parkfunc.enumeration, "_park_column", column)
            if verify_proposition(n) is False:
                failed.add((f, mask))
    assert (0, 0) in failed
    assert _shift_path_entries(n) <= failed
    assert failed == {(f, mask) for f in range(n)
                      for mask, target in enumerate(real(n, f)[:dead]) if target != dead}


# Word-by-word checks of the two facts the orbit oracles rest on.


@pytest.mark.parametrize("length", range(1, 6))
@pytest.mark.parametrize("max_label", range(1, 6))
def test_orbits_count_the_sorted_words(max_label, length):
    orbits = {tuple(sorted(w)) for w in all_words(max_label, length)}
    assert list(_sorted_words(max_label, length)) == sorted(orbits)


def _not_order_invariant(fn, words):
    """The first word on which fn disagrees with fn of its sorted word."""
    return next((w for w in words if fn(w) != fn(tuple(sorted(w)))), None)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("predicate", [is_parking_function, is_prime_parking_function])
def test_predicates_read_only_the_sorted_word(predicate, n):
    word = _not_order_invariant(predicate, all_words(n, n))
    assert word is None, f"{predicate.__name__} differs on {word} and its sorted word"


def _not_equivariant(decompose, n):
    """The first word w with decompose(w) != (k of sorted(w), w shifted by k)."""
    m = n - 1
    for w in all_words(m, n):
        k = decompose(tuple(sorted(w))).k
        if tuple(decompose(w)) != (k, tuple((x - k) % m + 1 for x in w)):
            return w
    return None


@pytest.mark.parametrize("n", range(2, 7))
def test_decompose_is_equivariant(n):
    word = _not_equivariant(decompose, n)
    assert word is None, f"decompose is not equivariant at {word}"


def test_equivariance_check_catches_a_decompose_wrong_off_sorted_words():
    moved = _shift_moved(decompose)

    def wrong(word):
        return decompose(word) if list(word) == sorted(word) else moved(word)

    assert _not_equivariant(wrong, 3) == (1, 2, 1)


# The label recurrence against the closed forms, and its mutants.


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("count,labels,formula", [
    (count_parking_functions, lambda n: n, lambda n: (n + 1) ** (n - 1)),
    (count_prime_parking_functions, lambda n: n - 1, lambda n: (n - 1) ** (n - 1)),
], ids=["parking", "prime"])
def test_recurrence_matches_the_closed_forms(count, labels, formula, n):
    report = count(n)
    # The prime count's n = 1 convention scans the word (1,), not [0]^1.
    total = labels(n) ** n if labels(n) else 1
    assert (report.total_words, report.matching) == (total, formula(n))
    assert report.agrees


@pytest.mark.parametrize("length", range(1, 6))
@pytest.mark.parametrize("max_label", range(1, 5))
def test_recurrence_counts_the_words_under_any_bound(max_label, length):
    # Every nondecreasing bound vector, not only the two streets the
    # library passes: the words whose sorted q lies under it, word by word.
    qs = [sorted(w) for w in all_words(max_label, length)]
    for bounds in _sorted_words(max_label, length):
        expected = sum(all(map(operator.le, q, bounds)) for q in qs)
        got = parkfunc.enumeration._count_under(max_label, bounds)
        assert got == (max_label**length, expected), bounds


def _orbit_size(q):
    """How many words sort to q: len(q)! over the factorial of each multiplicity."""
    size = math.factorial(len(q))
    for x in set(q):
        size //= math.factorial(q.count(x))
    return size


@pytest.mark.parametrize("length", range(1, 9))
@pytest.mark.parametrize("max_label", range(1, 9))
def test_recurrence_weighs_each_sorted_word_by_its_orbit(max_label, length):
    # Past the word scans: the words under both streets' bounds, as the sum
    # of the orbit sizes of the sorted words under them.
    for bounds in [tuple(range(1, length + 1)), (1, *range(1, length))]:
        expected = sum(_orbit_size(q) for q in _sorted_words(max_label, length)
                       if all(map(operator.le, q, bounds)))
        got = parkfunc.enumeration._count_under(max_label, bounds)
        assert got == (max_label**length, expected), bounds


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("count,kernel", [
    (count_parking_functions, _parks_sorted),
    (count_prime_parking_functions, _prime_sorted),
], ids=["parking", "prime"])
def test_the_count_bounds_each_sorted_word_as_its_predicate_does(monkeypatch, count,
                                                                 kernel, n):
    # Two wrong orbits can cancel in a count: each sorted word must lie under
    # the bounds the count hands the recurrence exactly when its kernel accepts it.
    real = parkfunc.enumeration._count_under
    seen = []
    monkeypatch.setattr(parkfunc.enumeration, "_count_under",
                        lambda m, bounds: seen.append((m, bounds)) or real(m, bounds))
    assert count(n).agrees
    [(max_label, bounds)] = seen
    for q in _sorted_words(max_label, n):
        assert all(map(operator.le, q, bounds)) == kernel(q), q


def _off_by_one(bounds, max_label):
    """Each bound vector with one entry moved by one, kept nondecreasing in [1, max_label]."""
    for i, step in itertools.product(range(len(bounds)), (-1, 1)):
        moved = list(bounds)
        moved[i] += step
        if moved != sorted(moved) or not 1 <= moved[i] <= max_label:
            continue
        yield tuple(moved)


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("count", [count_parking_functions, count_prime_parking_functions])
def test_a_bound_off_by_one_fails_the_count(monkeypatch, count, n):
    real = parkfunc.enumeration._count_under
    seen = []
    monkeypatch.setattr(parkfunc.enumeration, "_count_under",
                        lambda m, bounds: seen.append((m, bounds)) or real(m, bounds))
    assert count(n).agrees
    [(max_label, bounds)] = seen
    moved = list(_off_by_one(bounds, max_label))
    assert len(moved) >= n - 1
    for wrong in moved:
        monkeypatch.setattr(parkfunc.enumeration, "_count_under",
                            lambda m, bounds: real(m, wrong))
        assert count(n).agrees is False, wrong


def _diagonals_with(change):
    """_diagonals with change(diag) applied to its result."""
    real = parkfunc.enumeration._diagonals

    def diagonals(length):
        table = real(length)
        change(table)
        return table

    return diagonals


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("count", [count_parking_functions, count_prime_parking_functions])
def test_a_wrong_binomial_row_fails_the_count(monkeypatch, count, n):
    # Both counts read a word length of n, so the table has n + 1 diagonals.
    for f in range(n + 1):
        def bump(table):
            table[f] = [x + 1 for x in table[f]]

        monkeypatch.setattr(parkfunc.enumeration, "_diagonals", _diagonals_with(bump))
        with pytest.raises(InvariantError):
            count(n)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("count", [count_parking_functions, count_prime_parking_functions])
def test_no_single_wrong_binomial_moves_the_count_unseen(monkeypatch, count, n):
    # A wrong entry the count reads must fail the whole-space recount.
    right = count(n)
    for f in range(n + 1):
        for c in range(f + 1):
            def bump(table):
                table[f][c] += 1

            monkeypatch.setattr(parkfunc.enumeration, "_diagonals", _diagonals_with(bump))
            try:
                report = count(n)
            except InvariantError:
                continue
            assert report.matching == right.matching, (f, c)


def test_the_oracles_validate_no_word(monkeypatch):
    # The oracles build their words sorted and in range and call the
    # unchecked kernels: at the benchmark sizes no word check may run.
    def refuse(*args, **kwargs):
        raise AssertionError(f"a word check ran inside an oracle on {args}")

    for module in (parkfunc.core, parkfunc.cycle_lemma):
        monkeypatch.setattr(module, "_as_word", refuse)
        monkeypatch.setattr(module, "_check_range", refuse)
    for count, formula in [(count_parking_functions, 8**6),
                           (count_prime_parking_functions, 6**6)]:
        report = count(7)
        assert (report.matching, report.formula_value, report.agrees) == (formula, formula, True)
    assert verify_bijection(6) is True
    assert verify_proposition(6) is True


@pytest.mark.parametrize("n", range(2, 10))
def test_the_proposition_check_makes_no_decompose_call(monkeypatch, n):
    # It reads each sorted word's shift from the shift kernel alone and
    # builds no prime part.
    def refuse(*args, **kwargs):
        raise AssertionError(f"decompose ran inside verify_proposition on {args}")

    monkeypatch.setattr(parkfunc.enumeration, "decompose", refuse)
    for name in ("decompose", "_decompose"):
        monkeypatch.setattr(parkfunc.cycle_lemma, name, refuse)
    assert verify_proposition(n) is True


@pytest.mark.parametrize("oracle,n", [(count_parking_functions, 7), (verify_bijection, 6)])
def test_oracles_leave_no_cyclic_garbage(oracle, n):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        oracle(n)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []
