import collections
import dataclasses
import itertools
import json

import pytest

import parkfunc.enumeration
import word_oracle
from parkfunc import (
    GuardRangeError,
    all_words,
    count_parking_functions,
    count_prime_parking_functions,
    decompose,
    is_parking_function,
    is_prime_parking_function,
    verify_bijection,
    verify_proposition,
)
from parkfunc.cycle_lemma import _shift_down
from parkfunc.enumeration import _orbits

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
    record = count_parking_functions(3).as_dict()
    assert set(record) == {
        "n", "total_words", "matching", "formula_value", "agrees", "elapsed",
    }
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


# The orbit oracles against the word-by-word scans in word_oracle.py.


def _tally(report):
    return {k: v for k, v in dataclasses.asdict(report).items() if k != "elapsed"}


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


def _shift_moved(decompose):
    """decompose with k moved to the next shift: the congruence breaks."""

    def wrong(word):
        right = decompose(word)
        return right._replace(k=right.k % (len(word) - 1) + 1)

    return wrong


@pytest.mark.parametrize("oracle", ["verify_bijection", "verify_proposition"])
def test_wrong_shift_fails_both_verifiers(monkeypatch, oracle):
    for module in (parkfunc.enumeration, word_oracle):
        monkeypatch.setattr(module, "decompose", _shift_moved(decompose))
    assert getattr(parkfunc.enumeration, oracle)(4) is False
    assert getattr(word_oracle, oracle)(4) is False


def _wrong_on_orbit(decompose, q):
    """decompose with k moved on the words that sort to q, and right elsewhere."""
    moved = _shift_moved(decompose)

    def wrong(word):
        return moved(word) if tuple(sorted(word)) == q else decompose(word)

    return wrong


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_wrong_orbit_fails_every_verifier(monkeypatch, n, place):
    # The merged (masks, code) pairs of the proposition check, and the
    # prime set of the bijection check, must not hide a single bad orbit.
    reps = [q for q, _ in _orbits(n - 1, n)]
    q = {"first": reps[0], "middle": reps[len(reps) // 2], "last": reps[-1]}[place]
    for module in (parkfunc.enumeration, word_oracle):
        monkeypatch.setattr(module, "decompose", _wrong_on_orbit(decompose, q))
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
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kernel,count,drop", [
    ("_parks_sorted", count_parking_functions, 0),  # words over [n]
    ("_prime_sorted", count_prime_parking_functions, 1),  # words over [n-1]
])
def test_one_flipped_orbit_fails_the_count(monkeypatch, kernel, count, drop, n, place):
    q = _pick([q for q, _ in _orbits(n - drop, n)], place)
    real = getattr(parkfunc.enumeration, kernel)
    monkeypatch.setattr(parkfunc.enumeration, kernel, _flipped_on(real, q))
    assert count(n).agrees is False, q


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_flipped_prime_orbit_fails_the_bijection(monkeypatch, n, place):
    real = parkfunc.enumeration._prime_sorted
    q = _pick([q for q, _ in _orbits(n - 1, n) if real(q)], place)
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
    # The prefix-shared scan must see a wrong street exactly where parking
    # every word from scratch does.
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


# Word-by-word checks of the two facts the orbit oracles rest on.


@pytest.mark.parametrize("length", range(1, 6))
@pytest.mark.parametrize("max_label", range(1, 6))
def test_orbits_count_the_sorted_words(max_label, length):
    sizes = collections.Counter(tuple(sorted(w)) for w in all_words(max_label, length))
    assert list(_orbits(max_label, length)) == sorted(sizes.items())


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
        if tuple(decompose(w)) != (k, _shift_down(w, k, m)):
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
