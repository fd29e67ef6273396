import itertools

import pytest
from hypothesis import given, strategies as st

from parkfunc import (
    all_words,
    format_word,
    is_parking_function,
    is_prime_parking_function,
    parse_word,
    prime_street,
    rotated_street,
    simulate,
    sorted_rearrangement,
    standard_street,
    strip_first_one,
)
from parkfunc.core import _parks_sorted, _prime_sorted
from conftest import CARS_PRIME15, CARS_STANDARD15, SHIFT15


class TestWordLiterals:
    def test_parse_commas(self):
        assert parse_word("3,13,6") == (3, 13, 6)

    def test_parse_whitespace_and_mixed(self):
        assert parse_word("3 13 6") == (3, 13, 6)
        assert parse_word("3, 13, 6") == (3, 13, 6)

    def test_roundtrip(self, word15):
        assert parse_word(format_word(word15)) == word15

    @pytest.mark.parametrize("bad", ["", "1,x", "0,1", "-2", "1.5"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad)

    @pytest.mark.parametrize("text,entry", [
        ("1,0,x", "'0'"), ("1,x,0", "'x'"), ("1,-1", "'-1'"),
    ])
    def test_error_names_the_first_bad_entry(self, text, entry):
        with pytest.raises(ValueError, match=f"^bad word entry {entry}:"):
            parse_word(text)


class TestSortedRearrangement:
    def test_fifteen_car_example(self, word15):
        assert sorted_rearrangement(word15) == (
            1, 2, 3, 3, 3, 6, 6, 7, 7, 10, 10, 11, 11, 13, 14,
        )

    def test_already_sorted(self):
        assert sorted_rearrangement((1, 1)) == (1, 1)

    def test_small_multiset(self):
        assert sorted_rearrangement((2, 1, 1)) == (1, 1, 2)


class TestPredicates:
    def test_fifteen_car_example_is_parking(self, word15):
        assert is_parking_function(word15)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_all_ones_is_parking(self, n):
        assert is_parking_function((1,) * n)

    def test_two_twos_is_not(self):
        assert not is_parking_function((2, 2))

    def test_entry_above_n_is_domain_error_not_false(self):
        with pytest.raises(ValueError):
            is_parking_function((1, 5, 1))

    def test_prime_example(self, prime15):
        assert is_prime_parking_function(prime15)

    def test_prime_small_cases(self):
        assert is_prime_parking_function((1, 1))
        assert not is_prime_parking_function((1, 2))
        assert is_prime_parking_function((1,))

    def test_empty_word_parks(self):
        # (0+1)^(0-1) = 1: the empty word is the one parking function of length 0.
        assert is_parking_function(())

    def test_empty_word_is_not_prime(self):
        # A prime word loses one 1 and still parks; the empty word has no 1.
        assert not is_prime_parking_function(())

    @given(st.integers(2, 7).flatmap(
        lambda n: st.tuples(*[st.integers(1, n)] * n).flatmap(
            lambda w: st.tuples(st.just(w), st.permutations(w))
        )
    ))
    def test_permutation_invariance(self, pair):
        # Both predicates look only at the sorted rearrangement.
        word, shuffled = pair
        shuffled = tuple(shuffled)
        assert is_parking_function(word) == is_parking_function(shuffled)
        assert is_prime_parking_function(word) == is_prime_parking_function(shuffled)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_prime_implies_parking(self, n):
        for w in all_words(n, n):
            if is_prime_parking_function(w):
                assert is_parking_function(w)


def _prime_by_definition(q):
    """q has a 1, and deleting one 1 leaves a word that parks on 1..n-1."""
    if 1 not in q:
        return False
    rest = strip_first_one(q)
    if not rest:
        return True  # no cars: nothing fails to park
    if max(rest) > len(rest):
        return False  # a car wants a spot the street does not have
    return simulate(rest, standard_street(len(rest))).success


class TestKernels:
    """The unchecked sorted-word kernels against the parking process itself."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parks_sorted_is_parking_on_the_standard_street(self, n):
        street = standard_street(n)
        for q in itertools.combinations_with_replacement(range(1, n + 1), n):
            assert _parks_sorted(q) == simulate(q, street).success, q

    @pytest.mark.parametrize("n", range(1, 9))
    def test_prime_sorted_is_strip_a_one_then_park(self, n):
        for q in itertools.combinations_with_replacement(range(1, n + 1), n):
            assert _prime_sorted(q) == _prime_by_definition(q), q


class TestStreets:
    def test_standard(self):
        assert standard_street(5) == (1, 2, 3, 4, 5)

    def test_prime_fifteen(self):
        assert prime_street(15) == (1,) + tuple(range(1, 15))

    def test_rotated_fifteen_ten(self):
        assert rotated_street(15, 10) == (10, 10, 11, 12, 13, 14) + tuple(range(1, 10))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_rotation_one_is_prime_street(self, n):
        assert rotated_street(n, 1) == prime_street(n)

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 5), (2, 2)])
    def test_rotation_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            rotated_street(n, k)

    def test_street_length_one(self):
        assert standard_street(1) == (1,)
        with pytest.raises(ValueError):
            prime_street(1)


class TestSimulate:
    def test_standard_street_fifteen(self, word15):
        out = simulate(word15, standard_street(15))
        assert out.success
        assert out.assignment == CARS_STANDARD15

    def test_prime_street_fifteen(self, prime15):
        out = simulate(prime15, prime_street(15))
        assert out.success
        assert out.assignment == CARS_PRIME15

    def test_rotated_street_fifteen(self, word15):
        out = simulate(word15, rotated_street(15, SHIFT15))
        assert out.success
        assert out.assignment == CARS_PRIME15

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_all_ones_pure_probing(self, n):
        out = simulate((1,) * n, standard_street(n))
        assert out.success
        assert out.assignment == tuple(range(1, n + 1))

    def test_failure_reports_first_leaver(self):
        out = simulate((2, 2), standard_street(2))
        assert not out.success
        assert out.failed_car == 2
        assert out.assignment is None

    def test_missing_label_is_domain_error(self):
        with pytest.raises(ValueError):
            simulate((2, 15), prime_street(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equivalence_with_sorted_criterion(self, n):
        street = standard_street(n)
        for w in all_words(n, n):
            assert simulate(w, street).success == is_parking_function(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_prime_equivalence_with_sorted_criterion(self, n):
        street = prime_street(n)
        for w in all_words(n - 1, n):
            assert simulate(w, street).success == is_prime_parking_function(w)


class TestStripFirstOne:
    def test_removes_first_one(self):
        assert strip_first_one((1, 1)) == (1,)
        assert strip_first_one((2, 1, 1)) == (2, 1)
        assert is_parking_function((2, 1))

    def test_fifteen_car_prime_part(self, prime15):
        stripped = strip_first_one(prime15)
        assert stripped == prime15[:8] + prime15[9:]
        assert is_parking_function(stripped)

    def test_no_one_to_strip(self):
        with pytest.raises(ValueError):
            strip_first_one((2, 3, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_strip_bijection(self, n):
        # A word over [n-1] containing a 1 is prime iff stripping the first 1
        # leaves a parking function of length n-1.
        for w in all_words(n - 1, n):
            if 1 not in w:
                assert not is_prime_parking_function(w)
                continue
            assert is_prime_parking_function(w) == is_parking_function(
                strip_first_one(w)
            )
