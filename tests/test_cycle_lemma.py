import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from parkfunc import (
    InvariantError,
    all_words,
    decompose,
    is_prime_parking_function,
    iter_primes,
    recompose,
    sample_primes,
    scores,
    sorted_rearrangement,
)
from parkfunc.cycle_lemma import _recompose, _shift_table
from parkfunc.enumeration import _sorted_words
from conftest import PRIME15, SHIFT15, WORD15, run_python
from word_oracle import decompose_by_scores


def brute_force_shift(word):
    """Independent oracle: try every shift, return those giving a prime word."""
    m = len(word) - 1
    return [k for k in range(1, m + 1)
            if is_prime_parking_function(tuple((a - k) % m + 1 for a in word))]


class TestScores:
    def test_fifteen_car_example(self):
        q = sorted_rearrangement(WORD15)
        sv = scores(q)
        assert sv.values == (
            92, 91, 90, 104, 118, 87, 101, 100, 114, 83, 97, 96, 110, 94, 93,
        )
        assert sv.argmin == 10
        assert q[sv.argmin - 1] == SHIFT15

    def test_smallest_case(self):
        assert scores((1, 1)) == ((0, 1), 1)

    def test_constant_word(self):
        assert scores((2, 2, 2)) == ((0, 2, 4), 1)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            scores((2, 1, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            scores((1, 2))  # entries must stay within [n-1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_score_gap_inequality(self, n):
        # s_i - s_d = (n-1)(i-d) - n(q_i - q_d) is nonnegative, zero only at d.
        for w in all_words(n - 1, n):
            q = sorted_rearrangement(w)
            sv = scores(q)
            d = sv.argmin
            for i in range(1, n + 1):
                gap = (n - 1) * (i - d) - n * (q[i - 1] - q[d - 1])
                assert gap == sv.values[i - 1] - sv.values[d - 1]
                assert gap >= 0
                assert gap != 0 or i == d

    @pytest.mark.parametrize("n", range(2, 8))
    def test_argmin_is_the_first_position_of_its_entry(self, n):
        # Equal entries score higher the later they sit, which decompose
        # relies on to read q's first k straight from the argmin.
        for q in itertools.combinations_with_replacement(range(1, n), n):
            d = scores(q).argmin
            assert q.index(q[d - 1]) == d - 1, q


class TestDecompose:
    def test_fifteen_car_example(self):
        k, b = decompose(WORD15)
        assert k == SHIFT15
        assert b == PRIME15

    def test_singleton_space(self):
        assert decompose((1, 1)) == (1, (1, 1))

    def test_constant_word(self):
        # Brute force over the two candidate shifts picks k=2.
        assert brute_force_shift((2, 2, 2)) == [2]
        assert decompose((2, 2, 2)) == (2, (1, 1, 1))

    def test_rejects_entry_equal_to_n(self):
        with pytest.raises(ValueError):
            decompose((1, 2))

    def test_rejects_length_one(self):
        with pytest.raises(ValueError):
            decompose((1,))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive_roundtrip_prime_unique(self, n):
        for a in all_words(n - 1, n):
            k, b = decompose(a)
            assert is_prime_parking_function(b)
            assert recompose(b, k) == a
            assert brute_force_shift(a) == [k]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_each_sorted_word_has_one_prime_shift(self, n):
        # decompose is equivariant, so one word per orbit carries the
        # uniqueness past the exhaustive round trip.
        for q in _sorted_words(n - 1, n):
            assert brute_force_shift(q) == [decompose(q).k], q

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fixed_point_on_primes(self, n):
        for a in all_words(n - 1, n):
            if is_prime_parking_function(a):
                assert decompose(a) == (1, a)
            else:
                assert decompose(a) != (1, a)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_componentwise_certificate(self, n):
        # The sorted prime part never exceeds (1, 1, 2, 3, ..., n-1).
        bound = (1,) + tuple(range(1, n))
        for a in all_words(n - 1, n):
            b_sorted = sorted_rearrangement(decompose(a).b)
            assert all(x <= m for x, m in zip(b_sorted, bound))

    def test_non_prime_result_raises_under_optimize(self):
        # A bare assert would vanish under -O; the invariant check must not.
        script = (
            "import sys\n"
            "import parkfunc.cycle_lemma as cl\n"
            "from parkfunc import InvariantError\n"
            "if not sys.flags.optimize:\n"
            "    sys.exit('not running under -O')\n"
            "cl._prime_sorted = lambda q: False\n"
            "try:\n"
            "    cl.decompose((2, 1, 2))\n"
            "except InvariantError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    sys.exit('decompose returned')\n"
        )
        done = run_python("-O", "-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("decompose((2, 1, 2)) produced")

    def test_invariant_error_is_not_bad_input(self):
        # The CLI maps ValueError to "invalid input"; a broken invariant is not.
        assert not issubclass(InvariantError, ValueError)

    @given(st.integers(2, 64).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), min_size=n, max_size=n)
    ))
    @settings(max_examples=200)
    def test_randomized_roundtrip(self, entries):
        a = tuple(entries)
        k, b = decompose(a)
        assert is_prime_parking_function(b)
        assert recompose(b, k) == a


class TestClosedFormShift:
    """decompose's closed-form argmin against the score vector it replaces."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_sorted_word_follows_the_score_rule(self, n):
        for q in itertools.combinations_with_replacement(range(1, n), n):
            k, b = decompose(q)
            assert k == q[scores(q).argmin - 1], q
            assert (k, b) == decompose_by_scores(q), q

    @pytest.mark.parametrize("n", [64, 2048])
    def test_random_words_match_the_score_reference(self, n):
        rng = random.Random(n)
        for _ in range(200):
            word = tuple(rng.choices(range(1, n), k=n))
            assert decompose(word) == decompose_by_scores(word), word


class TestShiftArithmetic:
    """The shift tables against the congruences they encode, not one another."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_label_and_shift(self, m):
        labels = tuple(range(1, m + 1))
        b = labels + (1,)  # a word of length n = m + 1 over [m]
        for k in labels:
            table = _shift_table(k, m)
            assert len(table) == m + 1
            assert [table[a] for a in labels] == [(a - k) % m + 1 for a in labels]
            assert recompose(b, k) == tuple((x + k - 2) % m + 1 for x in b)
            assert _recompose(b, k) == tuple((x + k - 2) % m + 1 for x in b)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_decompose_shifts_by_its_k(self, m):
        shifts = set()
        for last in range(1, m + 1):
            a = tuple(range(1, m + 1)) + (last,)
            k, b = decompose(a)
            assert b == tuple((x - k) % m + 1 for x in a)
            shifts.add(k)
        assert shifts == set(range(1, m + 1))  # every table is read


class TestRecompose:
    def test_fifteen_car_example(self):
        assert recompose(PRIME15, SHIFT15) == WORD15

    def test_shift_one_is_identity(self):
        for b in [(1, 1), (2, 1, 1), PRIME15]:
            assert recompose(b, 1) == b

    def test_inverse_of_constant_decomposition(self):
        assert recompose((1, 1, 1), 2) == (2, 2, 2)

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError):
            recompose((1, 1), 2)


# SHA-256 digests of the outputs over whole input spaces: any change of a
# score, argmin, shift or prime word shows here.
SCORES_DIGESTS = {
    2: "18f3df02a8e86094889bc41745125b67cb74978f257c9e9d0f60a24dd2e2a407",
    3: "412ebec3d4ba3b34a6196ae15ae311ff6a7c802ffbb97da8cf0c0c36dc3ae011",
    4: "272da7e95d7b8d4cf6cd68d2e7dc7d390b1acd09bfc0c1d563b25174a88eaa32",
    5: "09087c2b1c51ffd5193c796d3424a71e3e0b07e32ab1cd809dda9da4d43b85ab",
    6: "b86d4a1166d74ea02858a32f34976aedde25f77ea231c7426c49ead4d8c0aaea",
    7: "6d179d1c83efe8f02eb2c38701288922e457746bf62da0cca3e9221f17ab1417",
    8: "4df7fc55e71fc0ad51a23678aa20bc841f9db66bd01153f0d2de18ab3acf042e",
}
SHIFT_DIGESTS = {
    2: "2b438c6c0f41dbccc29ab3cf33f70c9058a8ac062afc25a8e2d803a476d48c0f",
    3: "2c0a9a27a567138257f5cdc6bb60670e21911a4e29664f740b4696e20dea0c4e",
    4: "9c1c2eab41b24e0abad2a3ffdf6a90ac4ee926a7ec839f62c607161a1834e555",
    5: "f8554915b4a1158dd44a34714d18a9d00269ca3198e94ee9ac3ffe0d0bf82908",
    6: "02c372b183666014a47ead453bbcf796adde3096353377d2f414d932e5d7f2db",
    7: "1e7f482c732b1ceb4e8f0cc6368c1a68a852c0d95f51e3fabba173ca17e47dad",
}


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestOutputsStayFixed:
    @pytest.mark.parametrize("n", sorted(SCORES_DIGESTS))
    def test_scores_of_every_sorted_word(self, n):
        out = [tuple(scores(q))
               for q in itertools.combinations_with_replacement(range(1, n), n)]
        assert digest(out) == SCORES_DIGESTS[n]

    @pytest.mark.parametrize("n", sorted(SHIFT_DIGESTS))
    def test_decompose_and_recompose_of_every_word(self, n):
        # recompose reads each word as a b, shifted by that word's own k.
        words = list(itertools.product(range(1, n), repeat=n))
        parts = list(map(decompose, words))
        ks = [part.k for part in parts]
        back = list(map(recompose, words, ks))
        assert digest((ks, [part.b for part in parts], back)) == SHIFT_DIGESTS[n]


class TestSampler:
    @pytest.mark.parametrize("n", [True, 3.5, 3.0, "3", None])
    def test_n_must_be_an_int_at_the_call(self, n):
        # Checked when the iterator is made, not at its first draw.
        with pytest.raises(ValueError) as exc:
            iter_primes(n, 1)
        assert str(exc.value) == f"n must be an integer, got {n!r}"

    @pytest.mark.parametrize("count", [True, False, 2.5, 1.0, "1", None])
    def test_count_must_be_an_int(self, count):
        with pytest.raises(ValueError) as exc:
            sample_primes(3, 1, count)
        assert str(exc.value) == f"count must be an integer, got {count!r}"

    @pytest.mark.parametrize("seed", [(1, 2), [3], {4: 5}, frozenset()])
    def test_seed_that_random_refuses_is_bad_input_at_the_call(self, seed):
        # random.Random raises TypeError for these; the sampler names the seed.
        for call in (lambda: iter_primes(3, seed), lambda: sample_primes(3, seed, 1)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == (
                "seed must be None, an int, a float, a str, bytes or a bytearray, "
                f"got {seed!r}"
            )

    @pytest.mark.parametrize("seed", [None, 7, True, 2.5, "seven", b"7", bytearray(b"7")])
    def test_every_seed_type_random_takes_still_samples(self, seed):
        assert is_prime_parking_function(sample_primes(4, seed, 1)[0])

    def test_length_two_is_constant(self):
        for seed in range(5):
            assert sample_primes(2, seed, 1)[0] == (1, 1)

    def test_deterministic_under_seed(self):
        assert sample_primes(5, 1234, 20) == sample_primes(5, 1234, 20)
        assert sample_primes(5, 99, 1)[0] == sample_primes(5, 99, 1)[0]

    def test_sample_is_the_head_of_the_stream(self):
        stream = iter_primes(5, 1234)
        assert sample_primes(5, 1234, 20) == [next(stream) for _ in range(20)]

    def test_stream_checks_n_before_the_first_draw(self):
        with pytest.raises(ValueError):
            iter_primes(1, 0)

    def test_samples_are_prime(self):
        for w in sample_primes(7, 42, 200):
            assert is_prime_parking_function(w)

    def test_hits_every_prime_word(self):
        # 27 prime words at n=4; 2000 draws make a miss astronomically unlikely.
        prime_words = {w for w in all_words(3, 4) if is_prime_parking_function(w)}
        assert len(prime_words) == 27
        assert set(sample_primes(4, 7, 2000)) == prime_words
