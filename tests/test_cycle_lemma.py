import pytest
from hypothesis import given, settings, strategies as st

from parkfunc import (
    InvariantError,
    all_words,
    decompose,
    is_prime_parking_function,
    iter_primes,
    recompose,
    sample_prime,
    sample_primes,
    scores,
    sorted_rearrangement,
)
from parkfunc.cycle_lemma import _shift_down
from conftest import PRIME15, SHIFT15, WORD15, run_python


def brute_force_shift(word):
    """Independent oracle: try every shift, return those giving a prime word."""
    m = len(word) - 1
    return [k for k in range(1, m + 1)
            if is_prime_parking_function(_shift_down(word, k, m))]


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


class TestSampler:
    def test_length_two_is_constant(self):
        for seed in range(5):
            assert sample_prime(2, seed) == (1, 1)

    def test_deterministic_under_seed(self):
        assert sample_primes(5, 1234, 20) == sample_primes(5, 1234, 20)
        assert sample_prime(5, 99) == sample_prime(5, 99)

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
