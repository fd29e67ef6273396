import itertools
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from parkfunc import (
    GuardRangeError,
    InvariantError,
    SignVector,
    all_words,
    base_region,
    enumerate_regions,
    feasible_point,
    hyperplanes,
    is_bounded,
    is_feasible,
    is_parking_function,
    is_prime_parking_function,
    iter_regions,
    verify_pak_stanley,
)
from parkfunc import shi
from parkfunc.shi import Hyperplane, _walls, satisfies
from fm_oracle import at_most, equal_to, less_than, satisfiable

# The sixteen labels of the three-car arrangement, and the four bounded ones.
LABELS3 = {
    (2, 2, 1), (2, 3, 1), (1, 3, 1), (1, 3, 2), (1, 2, 2), (1, 2, 3),
    (1, 1, 3), (1, 1, 2), (1, 1, 1), (1, 2, 1), (2, 1, 3), (2, 1, 2),
    (3, 1, 2), (2, 1, 1), (3, 1, 1), (3, 2, 1),
}
BOUNDED3 = {(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)}


# Ground truth: each region as general rational constraints, settled by the
# Fourier-Motzkin oracle exactly as the library did before it switched to
# difference-constraint graphs.
def _unit_diff(n, i, j):
    coeffs = [0] * n
    coeffs[i - 1] = 1
    coeffs[j - 1] = -1
    return tuple(coeffs)


def oracle_is_feasible(sv):
    region = []
    for hp, s in zip(hyperplanes(sv.n), sv.signs):
        if s > 0:  # x_i - x_j > k
            region.append(less_than(_unit_diff(sv.n, hp.j, hp.i), -hp.k))
        else:  # x_i - x_j < k
            region.append(less_than(_unit_diff(sv.n, hp.i, hp.j), hp.k))
    return satisfiable(region, sv.n)


def oracle_is_bounded(sv):
    """No recession direction has d_p - d_q = 1 for any ordered pair (p, q)."""
    cone = []
    for hp, s in zip(hyperplanes(sv.n), sv.signs):
        if s > 0:  # d_i - d_j >= 0
            cone.append(at_most(_unit_diff(sv.n, hp.j, hp.i), 0))
        else:
            cone.append(at_most(_unit_diff(sv.n, hp.i, hp.j), 0))
    return not any(
        satisfiable(cone + equal_to(_unit_diff(sv.n, p, q), 1), sv.n)
        for p in range(1, sv.n + 1)
        for q in range(1, sv.n + 1)
        if p != q
    )


def all_sign_vectors(n):
    for signs in itertools.product((1, -1), repeat=n * (n - 1)):
        yield SignVector(n, signs)


@lru_cache(maxsize=None)
def oracle_regions(n):
    """The sign tuples of every nonempty region, by a full oracle scan."""
    return frozenset(sv.signs for sv in all_sign_vectors(n) if oracle_is_feasible(sv))


class TestHyperplanes:
    def test_two_vars(self):
        assert hyperplanes(2) == (Hyperplane(1, 2, 0), Hyperplane(1, 2, 1))

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (5, 20)])
    def test_counts(self, n, count):
        assert len(hyperplanes(n)) == count

    def test_lexicographic_order(self):
        hps = hyperplanes(4)
        assert list(hps) == sorted(hps)


class TestFeasibility:
    def test_strip_is_feasible_with_witness(self):
        strip = SignVector.from_string(2, "+-")
        assert is_feasible(strip)
        point = feasible_point(strip)
        assert satisfies(strip, point)
        assert 0 < point[0] - point[1] < 1

    def test_crossing_constraints_infeasible(self):
        assert not is_feasible(SignVector.from_string(2, "-+"))
        assert feasible_point(SignVector.from_string(2, "-+")) is None

    def test_sixteen_of_sixtyfour_at_three(self):
        assert len(oracle_regions(3)) == 16
        feasible = {sv.signs for sv in all_sign_vectors(3) if is_feasible(sv)}
        assert feasible == oracle_regions(3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_engine_agrees_with_fourier_motzkin(self, n):
        for sv in all_sign_vectors(n):
            feasible = sv.signs in oracle_regions(n)
            assert is_feasible(sv) == feasible, sv.as_string()
            if feasible:
                assert is_bounded(sv) == oracle_is_bounded(sv), sv.as_string()
                assert satisfies(sv, feasible_point(sv)), sv.as_string()
            else:
                assert feasible_point(sv) is None, sv.as_string()
                message = f"region {sv.as_string()} (n={n}) is empty"
                with pytest.raises(ValueError, match=re.escape(message)):
                    is_bounded(sv)

    def test_base_region_witness(self):
        for n in (2, 3, 4, 5):
            base = base_region(n)
            staircase = tuple(Fraction(n - i, n) for i in range(1, n + 1))
            assert satisfies(base, staircase)
            assert is_feasible(base)

    def test_sign_vector_validation(self):
        with pytest.raises(ValueError):
            SignVector(3, (1, 1, 1))
        with pytest.raises(ValueError):
            SignVector(2, (1, 0))


class TestRegions:
    def test_two_cars_hand_enumeration(self):
        regions = enumerate_regions(2)
        seen = {
            r.sign_vector.as_string(): (r.label, r.bounded, r.bfs_depth)
            for r in regions
        }
        assert seen == {
            "+-": ((1, 1), True, 0),
            "++": ((1, 2), False, 1),
            "--": ((2, 1), False, 1),
        }

    def test_three_cars_labels(self):
        regions = enumerate_regions(3)
        assert len(regions) == 16
        labels = [r.label for r in regions]
        assert len(set(labels)) == 16
        assert set(labels) == LABELS3
        assert {r.label for r in regions if r.bounded} == BOUNDED3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_match_closed_forms(self, n):
        regions = enumerate_regions(n)
        assert len(regions) == (n + 1) ** (n - 1)
        assert sum(r.bounded for r in regions) == (n - 1) ** (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_depth_equals_separating_hyperplanes(self, n):
        base = base_region(n)
        for r in enumerate_regions(n):
            separating = sum(
                a != b for a, b in zip(r.sign_vector.signs, base.signs)
            )
            assert r.bfs_depth == separating
            assert sum(r.label) - n == r.bfs_depth

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_labels_rederivable_from_sign_differences(self, n):
        # Path independence: coordinate c counts the separating hyperplanes
        # x_c = x_j (j > c) plus the separating x_i = x_c + 1 (i < c).
        base = base_region(n)
        hps = hyperplanes(n)
        for r in enumerate_regions(n):
            rebuilt = [1] * n
            for hp, mine, his in zip(hps, r.sign_vector.signs, base.signs):
                if mine == his:
                    continue
                coord = hp.i if hp.k == 0 else hp.j
                rebuilt[coord - 1] += 1
            assert tuple(rebuilt) == r.label

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_walls_are_the_feasible_flips(self, n):
        for signs in oracle_regions(n):
            flips = {
                idx
                for idx in range(len(signs))
                if signs[:idx] + (-signs[idx],) + signs[idx + 1:] in oracle_regions(n)
            }
            walls, _ = _walls(n, signs)
            assert set(walls) == flips, SignVector(n, signs).as_string()

    def test_bfs_reaches_every_feasible_sign_vector(self):
        for n in (2, 3, 4):
            regions = enumerate_regions(n)
            found = {r.sign_vector.signs for r in regions}
            assert found == oracle_regions(n)
            for r in regions:
                assert r.bounded == oracle_is_bounded(r.sign_vector), (
                    r.sign_vector.as_string()
                )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_output_ordered_by_depth_then_signs(self, n):
        keys = [(r.bfs_depth, r.sign_vector.as_string()) for r in enumerate_regions(n)]
        assert keys == sorted(keys)

    def test_deterministic_output_order(self):
        first = [r.sign_vector.as_string() for r in enumerate_regions(3)]
        second = [r.sign_vector.as_string() for r in enumerate_regions(3)]
        assert first == second
        depths = [r.bfs_depth for r in enumerate_regions(3)]
        assert depths == sorted(depths)

    def test_one_distance_matrix_per_region(self, monkeypatch):
        calls = {"_edges": 0, "_distances": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(shi, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(shi, name, counted)
        assert len(enumerate_regions(4)) == 125
        assert calls == {"_edges": 125, "_distances": 125}

    def test_crossing_toward_the_base_must_reach_the_previous_level(
        self, monkeypatch
    ):
        # A mutant that also reports every non-wall flip toward the base
        # chamber: such a flip leads to an empty region, never one level up.
        base = base_region(3).signs
        real = shi._walls

        def mutant(n, signs):
            walls, bounded = real(n, signs)
            toward = [
                idx for idx, (s, b) in enumerate(zip(signs, base))
                if s != b and idx not in walls
            ]
            return walls + toward, bounded

        monkeypatch.setattr(shi, "_walls", mutant)
        # Level 1 has no such flip (its one toward flip is a wall); the first
        # comes in level 2, walked in sign-string order.
        message = (
            "crossing Hyperplane(i=1, j=3, k=1) from region +++++- (n=3) "
            "toward the base chamber misses depth 1"
        )
        with pytest.raises(InvariantError, match=re.escape(message)):
            enumerate_regions(3)

    def test_walk_into_an_empty_region_raises(self, monkeypatch):
        monkeypatch.setattr(shi, "_distances", lambda n, edges: None)
        with pytest.raises(InvariantError, match=r"empty region \+- \(n=2\)"):
            enumerate_regions(2)

    def test_guard(self):
        # iter_regions checks n when called, before the first region.
        with pytest.raises(GuardRangeError):
            iter_regions(7)
        with pytest.raises(ValueError, match="needs n >= 2"):
            iter_regions(1)
        with pytest.raises(GuardRangeError):
            enumerate_regions(7)
        with pytest.raises(GuardRangeError):
            verify_pak_stanley(7)


class TestBoundedness:
    def test_strip_bounded_halves_not(self):
        assert is_bounded(SignVector.from_string(2, "+-"))
        assert not is_bounded(SignVector.from_string(2, "++"))
        assert not is_bounded(SignVector.from_string(2, "--"))

    def test_accepts_region_objects(self):
        region = enumerate_regions(2)[0]
        assert is_bounded(region) == region.bounded


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_pak_stanley(n):
    assert verify_pak_stanley(n)


@pytest.mark.parametrize("n", [2, 3])
def test_label_sets_against_word_scans(n):
    regions = enumerate_regions(n)
    assert {r.label for r in regions} == {
        w for w in all_words(n, n) if is_parking_function(w)
    }
    assert {r.label for r in regions if r.bounded} == {
        w for w in all_words(n - 1, n) if is_prime_parking_function(w)
    }
