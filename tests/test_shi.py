import itertools
import re
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

import shi_walk
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
    verify_pak_stanley,
)
from parkfunc import shi
from parkfunc.shi import Hyperplane, satisfies
from shi_walk import _walls

# The sixteen labels of the three-car arrangement, and the four bounded ones.
LABELS3 = {
    (2, 2, 1), (2, 3, 1), (1, 3, 1), (1, 3, 2), (1, 2, 2), (1, 2, 3),
    (1, 1, 3), (1, 1, 2), (1, 1, 1), (1, 2, 1), (2, 1, 3), (2, 1, 2),
    (3, 1, 2), (2, 1, 1), (3, 1, 1), (3, 2, 1),
}
BOUNDED3 = {(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)}


@lru_cache(maxsize=None)
def lattice_regions(n):
    """Ground truth: each nonempty region's signs, mapped to its boundedness.

    A lattice-point scan that shares no method with the engine: no shortest
    paths, no elimination, only the sign order of ``hyperplanes(n)``.

    Feasibility.  Scaled by n+1, each side of each hyperplane reads
    y_v - y_u < c(n+1), c in {-1, 0, 1}, an edge u -> v.  The scan visits
    the integer y with y_n = 0, |y_i| <= R = (n-1)(n+2) and no
    y_i - y_j in {0, n+1}; a region it hits holds y/(n+1).  Conversely, if
    the open region holds a point, its constraints summed around a cycle
    give 0 < C(n+1), so each simple cycle has integer constant sum C >= 1
    and, with L <= n edges, weight C(n+1) - L >= 1 in the integer system
    y_v - y_u <= c(n+1) - 1.  Having no negative cycle, that system is
    solved by the shortest-path potentials from a virtual source with a 0
    edge to each vertex: each is 0 or a simple path of at most n-1 edges of
    weight >= -(n+2), so it lies in [-(n-1)(n+2), 0].  Subtracting y_n keeps
    every difference, so the scan visits that strict solution.

    Boundedness.  The closure's recession cone, d_i >= d_j on a + side and
    d_i <= d_j on a - side, holds the constant vectors; the region is
    bounded modulo their line iff it holds nothing else.  For a nonconstant
    cone vector d and min(d) < t <= max(d), e_i = [d_i >= t] keeps every
    relation, so e is a nonconstant 0/1 cone vector: the region is bounded
    iff none of the 2^n - 2 nonconstant 0/1 vectors meets its relations.
    """
    span = (n - 1) * (n + 2)
    cuts = [(hp.i - 1, hp.j - 1, hp.k * (n + 1)) for hp in hyperplanes(n)]
    nonconstant = [d for d in itertools.product((0, 1), repeat=n) if 0 < sum(d) < n]
    regions = {}
    for y in itertools.product(*[range(-span, span + 1)] * (n - 1), [0]):
        gaps = [y[i] - y[j] - k for i, j, k in cuts]
        if 0 in gaps:
            continue
        signs = tuple(1 if g > 0 else -1 for g in gaps)
        if signs not in regions:
            regions[signs] = not any(
                all(s * (d[i] - d[j]) >= 0 for (i, j, _), s in zip(cuts, signs))
                for d in nonconstant
            )
    return regions


def all_sign_vectors(n):
    for signs in itertools.product((1, -1), repeat=n * (n - 1)):
        yield SignVector(n, signs)


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
        feasible = {sv.signs for sv in all_sign_vectors(3) if is_feasible(sv)}
        assert len(feasible) == 16 and feasible == lattice_regions(3).keys()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_engine_agrees_with_lattice_scan(self, n):
        for sv in all_sign_vectors(n):
            feasible = sv.signs in lattice_regions(n)
            assert is_feasible(sv) == feasible, sv.as_string()
            if feasible:
                assert is_bounded(sv) == lattice_regions(n)[sv.signs], sv.as_string()
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
        # Equal to +1 and -1 by value, but not ints: no floats in the geometry.
        with pytest.raises(ValueError):
            SignVector(2, (1.0, -1.0))
        with pytest.raises(ValueError):
            SignVector(2, (True, -1))

    @pytest.mark.parametrize("n", [True, 2.0, "2", None])
    def test_sign_vector_n_must_be_an_int(self, n):
        with pytest.raises(ValueError) as exc:
            SignVector(n, () if n is True else (1, -1))
        assert str(exc.value) == f"n must be an integer, got {n!r}"

    @pytest.mark.parametrize("n,signs", [(-1, (1, 1)), (0, ()), (1, ())])
    def test_sign_vector_needs_two_cars(self, n, signs):
        # Each has the n*(n-1) signs its n asks for, so only n can refuse it.
        with pytest.raises(ValueError) as exc:
            SignVector(n, signs)
        assert str(exc.value) == "the arrangement needs n >= 2"

    def test_sign_vector_signs_must_be_a_tuple(self):
        # A list would pass the other checks, and the record could not be hashed.
        with pytest.raises(ValueError) as exc:
            SignVector(2, [1, -1])
        assert str(exc.value) == "signs must be a tuple, got list"

    @pytest.mark.parametrize("n", [True, 2.0, 3.0, "3", None])
    @pytest.mark.parametrize("build", [hyperplanes, base_region])
    def test_n_must_be_an_int(self, build, n):
        hyperplanes(2)
        hyperplanes(3)  # cached now; the cache must not answer for 2.0 or 3.0
        with pytest.raises(ValueError) as exc:
            build(n)
        assert str(exc.value) == f"n must be an integer, got {n!r}"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_enumerated_sign_vectors_pass_the_checks(self, n):
        # _regions builds its sign vectors unchecked; each must be one the
        # checked constructor accepts, and the same in value, hash and repr.
        for region in enumerate_regions(n):
            sv = region.sign_vector
            checked = SignVector(n, sv.signs)
            assert (sv, hash(sv), repr(sv)) == (checked, hash(checked), repr(checked))

    @pytest.mark.parametrize("point", [(1,), (1, Fraction(1, 2), 99)])
    def test_satisfies_needs_one_coordinate_per_variable(self, point):
        with pytest.raises(ValueError) as exc:
            satisfies(SignVector(2, (1, -1)), point)
        assert str(exc.value) == f"expected a point with 2 coordinates, got {len(point)}"

    @pytest.mark.parametrize("text", [None, 5, ["+", "-"], b"+-"])
    def test_from_string_needs_a_str(self, text):
        with pytest.raises(ValueError) as exc:
            SignVector.from_string(2, text)
        assert str(exc.value) == f"sign string must be a str, got {type(text).__name__}"


class TestDecoder:
    # Each n=3 vector breaks one of _decode's three rules and passes the
    # other two.  The signs go by pair, (1,2), (1,3), (2,3), k=0 then k=1.
    @pytest.mark.parametrize("text", [
        "+---+-",  # x_1 > x_2 > x_3 > x_1: the k=0 signs order nothing
        "-++-+-",  # x_2 > x_1, yet x_1 - x_2 > 1
        "+-+-++",  # x_1 > x_2 > x_3 + 1, yet x_1 - x_3 < 1
    ], ids=["cyclic order", "inversion above 1", "plus set not up-closed"])
    def test_each_rule_rejects_its_own_vector(self, text):
        sv = SignVector.from_string(3, text)
        assert sv.signs not in lattice_regions(3)
        assert shi._decode(3, sv.signs) is None
        assert not is_feasible(sv)
        assert feasible_point(sv) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_single_flips_agree_with_the_walk_engine(self, n):
        # Every region and every sign vector one flip from a region, held to
        # the distance matrix of the reference walk.
        vectors = set()
        for region in enumerate_regions(n):
            signs = region.sign_vector.signs
            vectors.add(signs)
            vectors.update(
                signs[:idx] + (-signs[idx],) + signs[idx + 1:]
                for idx in range(len(signs))
            )
        for signs in vectors:
            sv = SignVector(n, signs)
            dist = shi_walk._distances(n, shi_walk._edges(n, signs))
            assert is_feasible(sv) == (dist is not None), sv.as_string()
            if dist is not None:
                bounded = shi_walk._strongly_connected(n, dist)
                assert is_bounded(sv) == bounded, sv.as_string()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_region_decodes_to_a_witness_and_its_flag(self, n):
        for region in enumerate_regions(n):
            sv = region.sign_vector
            assert satisfies(sv, feasible_point(sv)), sv.as_string()
            assert is_bounded(region) == region.bounded, sv.as_string()


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
        regions = lattice_regions(n)
        for signs in regions:
            flips = {
                idx
                for idx in range(len(signs))
                if signs[:idx] + (-signs[idx],) + signs[idx + 1:] in regions
            }
            walls, _ = _walls(n, signs)
            assert set(walls) == flips, SignVector(n, signs).as_string()

    def test_bfs_reaches_every_feasible_sign_vector(self):
        for n in (2, 3, 4):
            regions = enumerate_regions(n)
            found = {r.sign_vector.signs: r.bounded for r in regions}
            assert found == lattice_regions(n)

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
            def counted(*args, _name=name, _real=getattr(shi_walk, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(shi_walk, name, counted)
        assert len(list(shi_walk._walk(4))) == 125
        assert calls == {"_edges": 125, "_distances": 125}

    def test_crossing_toward_the_base_must_reach_the_previous_level(
        self, monkeypatch
    ):
        # A mutant that also reports every non-wall flip toward the base
        # chamber: such a flip leads to an empty region, never one level up.
        base = base_region(3).signs
        real = shi_walk._walls

        def mutant(n, signs):
            walls, bounded = real(n, signs)
            toward = [
                idx for idx, (s, b) in enumerate(zip(signs, base))
                if s != b and idx not in walls
            ]
            return walls + toward, bounded

        monkeypatch.setattr(shi_walk, "_walls", mutant)
        # Level 1 has no such flip (its one toward flip is a wall); the first
        # comes in level 2, walked in sign-string order.
        message = (
            "crossing Hyperplane(i=1, j=3, k=1) from region +++++- (n=3) "
            "toward the base chamber misses depth 1"
        )
        with pytest.raises(InvariantError, match=re.escape(message)):
            list(shi_walk._walk(3))

    def test_walk_into_an_empty_region_raises(self, monkeypatch):
        monkeypatch.setattr(shi_walk, "_distances", lambda n, edges: None)
        with pytest.raises(InvariantError, match=r"empty region \+- \(n=2\)"):
            list(shi_walk._walk(2))

    def test_guard(self):
        with pytest.raises(GuardRangeError):
            enumerate_regions(7)
        with pytest.raises(GuardRangeError):
            verify_pak_stanley(7)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_combinatorial_path_equals_the_walk(self, n):
        assert enumerate_regions(n) == list(shi_walk._walk(n))

    def test_combinatorial_path_builds_no_distance_matrix(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError("enumerate_regions built a distance matrix")

        monkeypatch.setattr(shi, "_distances", refuse)
        assert len(enumerate_regions(4)) == 125

    def test_combinatorial_path_guard(self):
        with pytest.raises(ValueError, match="needs n >= 2"):
            enumerate_regions(1)
        with pytest.raises(GuardRangeError):
            enumerate_regions(7)


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


def _tampered_streams(n):
    """Region streams that each break one clause of verify_pak_stanley.

    ``base`` is the bounded base chamber, labeled (1, ..., 1), and ``free``
    is the first unbounded region.  The key None holds the untouched stream.
    """
    regions = enumerate_regions(n)
    u = next(idx for idx, r in enumerate(regions) if not r.bounded)
    base, rest, free, tail = regions[0], regions[1:u], regions[u], regions[u + 1:]
    unbounded_base = replace(base, bounded=False)
    bounded_free = replace(free, bounded=True)
    return {
        None: regions,
        "duplicated label": [*regions, free],
        "missing region": [base, *rest, *tail],
        "entry n+1": [replace(base, label=(1,) * (n - 1) + (n + 1,)), *regions[1:]],
        "entry 0": [replace(base, label=(0,) + (1,) * (n - 1)), *regions[1:]],
        "short label": [replace(base, label=(1,) * (n - 1)), *regions[1:]],
        "bounded to unbounded": [unbounded_base, *regions[1:]],
        "unbounded to bounded": [base, *rest, bounded_free, *tail],
        "swapped bounded flags": [unbounded_base, *rest, bounded_free, *tail],
    }


@pytest.mark.parametrize("n", [3, 4])
def test_verify_pak_stanley_rejects_a_tampered_stream(monkeypatch, n):
    for tampering, regions in _tampered_streams(n).items():
        monkeypatch.setattr(shi, "_regions", lambda n: iter(regions))
        assert verify_pak_stanley(n) is (tampering is None), tampering


@pytest.mark.parametrize("n", [2, 3, 4])
def test_label_sets_against_word_scans(n):
    regions = enumerate_regions(n)
    assert {r.label for r in regions} == {
        w for w in all_words(n, n) if is_parking_function(w)
    }
    assert {r.label for r in regions if r.bounded} == {
        w for w in all_words(n - 1, n) if is_prime_parking_function(w)
    }
