"""Regions of the Shi arrangement, Pak-Stanley labels, and boundedness.

The arrangement consists of the hyperplanes x_i - x_j = k for
1 <= i < j <= n and k in {0, 1}.  A region (open chamber) is encoded by its
sign vector: one + or - per hyperplane, + meaning x_i - x_j > k.  Starting
from the base chamber x_1 > x_2 > ... > x_n with all pairwise differences
below 1, labeled (1, ..., 1), a breadth-first walk across walls assigns each
region its Pak-Stanley label: crossing x_i = x_j away from the base chamber
adds 1 to coordinate i, crossing x_i = x_j + 1 adds 1 to coordinate j.  The
labels enumerate the parking functions, with prime parking functions on the
regions that are bounded modulo the all-equal line x_1 = ... = x_n
(Stanley, PNAS 93, 1996).

Two paths build the regions.

The combinatorial path, ``_regions``, needs no distance matrix
(Athanasiadis-Linusson, Discrete Math. 204, 1999; Shi, LNM 1179, 1986).  A
region orders its coordinates, y_1 > ... > y_n with y_p = x_{w(p)} for a
permutation w, and only a non-inversion pair of positions p < q, one with
w(p) < w(q), can lie on either side of its k=1 hyperplane.  The pairs with
y_p - y_q > 1 form an up-set U of the staircase of pairs p < q, and any
up-set occurs for every w; the region is w with U ∩ noninv(w), and it has
exactly one U whose minimal elements are all non-inversions.  Each
separating hyperplane counts once, so the label is read off directly, and
so is boundedness.  ``enumerate_regions``, ``verify_pak_stanley`` and
``parkfunc shi``, in text and in JSON, take this path.

The walk, ``_walk``, follows the definition and is kept as the reference
that the tests hold ``_regions`` to, region for region.  Every side of
every hyperplane is an integer difference constraint x_v - x_u < c, so the
geometry is shortest paths on a weighted digraph with one edge u -> v per
hyperplane (CLRS 24.4, "Difference constraints and shortest paths").  The
strict constraint gets the integer weight c*(n+1) - 1: a simple cycle has
at most n edges, so the scaled cycle weight is negative exactly when the
cycle's constants sum to at most 0, which is exactly when the strict system
is empty.  One distance matrix per region gives its walls and its
boundedness; ``is_feasible`` and ``is_bounded`` read the same matrix for
any sign vector.  All distances are plain ints; ``fractions.Fraction``
appears only in the witness points.  No floats.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import _parks_sorted, _prime_sorted
from .enumeration import count_parking_functions, count_prime_parking_functions
from .errors import InvariantError, check_guard, check_int


class Hyperplane(NamedTuple):
    """The hyperplane x_i - x_j = k (1-based, i < j, k in {0, 1})."""

    i: int
    j: int
    k: int


# typed: hyperplanes(2.0) must reach the check, not the cached tuple of 2.
@lru_cache(maxsize=None, typed=True)
def hyperplanes(n):
    """All 2*C(n,2) hyperplanes, ordered lexicographically by (i, j, k)."""
    check_int(n, 2, "n", "the arrangement needs n >= 2")
    return tuple(
        Hyperplane(i, j, k)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        for k in (0, 1)
    )


def _sign_string(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


@dataclass(frozen=True)
class SignVector:
    """A total assignment of sides, one per hyperplane of the arrangement.

    ``signs[h]`` is +1 when the region lies on the x_i - x_j > k side of the
    h-th hyperplane of ``hyperplanes(n)`` and -1 otherwise.
    """

    n: int
    signs: tuple

    def __post_init__(self):
        check_int(self.n, 2, "n", "the arrangement needs n >= 2")
        # A list would pass every other check and then fail to hash.
        if not isinstance(self.signs, tuple):
            raise ValueError(f"signs must be a tuple, got {type(self.signs).__name__}")
        if len(self.signs) != self.n * (self.n - 1):
            raise ValueError(
                f"expected {self.n * (self.n - 1)} signs, got {len(self.signs)}"
            )
        # Compared by value, 1.0 and True would pass as 1; the types keep them out.
        if not set(self.signs) <= {1, -1} or not set(map(type, self.signs)) <= {int}:
            raise ValueError("signs must be the ints +1 or -1")

    @classmethod
    def _unchecked(cls, n, signs):
        """The sign vector of a tuple of n*(n-1) ints +1 or -1, not checked."""
        sv = object.__new__(cls)
        sv.__dict__.update(n=n, signs=signs)
        return sv

    def as_string(self):
        return _sign_string(self.signs)

    @classmethod
    def from_string(cls, n, text):
        if set(text) - {"+", "-"}:
            raise ValueError("sign string may contain only + and -")
        return cls(n, tuple(1 if c == "+" else -1 for c in text))


def _edges(n, signs):
    """The region's difference constraints, one edge (u, v, w) per hyperplane.

    Vertices are 0-based coordinates.  The + side x_i - x_j > k is
    x_j - x_i < -k, the edge i -> j; the - side x_i - x_j < k is the edge
    j -> i.  Either way the weight is the scaled constant c*(n+1) - 1.
    """
    scale = n + 1
    return [
        (hp.i - 1, hp.j - 1, -hp.k * scale - 1) if s > 0
        else (hp.j - 1, hp.i - 1, hp.k * scale - 1)
        for hp, s in zip(hyperplanes(n), signs)
    ]


def _distances(n, edges):
    """Floyd-Warshall all-pairs distances, or None on a negative cycle.

    A missing edge gets the stand-in weight ``far = 2n(n+2)``.  Real weights
    lie in [-(n+2), n], so a simple path of real edges weighs less than
    n(n+2) in absolute value, while a path or cycle through a stand-in
    weighs more: it never passes for a real path or closes a negative cycle.
    """
    far = 2 * n * (n + 2)
    dist = [[far] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v, w in edges:
        if w < dist[u][v]:
            dist[u][v] = w
    for m in range(n):
        via = dist[m]
        for row in dist:
            to_m = row[m]
            for v in range(n):
                if to_m + via[v] < row[v]:
                    row[v] = to_m + via[v]
    if any(dist[v][v] < 0 for v in range(n)):
        return None
    return dist


def satisfiable(edges, n):
    """Whether the strict difference constraints admit a point (no negative cycle)."""
    return _distances(n, edges) is not None


def is_feasible(sv):
    """Whether the sign vector's open polyhedron is nonempty (exact)."""
    return satisfiable(_edges(sv.n, sv.signs), sv.n)


def feasible_point(sv):
    """An exact rational point inside the region, or None if it is empty.

    The shortest-path potentials x_v = min_a dist[a][v] obey
    x_v - x_u <= w = c*(n+1) - 1 on every edge, so x / (n+1) has
    x_v - x_u <= c - 1/(n+1) < c.
    """
    from fractions import Fraction  # imported here to keep it out of CLI start-up

    dist = _distances(sv.n, _edges(sv.n, sv.signs))
    if dist is None:
        return None
    return tuple(
        Fraction(min(row[v] for row in dist), sv.n + 1) for v in range(sv.n)
    )


def satisfies(sv, point):
    """Directly check that a rational point lies inside the region."""
    from fractions import Fraction

    for hp, s in zip(hyperplanes(sv.n), sv.signs):
        value = Fraction(point[hp.i - 1]) - Fraction(point[hp.j - 1]) - hp.k
        if (value <= 0) if s > 0 else (value >= 0):
            return False
    return True


def _walls(n, signs):
    """The nonempty region's walls and whether it is bounded, from one matrix.

    Returns ``(walls, bounded)``.  ``walls`` lists the indices of the
    hyperplanes that bound the region on a facet.  Flipping edge (u, v, w)
    leaves a nonempty region iff every other u -> v path has constants
    summing to more than c, where w = c*(n+1) - 1.  A path of L edges and
    constant sum C weighs C*(n+1) - L, and with 1 <= L <= n-1 that weight
    exceeds w exactly when C > c; it never ties w, since the one parallel
    edge u -> v has the other k and so a weight that differs by n+1.  So
    the edge is a wall iff dist[u][v] == w.  ``bounded`` comes from
    ``_strongly_connected`` on the same matrix.
    """
    edges = _edges(n, signs)
    dist = _distances(n, edges)
    if dist is None:
        raise InvariantError(
            f"the walk reached the empty region {_sign_string(signs)} (n={n})"
        )
    walls = [idx for idx, (u, v, w) in enumerate(edges) if dist[u][v] == w]
    return walls, _strongly_connected(n, dist)


def _strongly_connected(n, dist):
    """Whether a nonempty region is bounded modulo the line x_1 = ... = x_n.

    Every region recedes along (1, ..., 1); it is bounded in the quotient
    exactly when its recession cone contains nothing else.  The cone relaxes
    each edge u -> v to d_u >= d_v, so it is the line iff the constraint
    graph is strongly connected; otherwise the vertices reachable from some
    vertex can drop by 1 while the others stay put.  By the weight bounds in
    ``_distances``, v is reachable from u iff dist[u][v] < n(n+2).
    """
    reach = n * (n + 2)
    return all(d < reach for row in dist for d in row)


def base_region(n):
    """The chamber x_1 > x_2 > ... > x_n with every x_i - x_j below 1.

    Equivalently: sign + on every x_i = x_j hyperplane and sign - on every
    x_i = x_j + 1 hyperplane.  It carries the label (1, ..., 1) and contains
    the point with x_i = (n - i)/n.
    """
    return SignVector(n, tuple(1 if hp.k == 0 else -1 for hp in hyperplanes(n)))


@dataclass(frozen=True)
class Region:
    """A chamber with its Pak-Stanley label and boundedness flag.

    ``bfs_depth`` equals the number of hyperplanes separating the region
    from the base chamber, which is also ``sum(label) - n``.
    """

    sign_vector: SignVector
    label: tuple
    bounded: bool
    bfs_depth: int


def is_bounded(region):
    """Whether the region is bounded modulo the line x_1 = ... = x_n.

    Accepts a ``SignVector`` or a ``Region``; the test is
    ``_strongly_connected`` on the region's distance matrix.  An empty
    region has no recession cone to ask about, so it raises ``ValueError``.
    """
    sv = region.sign_vector if isinstance(region, Region) else region
    dist = _distances(sv.n, _edges(sv.n, sv.signs))
    if dist is None:
        raise ValueError(f"region {sv.as_string()} (n={sv.n}) is empty")
    return _strongly_connected(sv.n, dist)


def _walk(n):
    """All regions of the arrangement, labeled, by breadth-first wall crossing.

    Neighbors of a region lie across its walls; a crossing flips exactly one
    sign, and on first discovery the new region receives its parent's label
    with one coordinate bumped (the rule in the module docstring).  Levels
    are expanded in lexicographic order of the sign strings, so the output
    order is reproducible.  Each region is yielded as soon as its distance
    matrix is read, and the walk keeps only the previous, current and next
    levels: a region's depth is the number of hyperplanes separating it
    from the base chamber, so a crossing changes the depth by exactly 1.
    n is not checked.  Each region costs one O(n^3) distance matrix, so
    n=6 (16,807 regions) takes about a second.
    """
    hps = hyperplanes(n)
    base = base_region(n).signs
    previous = {}
    labels = {base: (1,) * n}  # the current level: signs -> label
    level = [base]
    depth = 0
    while level:
        found = {}
        for signs in level:
            label = labels[signs]
            walls, bounded = _walls(n, signs)
            yield Region(SignVector(n, signs), label, bounded, depth)
            for idx in walls:
                key = signs[:idx] + (-signs[idx],) + signs[idx + 1:]
                hp = hps[idx]
                # A crossing toward the base chamber goes one level up, and
                # one away from it one level down, where a first discovery
                # sets the label.
                if signs[idx] != base[idx]:
                    if key not in previous:
                        raise InvariantError(
                            f"crossing {hp} from region {_sign_string(signs)} "
                            f"(n={n}) toward the base chamber misses depth "
                            f"{depth - 1}"
                        )
                    continue
                if key not in found:
                    coord = (hp.i if hp.k == 0 else hp.j) - 1
                    found[key] = label[:coord] + (label[coord] + 1,) + label[coord + 1:]
        previous, labels = labels, found
        level = sorted(found, key=_sign_string)
        depth += 1


def _upsets(w, m, p):
    """Fill m[p], m[p-1], ..., m[0] with each canonical up-set for w in turn.

    ``m[r]`` is the smallest q with (r, q) in U, or n when row r of U is
    empty; an up-set has m non-decreasing with m[r] > r.  Rows r > p are
    already set.  A choice m[p] < m[p+1] makes (p, m[p]) a minimal element
    of U, so it is taken only on a non-inversion; m[p] = m[p+1] adds no
    minimal element.  Yields the one list ``m``, refilled in place.
    """
    if p < 0:
        yield m
        return
    top = m[p + 1]
    for q in range(p + 1, top):
        if w[p] < w[q]:
            m[p] = q
            yield from _upsets(w, m, p - 1)
    m[p] = top
    yield from _upsets(w, m, p - 1)


def _spanned(w, m):
    """Whether every gap g|g+1 has a non-inversion p <= g < q with q < m[p].

    Such a pair lies strictly between its two hyperplanes, 0 < y_p - y_q < 1,
    which caps every gap it spans.  An uncapped gap g|g+1 is unbounded: only
    lower bounds span it, so the y at positions 0..g can all rise together.
    """
    far = 0  # the furthest q that a pair p <= g caps, over the rows so far
    for g in range(len(w) - 1):
        for q in range(m[g] - 1, g, -1):
            if w[g] < w[q]:
                far = max(far, q)
                break
        if far <= g:
            return False
    return True


def _regions(n):
    """Every region, labeled, from its (w, U) pair; n is not checked.

    Positions and coordinates are 0-based here.  For each permutation w
    (``w[p]`` is the coordinate at position p, ``pos`` its inverse), the
    k=0 sign of (i, j) is + iff pos(i) < pos(j); the k=1 sign is + iff,
    in addition, m[pos(i)] <= pos(j).  Each separating hyperplane adds 1 to
    one label entry, so l_a = 1 + #{b > a : x_b > x_a}
    + #{b < a : x_b - x_a > 1}, and ``bfs_depth`` = sum(label) - n is
    inv(w) plus the k=1 signs that are +.  Regions come out grouped by w,
    not in walk order.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for w in itertools.permutations(range(n)):
        pos = [0] * n
        for p, a in enumerate(w):
            pos[a] = p
        # The label before the k=1 crossings: l_a = 1 + #{b > a : x_b > x_a}.
        first = [1 + sum(pos[b] < pos[a] for b in range(a + 1, n)) for a in range(n)]
        # The k=0 signs are fixed by w; only a non-inversion's k=1 sign varies.
        fixed = []
        ascents = []  # (index of the k=1 sign, pos(i), pos(j), j)
        for i, j in pairs:
            if pos[i] < pos[j]:
                ascents.append((len(fixed) + 1, pos[i], pos[j], j))
                fixed += (1, -1)
            else:
                fixed += (-1, -1)
        for m in _upsets(w, [n] * n, n - 2):
            signs = fixed[:]
            label = first[:]
            for idx, p, q, j in ascents:
                if m[p] <= q:
                    signs[idx] = 1
                    label[j] += 1
            yield Region(
                SignVector._unchecked(n, tuple(signs)), tuple(label), _spanned(w, m),
                sum(label) - n,
            )


def enumerate_regions(n, force=False):
    """Every region, labeled, as a list ordered by depth, then sign string.

    Built by ``_regions`` from the (w, U) pairs of the module docstring, with
    no distance matrix, then sorted into the order of the walk ``_walk``:
    level by level, each level by sign string.  On a shared 2-core machine
    with Python 3.11 it takes 1.0 ms at n=4, 16 ms at n=5 and 0.27 s at n=6,
    about a quarter of the walk's time.  Guarded to n <= 6; a forced n=7
    takes about 5 s.
    """
    check_guard("enumerate_regions", n, 2, 6, force)
    # '+' sorts before '-', so ascending sign strings are descending sign
    # tuples; every region has its own key, so the reversal ties nothing.
    return sorted(
        _regions(n),
        key=lambda r: (-r.bfs_depth, r.sign_vector.signs),
        reverse=True,
    )


def verify_pak_stanley(n, force=False):
    """Check the labeling against the word predicates, exhaustively.

    True iff the labels are pairwise distinct, the label set is exactly the
    parking functions of length n, and the labels of the bounded regions are
    exactly the prime parking functions.  The regions of ``_regions`` are
    read unsorted as a stream, and no word set is built: each label must be
    new, of length n with entries in [n], and parking, and each bounded
    label must also be prime, both read from the sorted label by the core
    kernels.  The labels then form a subset of the parking functions, and
    the bounded ones a subset of the prime parking functions; a subset of a
    finite set with the same size is the whole set, so comparing the two
    sizes with the counts of ``count_parking_functions`` and
    ``count_prime_parking_functions`` settles both equalities.
    """
    check_guard("verify_pak_stanley", n, 2, 6, force)
    labels = set()
    bounded = 0
    for region in _regions(n):
        label = region.label
        q = sorted(label)
        if (
            label in labels
            or len(q) != n
            or q[0] < 1  # entries in [n]: q_n <= n is part of parking
            or not _parks_sorted(q)
            or region.bounded and not _prime_sorted(q)
        ):
            return False
        labels.add(label)
        bounded += region.bounded
    return (
        len(labels) == count_parking_functions(n, force=force).matching
        and bounded == count_prime_parking_functions(n, force=force).matching
    )
