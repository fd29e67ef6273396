"""Regions of the Shi arrangement, Pak-Stanley labels, and boundedness.

The arrangement consists of the hyperplanes x_i - x_j = k for
1 <= i < j <= n and k in {0, 1}.  A region (open chamber) is encoded by its
sign vector: one + or - per hyperplane, + meaning x_i - x_j > k.  The base
chamber x_1 > x_2 > ... > x_n, with all pairwise differences below 1, is
labeled (1, ..., 1), and each hyperplane that separates a region from it
adds 1 to one coordinate of the region's Pak-Stanley label: x_i = x_j adds
1 to coordinate i, x_i = x_j + 1 adds 1 to coordinate j.  The labels
enumerate the parking functions, with prime parking functions on the
regions that are bounded modulo the all-equal line x_1 = ... = x_n
(Stanley, PNAS 93, 1996).

One combinatorial engine answers every question, with no distance matrix
(Athanasiadis-Linusson, Discrete Math. 204, 1999; Shi, LNM 1179, 1986).  A
region orders its coordinates, y_1 > ... > y_n with y_p = x_{w(p)} for a
permutation w, and only a non-inversion pair of positions p < q, one with
w(p) < w(q), can lie on either side of its k=1 hyperplane.  The pairs with
y_p - y_q > 1 form an up-set U of the staircase of pairs p < q, and any
up-set occurs for every w; the region is w with U ∩ noninv(w), and it has
exactly one U whose minimal elements are all non-inversions.

``_encode`` reads a region's signs, label and boundedness off its (w, U) in
one pass, and both directions use it.  ``_regions`` encodes every pair, for
``enumerate_regions``, ``verify_pak_stanley`` and ``parkfunc shi``.
``_decode`` reads the pair off any sign vector and keeps it iff it encodes
back to that vector, so ``is_feasible``, ``is_bounded`` and
``feasible_point`` answer for one sign vector in O(n^2) without listing the
arrangement.  The tests hold both directions to a breadth-first
wall-crossing walk on integer difference constraints, in
``tests/shi_walk.py``.  Everything is exact: ``fractions.Fraction`` appears
only in the witness points.  No floats.
"""

import itertools
from typing import NamedTuple

from .core import _parks_sorted, _prime_sorted
from .enumeration import count_parking_functions, count_prime_parking_functions
from .errors import check_guard, check_int


class Hyperplane(NamedTuple):
    """The hyperplane x_i - x_j = k (1-based, i < j, k in {0, 1})."""

    i: int
    j: int
    k: int


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


class _SignFields(NamedTuple):
    n: int
    signs: tuple


class SignVector(_SignFields):
    """A total assignment of sides, one per hyperplane of the arrangement.

    ``signs[h]`` is +1 when the region lies on the x_i - x_j > k side of the
    h-th hyperplane of ``hyperplanes(n)`` and -1 otherwise.  Construction
    checks both fields; ``_make`` and ``_replace`` do not, and an unchecked
    vector with the wrong number of signs decodes to no region.
    """

    __slots__ = ()

    def __new__(cls, n, signs):
        check_int(n, 2, "n", "the arrangement needs n >= 2")
        # A list would pass every other check and then fail to hash.
        if not isinstance(signs, tuple):
            raise ValueError(f"signs must be a tuple, got {type(signs).__name__}")
        if len(signs) != n * (n - 1):
            raise ValueError(f"expected {n * (n - 1)} signs, got {len(signs)}")
        # Compared by value, 1.0 and True would pass as 1; the types keep them out.
        if not set(signs) <= {1, -1} or not set(map(type, signs)) <= {int}:
            raise ValueError("signs must be the ints +1 or -1")
        return tuple.__new__(cls, (n, signs))

    def as_string(self):
        return _sign_string(self.signs)

    @classmethod
    def from_string(cls, n, text):
        if not isinstance(text, str):
            raise ValueError(f"sign string must be a str, got {type(text).__name__}")
        if set(text) - {"+", "-"}:
            raise ValueError("sign string may contain only + and -")
        return cls(n, tuple(1 if c == "+" else -1 for c in text))


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
    """Whether the strict difference constraints admit a point (no negative cycle).

    No library code calls it; ``bench/tracer.py`` patches it by name.
    """
    return _distances(n, edges) is not None


def _decode(n, signs):
    """The region's (w, m) and boundedness flag, or None if it is empty.

    Coordinates and positions are 0-based; ``w[p]`` is the coordinate at
    position p, and ``m[p]`` the smallest q with (p, q) in the canonical
    up-set U, or n, as ``_regions`` builds them.  The k=0 signs order the
    coordinates iff the counts above[a] = #{b : x_b > x_a} are a permutation
    of 0..n-1; a is then at position above[a].  U is the up-closure of the
    non-inversions whose k=1 sign is +: y_p - y_q > 1 forces it on every
    (p', q') with p' <= p < q <= q'.  The signs give a region iff ``_encode``
    gives them back from (w, m).  O(n^2); n is not checked.
    """
    pairs = list(itertools.combinations(range(n), 2))
    above = [0] * n
    for (i, j), s in zip(pairs, signs[::2]):  # the k=0 signs
        above[j if s > 0 else i] += 1
    if len(set(above)) < n:
        return None
    w = sorted(range(n), key=above.__getitem__)
    frame = [(i, j, above[i], above[j]) for i, j in pairs]
    m = [n] * n
    for (i, j, p, q), t in zip(frame, signs[1::2]):  # the k=1 signs
        if t > 0 and p < q < m[p]:
            m[p] = q
    for p in range(n - 2, -1, -1):
        if m[p + 1] < m[p]:
            m[p] = m[p + 1]
    encoded, _, bounded = _encode(n, frame, m)
    return (w, m, bounded) if encoded == signs else None


def is_feasible(sv):
    """Whether the sign vector's open polyhedron is nonempty (exact)."""
    return _decode(sv.n, sv.signs) is not None


def feasible_point(sv):
    """An exact rational point inside the region, or None if it is empty.

    With (w, m) from ``_decode`` and y_p = x_{w[p]}, the region holds every
    point with y_0 > ... > y_{n-1} and y_p - y_q > 1 exactly when
    q >= m[p].  Given the y after position p, that asks
    y_p > lo = max(y_{p+1}, y_{m[p]} + 1) and, when m[p] > p + 1, also
    y_p < hi = y_{m[p]-1} + 1.  The interval is never empty: m is
    non-decreasing, so (p+1, m[p]-1) is not in U and y_{p+1} < hi.  So
    y_{n-1} = 0, and each y_p is the midpoint of (lo, hi), or lo + 1 when
    there is no hi.
    """
    from fractions import Fraction  # imported here to keep it out of CLI start-up

    decoded = _decode(sv.n, sv.signs)
    if decoded is None:
        return None
    w, m, _ = decoded
    n = sv.n
    y = [Fraction(0)] * n
    for p in range(n - 2, -1, -1):
        lo = y[p + 1] if m[p] == n else max(y[p + 1], y[m[p]] + 1)
        hi = lo + 2 if m[p] == p + 1 else y[m[p] - 1] + 1
        y[p] = (lo + hi) / 2
    point = [None] * n
    for p, a in enumerate(w):
        point[a] = y[p]
    return tuple(point)


def base_region(n):
    """The chamber x_1 > x_2 > ... > x_n with every x_i - x_j below 1.

    Equivalently: sign + on every x_i = x_j hyperplane and sign - on every
    x_i = x_j + 1 hyperplane.  It carries the label (1, ..., 1) and contains
    the point with x_i = (n - i)/n.
    """
    return SignVector(n, tuple(1 if hp.k == 0 else -1 for hp in hyperplanes(n)))


class Region(NamedTuple):
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

    Accepts a ``SignVector`` or a ``Region``; the answer is the flag that
    ``_decode`` reads off ``_encode``.  An empty region has no recession
    cone to ask about, so it raises ``ValueError``.
    """
    sv = region.sign_vector if isinstance(region, Region) else region
    decoded = _decode(sv.n, sv.signs)
    if decoded is None:
        raise ValueError(f"region {sv.as_string()} (n={sv.n}) is empty")
    return decoded[2]


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


def _encode(n, frame, m):
    """The signs, Pak-Stanley label and boundedness of the region (w, m).

    ``frame`` lists (i, j, pos(i), pos(j)) for each pair i < j of 0-based
    coordinates, in the order of ``hyperplanes(n)``, with pos = w^-1.  The
    k=0 sign of (i, j) is + iff p = pos(i) < q = pos(j), and the k=1 sign is
    + iff, in addition, m[p] <= q.  Each hyperplane that separates the
    region from the base chamber adds 1 to one label entry: an inversion
    x_j > x_i to l_i, a pair with x_i - x_j > 1 to l_j.  So
    l_a = 1 + #{b > a : x_b > x_a} + #{b < a : x_b - x_a > 1}.  A
    non-inversion with q < m[p] lies strictly between its two hyperplanes,
    0 < y_p - y_q < 1, which caps every gap g|g+1 with p <= g < q.  The
    region is bounded iff every gap is capped: an uncapped gap is spanned
    only by lower bounds, so the y at positions 0..g can all rise together.
    """
    signs = []
    label = [1] * n
    reach = [0] * n  # reach[p]: the furthest q that a pair at p caps
    for i, j, p, q in frame:
        if q < p:
            signs += (-1, -1)
            label[i] += 1
        elif m[p] <= q:
            signs += (1, 1)
            label[j] += 1
        else:
            signs += (1, -1)
            if q > reach[p]:
                reach[p] = q
    far = 0
    for g in range(n - 1):
        if reach[g] > far:
            far = reach[g]
        if far <= g:
            return tuple(signs), tuple(label), False
    return tuple(signs), tuple(label), True


def _regions(n):
    """Every region, labeled, from its (w, U) pair; n is not checked.

    Positions and coordinates are 0-based here.  For each permutation w
    (``w[p]`` is the coordinate at position p, ``pos`` its inverse) and each
    canonical up-set of ``_upsets``, ``_encode`` gives the signs, the label
    and the boundedness flag; ``bfs_depth`` = sum(label) - n is inv(w) plus
    the k=1 signs that are +.  Regions come out grouped by w, not in walk
    order.
    """
    pairs = list(itertools.combinations(range(n), 2))
    for w in itertools.permutations(range(n)):
        pos = sorted(range(n), key=w.__getitem__)
        frame = [(i, j, pos[i], pos[j]) for i, j in pairs]
        for m in _upsets(w, [n] * n, n - 2):
            signs, label, bounded = _encode(n, frame, m)
            yield Region(SignVector._make((n, signs)), label, bounded, sum(label) - n)


def enumerate_regions(n, force=False):
    """Every region, labeled, as a list ordered by depth, then sign string.

    Built by ``_regions`` from the (w, U) pairs of the module docstring, with
    no distance matrix, then sorted into the order of the wall-crossing walk
    in ``tests/shi_walk.py``: level by level, each level by sign string.  On
    a shared 2-core Intel Xeon with Python 3.11.7, over repeated runs, it took
    0.42-0.73 ms at n=4, 5.5-8.6 ms at n=5 and 0.10-0.12 s at n=6.  Guarded to
    n <= 6; a forced n=7 took 2.4 s, in a process that peaked at 202 MB.
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
    ``count_prime_parking_functions`` settles both equalities.  Guarded to
    n <= 6.
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
