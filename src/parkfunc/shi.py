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
exactly one U whose minimal elements are all non-inversions.  Each
separating hyperplane counts once, so the label is read off directly, and
so is boundedness.

``_regions`` builds every region from its (w, U) pair; ``enumerate_regions``,
``verify_pak_stanley`` and ``parkfunc shi``, in text and in JSON, take it.
``_decode`` goes the other way: it reads the pair off any sign vector, or
finds that there is none, so ``is_feasible``, ``is_bounded`` and
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
    checks both fields; ``_make`` and ``_replace`` do not.
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
    """The region's (w, m), as ``_regions`` builds them, or None if it is empty.

    Coordinates and positions are 0-based; ``w[p]`` is the coordinate at
    position p, and ``m[p]`` the smallest q with (p, q) in the canonical
    up-set U, or n.  The k=0 signs order the coordinates iff the counts
    above[a] = #{b : x_b > x_a} are a permutation of 0..n-1; a is then at
    position above[a].  U is the up-closure of the non-inversions whose k=1
    sign is +: y_p - y_q > 1 forces it on every (p', q') with
    p' <= p < q <= q'.  The signs give a region iff each k=1 sign is the one
    ``_regions`` gives (w, U): + iff the pair is a non-inversion in U.
    O(n^2); n is not checked.
    """
    pairs = list(itertools.combinations(range(n), 2))
    order, apart = signs[::2], signs[1::2]  # the k=0 and k=1 signs
    above = [0] * n
    for (i, j), s in zip(pairs, order):
        above[j if s > 0 else i] += 1
    if len(set(above)) < n:
        return None
    w = [0] * n
    for a, p in enumerate(above):
        w[p] = a
    m = [n] * n
    for (i, j), s, t in zip(pairs, order, apart):
        if s > 0 and t > 0 and above[j] < m[above[i]]:
            m[above[i]] = above[j]
    for p in range(n - 2, -1, -1):
        if m[p + 1] < m[p]:
            m[p] = m[p + 1]
    for (i, j), s, t in zip(pairs, order, apart):
        if (t > 0) != (s > 0 and m[above[i]] <= above[j]):
            return None
    return w, m


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
    w, m = decoded
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

    Accepts a ``SignVector`` or a ``Region``; the test is ``_spanned`` on
    the region's (w, m) from ``_decode``.  An empty region has no recession
    cone to ask about, so it raises ``ValueError``.
    """
    sv = region.sign_vector if isinstance(region, Region) else region
    decoded = _decode(sv.n, sv.signs)
    if decoded is None:
        raise ValueError(f"region {sv.as_string()} (n={sv.n}) is empty")
    return _spanned(*decoded)


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
                SignVector._make((n, tuple(signs))), tuple(label), _spanned(w, m),
                sum(label) - n,
            )


def enumerate_regions(n, force=False):
    """Every region, labeled, as a list ordered by depth, then sign string.

    Built by ``_regions`` from the (w, U) pairs of the module docstring, with
    no distance matrix, then sorted into the order of the wall-crossing walk
    in ``tests/shi_walk.py``: level by level, each level by sign string.  On
    a shared 2-core Intel Xeon with Python 3.11.7, over repeated runs, it took
    0.56-1.4 ms at n=4, 7.1-11 ms at n=5 and 0.12-0.22 s at n=6.  Guarded to
    n <= 6; a forced n=7 took 2.8 s, in a process that peaked at 202 MB.
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
