"""Regions of the Shi arrangement, Pak-Stanley labels, and boundedness.

The arrangement consists of the hyperplanes x_i - x_j = k for
1 <= i < j <= n and k in {0, 1}.  A region (open chamber) is encoded by its
sign vector: one + or - per hyperplane, + meaning x_i - x_j > k.  Starting
from the base chamber x_1 > x_2 > ... > x_n with all pairwise differences
below 1, labeled (1, ..., 1), a breadth-first walk across walls assigns each
region its Pak-Stanley label: crossing x_i = x_j away from the base chamber
adds 1 to coordinate i, crossing x_i = x_j + 1 adds 1 to coordinate j.  The
labels enumerate the parking functions, with prime parking functions on the
regions that are bounded modulo the all-equal line x_1 = ... = x_n.

Every side of every hyperplane is an integer difference constraint
x_v - x_u < c, so the geometry is shortest paths on a weighted digraph with
one edge u -> v per hyperplane (CLRS 24.4, "Difference constraints and
shortest paths").  The strict constraint gets the integer weight
c*(n+1) - 1: a simple cycle has at most n edges, so the scaled cycle weight
is negative exactly when the cycle's constants sum to at most 0, which is
exactly when the strict system is empty.  One distance matrix per region
gives its walls and its boundedness, and the walk streams the regions level
by level.  All distances are plain ints; ``fractions.Fraction`` appears only
in the witness points.  No floats.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import is_parking_function, is_prime_parking_function
from .enumeration import count_parking_functions, count_prime_parking_functions
from .errors import InvariantError, check_guard


class Hyperplane(NamedTuple):
    """The hyperplane x_i - x_j = k (1-based, i < j, k in {0, 1})."""

    i: int
    j: int
    k: int


@lru_cache(maxsize=None)
def hyperplanes(n):
    """All 2*C(n,2) hyperplanes, ordered lexicographically by (i, j, k)."""
    if n < 2:
        raise ValueError("the arrangement needs n >= 2")
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
        if len(self.signs) != self.n * (self.n - 1):
            raise ValueError(
                f"expected {self.n * (self.n - 1)} signs, got {len(self.signs)}"
            )
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

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


def iter_regions(n, force=False):
    """All regions of the arrangement, labeled, by breadth-first wall crossing.

    Neighbors of a region lie across its walls; a crossing flips exactly one
    sign, and on first discovery the new region receives its parent's label
    with one coordinate bumped (the rule in the module docstring).  Levels
    are expanded in lexicographic order of the sign strings, so the output
    order is reproducible.  Each region is yielded as soon as its distance
    matrix is read, and the walk keeps only the previous, current and next
    levels: a region's depth is the number of hyperplanes separating it
    from the base chamber, so a crossing changes the depth by exactly 1.
    n is checked here, before the first region.  Guarded to n <= 6: each
    region costs one O(n^3) distance matrix, so n=6 (16,807 regions) takes
    about a second, while n=7 (262,144 regions, at most 34,230 in one
    level) takes about half a minute and needs ``force=True``.
    """
    check_guard("iter_regions", n, 2, 6, force)
    return _walk(n)


def _walk(n):
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


def enumerate_regions(n, force=False):
    """The regions of ``iter_regions(n, force)``, as a list."""
    return list(iter_regions(n, force))


def verify_pak_stanley(n, force=False):
    """Check the labeling against the word predicates, exhaustively.

    True iff the labels are pairwise distinct, the label set is exactly the
    parking functions of length n, and the labels of the bounded regions are
    exactly the prime parking functions.  The regions are read as a stream,
    and no word set is built: each label must be new, lie in [n]^n and pass
    ``is_parking_function``, and each bounded label must also pass
    ``is_prime_parking_function``.  The labels then form a subset of the
    parking functions, and the bounded ones a subset of the prime parking
    functions; a subset of a finite set with the same size is the whole
    set, so comparing the two sizes with the orbit counts of
    ``count_parking_functions`` and ``count_prime_parking_functions``
    settles both equalities.
    """
    check_guard("verify_pak_stanley", n, 2, 6, force)
    labels = set()
    bounded = 0
    for region in iter_regions(n, force=force):
        label = region.label
        if (
            label in labels
            or len(label) != n
            or not all(1 <= x <= n for x in label)
            or not is_parking_function(label)
        ):
            return False
        if region.bounded and not is_prime_parking_function(label):
            return False
        labels.add(label)
        bounded += region.bounded
    return (
        len(labels) == count_parking_functions(n, force=force).matching
        and bounded == count_prime_parking_functions(n, force=force).matching
    )
