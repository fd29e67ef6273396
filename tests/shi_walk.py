"""The wall-crossing walk: the reference for the regions of ``parkfunc.shi``.

Starting from the base chamber, labeled (1, ..., 1), a breadth-first walk
across walls assigns each region its Pak-Stanley label, by the bump rule in
``parkfunc.shi``'s module docstring.  ``tests/test_shi.py`` holds both
directions of the library's one encoder, ``shi._encode``, to it:
``enumerate_regions`` region for region, and the decoder behind
``is_feasible`` and ``is_bounded`` on every single flip of every region.

The walk follows the definition.  Every side of every hyperplane is an
integer difference constraint x_v - x_u < c, so the geometry is shortest
paths on a weighted digraph with one edge u -> v per hyperplane (CLRS 24.4,
"Difference constraints and shortest paths").  The strict constraint gets
the integer weight c*(n+1) - 1: a simple cycle has at most n edges, so the
scaled cycle weight is negative exactly when the cycle's constants sum to
at most 0, which is exactly when the strict system is empty.  One distance
matrix per region, from ``shi._distances``, gives its walls and its
boundedness.  All distances are plain ints.  The library keeps
``_distances`` for this walk and for ``shi.satisfiable``, which takes an
edge list and which only ``bench/tracer.py`` names.
"""

from parkfunc.errors import InvariantError
from parkfunc.shi import (
    Region,
    SignVector,
    _distances,
    _sign_string,
    base_region,
    hyperplanes,
)


def _edges(n, signs, hps):
    """The region's difference constraints, one edge (u, v, w) per hyperplane.

    ``hps`` is ``hyperplanes(n)``.  Vertices are 0-based coordinates.  The
    + side x_i - x_j > k is x_j - x_i < -k, the edge i -> j; the - side
    x_i - x_j < k is the edge j -> i.  Either way the weight is the scaled
    constant c*(n+1) - 1.
    """
    scale = n + 1
    return [
        (hp.i - 1, hp.j - 1, -hp.k * scale - 1) if s > 0
        else (hp.j - 1, hp.i - 1, hp.k * scale - 1)
        for hp, s in zip(hps, signs)
    ]


def _walls(n, signs, hps):
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
    edges = _edges(n, signs, hps)
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


def _walk(n):
    """All regions of the arrangement, labeled, by breadth-first wall crossing.

    Neighbors of a region lie across its walls; a crossing flips exactly one
    sign, and on first discovery the new region receives its parent's label
    with one coordinate bumped (the rule in ``parkfunc.shi``).  Levels are
    expanded in lexicographic order of the sign strings, so the output
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
            walls, bounded = _walls(n, signs, hps)
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
