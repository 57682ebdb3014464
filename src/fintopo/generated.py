"""Topologies induced along maps: inverse image, subspace, product,
direct image and quotient.

Each induced space is built from the minimal open sets U_x of the given
spaces and kept as its own (Topology.from_kernel), in O(n^2) per space.
"""

from itertools import product as iproduct
from math import prod

from .errors import NotEquivalence, UniverseMismatch
from .setops import FiniteMap, check_carrier, full_mask, mask_of, points_of
from .topology import Topology


def inverse_image_topology(n, pairs):
    """Coarsest topology on {0..n-1} making every map continuous.

    pairs is a list of (FiniteMap from the carrier, Topology on the
    map's target).  U_x is the intersection over the pairs of
    f^-1(U_f(x)), the least set holding x that makes each f continuous
    at x.
    """
    check_carrier(n)
    u = [full_mask(n)] * n
    for f, t in pairs:
        if f.n_src != n:
            raise UniverseMismatch("map does not start at the generated carrier")
        if f.n_dst != t.n:
            raise UniverseMismatch("map target does not match its topology")
        ut = t.minimal_opens
        u = [ux & f.preimage_mask(ut[y]) for ux, y in zip(u, f.images)]
    return Topology.from_kernel(n, u)


def subspace_topology(t, a_mask):
    """(relative topology re-indexed to {0..|A|-1}, point map).

    point_map[i] is the carrier point represented by subspace point i;
    the re-indexing is order preserving.  The relative topology is the
    inverse image along the inclusion, so A must lie in the carrier.
    """
    point_map = points_of(a_mask)
    k = len(point_map)
    return inverse_image_topology(k, [(FiniteMap(k, t.n, point_map), t)]), point_map


def product_points(sizes):
    """The coordinate tuples of the product of carriers of the given
    sizes in row-major order, once the product's size is a carrier."""
    check_carrier(prod(sizes))
    return list(iproduct(*[range(s) for s in sizes]))


def product_projections(sizes):
    """The projection maps from the flattened product carrier."""
    points = product_points(sizes)
    return [FiniteMap(len(points), s, [pt[i] for pt in points]) for i, s in enumerate(sizes)]


def product_topology(topologies):
    """(product topology on the row-major flattened carrier, projections)."""
    projs = product_projections([t.n for t in topologies])
    t = inverse_image_topology(prod(t.n for t in topologies), list(zip(projs, topologies)))
    return t, projs


def direct_image_topology(n, pairs):
    """Finest topology on {0..n-1} making every map continuous.

    pairs is a list of (FiniteMap into the carrier, Topology on the
    map's source); opens are the sets whose every preimage is open.
    A set B is such iff it holds f[U_x] whenever it holds f(x), so
    U'_y is the reflexive-transitive closure of y -> f[U_x] over the
    x with f(x) = y, closed here by Warshall's rule on bit rows.
    """
    check_carrier(n)
    u = [1 << y for y in range(n)]
    for f, t in pairs:
        if f.n_dst != n:
            raise UniverseMismatch("map does not end at the generated carrier")
        if f.n_src != t.n:
            raise UniverseMismatch("map source does not match its topology")
        for y, ux in zip(f.images, t.minimal_opens):
            u[y] |= f.image_mask(ux)
    for k in range(n):
        bit, uk = 1 << k, u[k]
        u = [uy | uk if uy & bit else uy for uy in u]
    return Topology.from_kernel(n, u)


def validate_equivalence(n, rows):
    """rows[i] = mask of points related to i; checks the equivalence
    axioms and returns the classes sorted by least element."""
    if len(rows) != n:
        raise UniverseMismatch("need one relation row per point")
    for i in range(n):
        if not rows[i] >> i & 1:
            raise NotEquivalence("relation not reflexive at %d" % i)
        for j in points_of(rows[i]):
            if not rows[j] >> i & 1:
                raise NotEquivalence("relation not symmetric at (%d, %d)" % (i, j))
            if rows[j] & ~rows[i]:
                raise NotEquivalence("relation not transitive at (%d, %d)" % (i, j))
    classes = sorted(set(rows))
    return classes


def class_map(n, rows):
    """The map sending each point to the index of its class."""
    classes = validate_equivalence(n, rows)
    index = {c: k for k, c in enumerate(classes)}
    return FiniteMap(n, len(classes), [index[rows[x]] for x in range(n)]), classes


def quotient_topology(t, rows):
    """(quotient topology on the classes, class map, classes)."""
    q, classes = class_map(t.n, rows)
    qt = direct_image_topology(q.n_dst, [(q, t)])
    return qt, q, classes


def rows_from_partition(n, blocks):
    """Equivalence rows from a partition given as a list of point lists."""
    rows = [0] * n
    seen = 0
    for block in blocks:
        m = mask_of(block, n)
        if m & seen:
            raise NotEquivalence("partition blocks overlap")
        seen |= m
        for p in block:
            rows[p] = m
    if seen != full_mask(n):
        raise NotEquivalence("partition does not cover the carrier")
    return rows
