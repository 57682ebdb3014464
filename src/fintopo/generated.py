"""Topologies induced along maps: inverse image, subspace, product,
direct image, quotient, and universal-property verification."""

from itertools import product as iproduct

from .errors import CapExceeded, NotEquivalence, UniverseMismatch
from .setops import FiniteMap, SetSystem, full_mask, identity_map, points_of
from .topology import Topology, indiscrete_topology, enumerate_topologies, generated_topology


def inverse_image_topology(n, pairs):
    """Coarsest topology on {0..n-1} making every map continuous.

    pairs is a list of (FiniteMap from the carrier, Topology on the
    map's target).  Generated by the subbase of all preimages of opens.
    """
    subbase = {0, full_mask(n)}
    for f, t in pairs:
        if f.n_src != n:
            raise UniverseMismatch("map does not start at the generated carrier")
        if f.n_dst != t.n:
            raise UniverseMismatch("map target does not match its topology")
        for o in t.opens:
            subbase.add(f.preimage_mask(o))
    return generated_topology(SetSystem(n, subbase))


def supremum_topology(topologies):
    """Coarsest topology finer than all the given ones."""
    if not topologies:
        raise UniverseMismatch("need at least one topology")
    n = topologies[0].n
    return inverse_image_topology(n, [(identity_map(n), t) for t in topologies])


def infimum_topology(topologies):
    """Finest topology coarser than all the given ones: the intersection."""
    if not topologies:
        raise UniverseMismatch("need at least one topology")
    n = topologies[0].n
    return direct_image_topology(n, [(identity_map(n), t) for t in topologies])


def subspace_topology(t, a_mask):
    """(relative topology re-indexed to {0..|A|-1}, point map).

    point_map[i] is the carrier point represented by subspace point i;
    the re-indexing is order preserving.
    """
    point_map = points_of(a_mask)
    k = len(point_map)
    back = {p: i for i, p in enumerate(point_map)}
    opens = set()
    for o in t.opens:
        m = 0
        for p in points_of(o & a_mask):
            m |= 1 << back[p]
        opens.add(m)
    return Topology(k, opens, validate=False), point_map


def product_point_index(coords, sizes):
    """Row-major flattening of a coordinate tuple."""
    idx = 0
    for c, s in zip(coords, sizes):
        idx = idx * s + c
    return idx


def product_projections(sizes):
    """The projection maps from the flattened product carrier."""
    total = 1
    for s in sizes:
        total *= s
    if total > 20:
        raise CapExceeded("product carrier exceeds 20 points")
    points = list(iproduct(*[range(s) for s in sizes]))
    projs = []
    for i in range(len(sizes)):
        projs.append(FiniteMap(total, sizes[i], [pt[i] for pt in points]))
    return projs


def product_topology(topologies):
    """(product topology on the row-major flattened carrier, projections)."""
    sizes = [t.n for t in topologies]
    projs = product_projections(sizes)
    total = projs[0].n_src if projs else 1
    t = inverse_image_topology(total, list(zip(projs, topologies)))
    return t, projs


def pointwise_convergence_topology(domain_size, target):
    """Topology of pointwise convergence on the finite function space
    target^domain: the product of domain_size copies of the target."""
    t, projs = product_topology([target] * domain_size)
    return t, projs


def direct_image_topology(n, pairs):
    """Finest topology on {0..n-1} making every map continuous.

    pairs is a list of (FiniteMap into the carrier, Topology on the
    map's source); opens are the sets whose every preimage is open.
    """
    for f, t in pairs:
        if f.n_dst != n:
            raise UniverseMismatch("map does not end at the generated carrier")
        if f.n_src != t.n:
            raise UniverseMismatch("map source does not match its topology")
    opens = [b for b in range(1 << n)
             if all(f.preimage_mask(b) in t.opens for f, t in pairs)]
    return Topology(n, opens, validate=False)


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
        m = 0
        for p in block:
            if not 0 <= p < n:
                raise UniverseMismatch("point %d outside carrier of size %d" % (p, n))
            m |= 1 << p
        if m & seen:
            raise NotEquivalence("partition blocks overlap")
        seen |= m
        for p in block:
            rows[p] = m
    if seen != full_mask(n):
        raise NotEquivalence("partition does not cover the carrier")
    return rows


def _all_maps(n_src, n_dst):
    for images in iproduct(range(n_dst), repeat=n_src):
        yield FiniteMap(n_src, n_dst, images)


def check_universal_property(n, pairs, candidate, direction):
    """Verify that candidate is the generated topology by its mapping
    property, quantifying over all test spaces with at most 3 points
    and all maps.  Returns (True, None) or (False, (test_topology, g)).

    inverse: g into the carrier is continuous iff every f_i . g is.
    direct: g out of the carrier is continuous iff every g . f_i is.
    """
    from .continuity import SpaceMap, is_continuous
    if candidate.n != n:
        raise UniverseMismatch("candidate lives on the wrong carrier")
    if direction not in ('inverse', 'direct'):
        raise ValueError("direction must be 'inverse' or 'direct'")
    if n > 20:
        raise CapExceeded("carrier too large")
    for size in range(1, 4):
        for tz in enumerate_topologies(size):
            if direction == 'inverse':
                for g in _all_maps(size, n):
                    lhs = is_continuous(SpaceMap(tz, candidate, g))
                    rhs = all(is_continuous(SpaceMap(tz, t, f.compose(g)))
                              for f, t in pairs)
                    if lhs != rhs:
                        return False, (tz, g)
            else:
                for g in _all_maps(n, size):
                    lhs = is_continuous(SpaceMap(candidate, tz, g))
                    rhs = all(is_continuous(SpaceMap(t, tz, g.compose(f)))
                              for f, t in pairs)
                    if lhs != rhs:
                        return False, (tz, g)
    return True, None
