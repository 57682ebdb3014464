"""Finite preorders and the interval topology.

A preorder comes in two flavours: 'strict' (transitive, irreflexive,
like <) and 'reflexive' (transitive and reflexive, like <=).  Lower and
upper segments are written ]-inf,x[ = {y : y rel x} and
]x,inf[ = {y : x rel y}; in the reflexive flavour a point may belong to
its own segments.  A preorder keeps both: succ[x] is ]x,inf[ and
pred[x], the transpose, is ]-inf,x[.
"""

from operator import and_, or_

from .errors import (InputError, MissingFullDomain, MissingFullRange, NoFullField,
                     NotDirected, UniverseMismatch)
from .generated import product_points
from .setops import SetSystem, check_carrier, full_mask, intransitive_pair, points_of, psi
from .topology import generate_from_subbase, point_closures


class Preorder:
    __slots__ = ('n', 'succ', 'pred', 'flavor')

    def __init__(self, n, pairs, flavor):
        """Raises CapExceeded unless 0 <= n <= MAX_N."""
        if flavor not in ('strict', 'reflexive'):
            raise InputError("flavor must be 'strict' or 'reflexive'")
        check_carrier(n)
        succ = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise UniverseMismatch("pair (%d, %d) outside carrier of size %d" % (i, j, n))
            succ[i] |= 1 << j
        if flavor == 'reflexive':
            for i in range(n):
                if not succ[i] >> i & 1:
                    raise NotDirected("reflexive flavor requires %d rel %d" % (i, i))
        else:
            for i in range(n):
                if succ[i] >> i & 1:
                    raise NotDirected("strict flavor forbids %d rel %d" % (i, i))
        pair = intransitive_pair(succ)
        if pair is not None:
            raise NotDirected("relation not transitive at (%d, %d)" % pair)
        self.n = n
        self.succ = tuple(succ)
        self.pred = point_closures(succ)
        self.flavor = flavor

    def rel(self, i, j):
        return bool(self.succ[i] >> j & 1)

    def __repr__(self):
        return 'Preorder(%d, %s)' % (self.n, self.flavor)

    def lower_segments(self):
        """The system of lower segments together with the empty set."""
        return SetSystem(self.n, (0,) + self.pred)

    def upper_segments(self):
        return SetSystem(self.n, (0,) + self.succ)


def has_full_domain(p):
    """Every point is below something."""
    return all(p.succ)


def has_full_range(p):
    """Every point is above something."""
    return all(p.pred)


def has_full_field(p):
    return all(s | t for s, t in zip(p.succ, p.pred))


def is_connective(p):
    """Any two distinct points are comparable."""
    return all(p.rel(x, y) or p.rel(y, x)
               for x in range(p.n) for y in range(p.n) if x != y)


def has_interval_intersection_property(p):
    """Lower and upper segment systems (with the empty set) are fixed
    points of the finite-intersection operator: on each side, the meet
    of any two segments is empty or a segment."""
    return _pairwise_closed(p.pred, and_, {0}) and _pairwise_closed(p.succ, and_, {0})


def _pairwise_closed(segs, op, extra):
    """Whether op of any two of the segments is a segment or in extra."""
    members = set(segs) | extra
    return all(op(s, t) in members for i, s in enumerate(segs) for t in segs[i + 1:])


def is_interval_relation(p):
    return (has_interval_intersection_property(p)
            and has_full_domain(p) and has_full_range(p))


def has_lub_property(p):
    """Every nonempty subset with an upper bound has a least upper bound:
    the nonempty upper-bound sets are the nonempty members of psi of the
    up-sets succ[a] | {a}, and each needs one of its points below all of them."""
    ups = [s | 1 << a for a, s in enumerate(p.succ)]
    return all(any(m & ~ups[x] == 0 for x in points_of(m))
               for m in psi(SetSystem(p.n, ups)) if m)


def relation_properties(p):
    return {
        'transitive': True,  # enforced at construction
        'reflexive': p.flavor == 'reflexive',
        'connective': is_connective(p),
        'full-domain': has_full_domain(p),
        'full-range': has_full_range(p),
        'full-field': has_full_field(p),
        'interval-intersection': has_interval_intersection_property(p),
        'interval-relation': is_interval_relation(p),
        'lub-property': has_lub_property(p),
    }


def interval_topology(p):
    """Generated by the subbase of all lower and upper segments plus
    the empty set.  Requires full field (so the segments cover X)."""
    if not has_full_field(p):
        raise NoFullField("some point is comparable to nothing")
    return generate_from_subbase(SetSystem(p.n, (0,) + p.pred + p.succ))


def pullback_preorder(p, f):
    """The preorder induced along a map: x below y iff f(x) below f(y)."""
    pairs = [(x, y) for x in range(f.n_src) for y in range(f.n_src)
             if p.rel(f(x), f(y))]
    return Preorder(f.n_src, pairs, p.flavor)


def one_sided_topology(p, side):
    """Topology of lower (resp. upper) segments plus the empty set.

    The lower side needs full domain so the lower segments cover X; the
    upper side needs full range.
    """
    if side == 'lower':
        if not has_full_domain(p):
            raise MissingFullDomain("a point with empty upper segment breaks the cover")
        segs = p.lower_segments()
    elif side == 'upper':
        if not has_full_range(p):
            raise MissingFullRange("a point with empty lower segment breaks the cover")
        segs = p.upper_segments()
    else:
        raise ValueError("side must be 'lower' or 'upper'")
    return generate_from_subbase(segs)


def segment_system_is_topology(p, side):
    """Whether the one-sided segment system plus {empty, X} is already
    union-closed (hence a topology): the union of any two segments is a
    segment, empty or X.  True for total orders with the
    least-upper-bound property."""
    segs = p.pred if side == 'lower' else p.succ
    return _pairwise_closed(segs, or_, {0, full_mask(p.n)})


def product_preorder(ps):
    """Componentwise comparison on the row-major flattened product."""
    points = product_points([p.n for p in ps])
    flavor = ps[0].flavor if ps else 'strict'
    pairs = []
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i == j:
                continue
            if all(p.rel(x, y) or x == y for p, x, y in zip(ps, a, b)) \
                    and any(p.rel(x, y) for p, x, y in zip(ps, a, b)):
                pairs.append((i, j))
    if flavor == 'reflexive':
        pairs += [(i, i) for i in range(len(points))]
    return Preorder(len(points), pairs, flavor)
