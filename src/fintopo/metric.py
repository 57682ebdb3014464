"""Exact rational pseudo-metrics on finite carriers.

Distances are fractions.Fraction values; everything downstream
(sphere bases, generated topologies, quotients) is exact, so no
tolerance appears anywhere.
"""

from fractions import Fraction
from math import lcm

from .errors import EmptyArgument, InvalidMetric, UniverseMismatch
from .generated import class_map
from .setops import SetSystem, mask_of, points_of
from .topology import Topology, kernel_of


def validate_pseudometric(matrix):
    """('pseudo' | 'metric', None) or ('invalid', (reason, witness)).

    Checks non-negativity, zero diagonal, symmetry, and the triangle
    inequality; 'metric' additionally means distinct points have
    positive distance.  The entries (ints, Fractions or floats) are
    decided exactly, as ints on their common denominator.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            return 'invalid', ('square', None)
    ratios = [[v.as_integer_ratio() for v in row] for row in matrix]
    den = lcm(*(q for row in ratios for _, q in row))
    d = [[p * (den // q) for p, q in row] for row in ratios]
    for x, row in enumerate(d):
        if row[x] != 0:
            return 'invalid', ('zero-diagonal', x)
        for y, v in enumerate(row):
            if v < 0:
                return 'invalid', ('non-negative', (x, y))
            if v != d[y][x]:
                return 'invalid', ('symmetry', (x, y))
    for x, row in enumerate(d):
        for y, v in enumerate(row):
            for z, w in enumerate(d[y]):
                if row[z] > v + w:
                    return 'invalid', ('triangle', (x, y, z))
    metric = all(v > 0 for x, row in enumerate(d) for y, v in enumerate(row) if x != y)
    return ('metric' if metric else 'pseudo'), None


class PseudoMetric:
    __slots__ = ('n', 'd', 'kind')

    def __init__(self, matrix):
        matrix = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        kind, witness = validate_pseudometric(matrix)
        if kind == 'invalid':
            raise InvalidMetric(*witness)
        self.n = len(matrix)
        self.d = matrix
        self.kind = kind

    def __eq__(self, other):
        return isinstance(other, PseudoMetric) and self.d == other.d

    def __repr__(self):
        return 'PseudoMetric(%d points, %s)' % (self.n, self.kind)

    def is_metric(self):
        return self.kind == 'metric'

    def open_sphere(self, x, r):
        """B(x, r) = points strictly closer than r to x, as a mask."""
        return mask_of(y for y, v in enumerate(self.d[x]) if v < r)

    def closed_sphere(self, x, r):
        return mask_of(y for y, v in enumerate(self.d[x]) if v <= r)

    def distance_values(self):
        """Sorted distinct positive distances."""
        vals = sorted({self.d[x][y] for x in range(self.n) for y in range(self.n)
                       if self.d[x][y] > 0})
        return vals


def default_radius_set(m):
    """Distinct positive distances plus one value above the maximum."""
    vals = m.distance_values()
    top = (vals[-1] + 1) if vals else Fraction(1)
    return vals + [top]


def sphere_base(m):
    """The base {B(x, r)} over all centers and the default radii, plus
    the empty set."""
    radii = default_radius_set(m)
    masks = {0}
    for x in range(m.n):
        for r in radii:
            masks.add(m.open_sphere(x, r))
    return SetSystem(m.n, masks)


def metric_topology(m):
    """The topology the spheres generate: U_x is the meet of the
    spheres holding x.  The spheres form a base, so the opens are the
    unions of spheres."""
    return Topology.from_kernel(m.n, kernel_of(sphere_base(m).sets, m.n))


def bounded_equivalents(m):
    """(min(d, 1), d/(1+d)): both pseudo-metrics generating the same
    topology as d (metrics if d is one)."""
    one = Fraction(1)
    e = PseudoMetric([[min(v, one) for v in row] for row in m.d])
    f = PseudoMetric([[v / (1 + v) for v in row] for row in m.d])
    return e, f


def zero_distance_rows(m):
    """rows[x] = mask of points at distance zero from x (an equivalence
    relation by the triangle inequality)."""
    return [mask_of(y for y, v in enumerate(row) if v == 0) for row in m.d]


def quotient_metric(m):
    """(classes, D, class map): the metric induced on the zero-distance
    classes.  D is well defined and a genuine metric."""
    q, classes = class_map(m.n, zero_distance_rows(m))
    reps = [points_of(c)[0] for c in classes]
    d = [[m.d[a][b] for b in reps] for a in reps]
    # well-definedness: the distance between classes must not depend on
    # the chosen representatives
    for i, c1 in enumerate(classes):
        for j, c2 in enumerate(classes):
            for a in points_of(c1):
                for b in points_of(c2):
                    if m.d[a][b] != d[i][j]:
                        raise InvalidMetric('quotient-well-defined', (a, b))
    qm = PseudoMetric(d)
    if not qm.is_metric():
        raise InvalidMetric('quotient-not-metric', None)
    return classes, qm, q


def distance_to_set(m, a_mask):
    """Per-point distance to a nonempty set: the minimum over members."""
    if a_mask == 0:
        raise EmptyArgument("distance to the empty set is undefined")
    pts = points_of(a_mask)
    return [min(m.d[a][x] for a in pts) for x in range(m.n)]


def zero_distance_set(m, a_mask):
    """Mask of points at distance zero from A: the closure of A in the
    metric topology."""
    return mask_of(x for x, v in enumerate(distance_to_set(m, a_mask)) if v == 0)


def is_isometry(m1, m2, f):
    """Whether f preserves distances pointwise."""
    if f.n_src != m1.n or f.n_dst != m2.n:
        raise UniverseMismatch("map carriers do not match the metric spaces")
    return all(m2.d[f(x)][f(y)] == m1.d[x][y]
               for x in range(m1.n) for y in range(m1.n))


def sup_pseudometric(m, functions):
    """The supremum pseudo-metric on a finite list of functions into the
    metric space: D(f, g) = max over the domain of d(f(x), g(x)).
    Functions are tuples of points; the carrier is the list index."""
    if not functions:
        raise EmptyArgument("need at least one function")
    k = len(functions[0])
    if k == 0:
        raise EmptyArgument("functions need a nonempty domain")
    for fn in functions:
        if len(fn) != k:
            raise UniverseMismatch("functions have different domains")
    d = [[max(m.d[f[x]][g[x]] for x in range(k)) for g in functions]
         for f in functions]
    return PseudoMetric(d)


def restrict(m, a_mask):
    """(the restricted pseudo-metric on A re-indexed, point map)."""
    pts = points_of(a_mask)
    d = [[m.d[a][b] for b in pts] for a in pts]
    return PseudoMetric(d), pts


def is_finer_by_spheres(m1, m2):
    """Sphere-inclusion criterion: tau(d1) is finer than tau(d2) iff
    every d2-sphere around every point contains a d1-sphere around it."""
    radii2 = default_radius_set(m2)
    radii1 = default_radius_set(m1)
    for x in range(m1.n):
        for r2 in radii2:
            target = m2.open_sphere(x, r2)
            if not any(m1.open_sphere(x, r1) & ~target == 0 for r1 in radii1):
                return False
    return True
