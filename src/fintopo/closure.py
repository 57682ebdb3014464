"""Closure, interior, derived set and boundary, plus axiomatic closure
and interior operators given as dense tables over all subsets."""

from .errors import InteriorAxiomViolation, KuratowskiViolation, UniverseMismatch
from .setops import byte_union, check_carrier, full_mask
from .topology import (Topology, closure_table, enumerate_topologies, interior_table,
                       is_closure_table, point_closures)


def interior(topology, a_mask):
    """The largest open set inside A: the complement of the closure of
    the complement."""
    tables = topology.closure_bytes
    return tables[0] ^ byte_union(tables, ~a_mask)


def closure(topology, a_mask):
    """The smallest closed superset of A: the points x with U_x meeting
    A, that is, the union of cl{y} over the points y of A."""
    return byte_union(topology.closure_bytes, a_mask)


def derived_set(topology, a_mask):
    """Limit points of A: x such that every neighborhood of x meets
    A away from x.  It suffices to check U_x, which every neighborhood
    of x contains, so this is the union of cl{y} minus y over the
    points y of A."""
    return byte_union(topology.derived_bytes, a_mask)


def analyze_subset(topology, a_mask):
    """Interior, closure, derived set, boundary and density of A, all
    but the derived set from the closures of A and of its complement."""
    full = full_mask(topology.n)
    c = closure(topology, a_mask)
    co = closure(topology, full ^ a_mask)
    return {
        'interior': full ^ co,
        'closure': c,
        'derived': derived_set(topology, a_mask),
        'boundary': c & co,
        'dense': c == full,
    }


class SubsetOperator:
    """A map P(X) -> P(X) as a dense table indexed by subset mask."""

    __slots__ = ('n', 'table')

    def __init__(self, n, table):
        check_carrier(n)
        table = tuple(table)
        if len(table) != 1 << n:
            raise UniverseMismatch("need one value per subset of the carrier")
        full = full_mask(n)
        # the loop names the first value off the carrier
        if min(table) < 0 or max(table) > full:
            for v in table:
                if v < 0 or v & ~full:
                    raise UniverseMismatch("table value %d outside the carrier" % v)
        self.n = n
        self.table = table

    @classmethod
    def _trusted(cls, n, table):
        """The operator with this table, which the caller guarantees to be
        a tuple of 2^n masks on the carrier: nothing is checked."""
        op = cls.__new__(cls)
        op.n = n
        op.table = table
        return op

    def __eq__(self, other):
        return (isinstance(other, SubsetOperator)
                and self.n == other.n and self.table == other.table)

    def __hash__(self):
        return hash((self.n, self.table))

    def __call__(self, a_mask):
        return self.table[a_mask]

    def __repr__(self):
        return 'SubsetOperator(%d, %r)' % (self.n, list(self.table))

    def dual(self):
        """g(A) = complement of f(complement of A)."""
        full = full_mask(self.n)
        return SubsetOperator(self.n, [full ^ v for v in reversed(self.table)])


def closure_operator_of(topology):
    """The closure operator of the space, on a table built anew, not the
    one the space keeps (Topology.closure_table): a caller holding many
    spaces, as the listing of every space on 5 points does, would keep
    every table."""
    return SubsetOperator._trusted(topology.n,
                                   closure_table(point_closures(topology.minimal_opens)))


def interior_operator_of(topology):
    """The dual of the closure operator: int(A) = X minus cl(X minus A),
    on a table built anew like closure_operator_of's."""
    return SubsetOperator._trusted(topology.n,
                                   interior_table(point_closures(topology.minimal_opens)))


def check_closure_axioms(op):
    """None if op satisfies the closure-operator axioms, else
    (axiom, witness): fixes the empty set, is extensive, is idempotent,
    and distributes over pairwise unions.

    Given f(empty) = empty, additivity holds iff f(A) = f(A minus
    {a}) | f({a}) for a the lowest point of each nonempty A, so one
    pass over the 2^n subsets decides it.  A failure there is reported
    with the pair (A minus {a}, {a}), a true counterexample.  A table
    that passes is_closure_table is accepted without that pass."""
    t = op.table
    if t[0] != 0:
        return ('empty-fixed', 0)
    if is_closure_table(t, op.n):
        return None
    size = 1 << op.n
    for a in range(size):
        if a & ~t[a]:
            return ('extensive', a)
        if t[t[a]] != t[a]:
            return ('idempotent', a)
    for a in range(1, size):
        low = a & -a
        if t[a] != t[a ^ low] | t[low]:
            return ('additive', (a ^ low, low))
    return None


def topology_from_closure_operator(op):
    """The topology whose closed sets are the fixed points of op.  A
    valid op is the closure table of its point values cl{x}, and U is
    their transpose."""
    verdict = check_closure_axioms(op)
    if verdict is not None:
        raise KuratowskiViolation(*verdict)
    t = op.table
    return Topology.from_kernel(op.n, point_closures([t[1 << x] for x in range(op.n)]))


def check_interior_axioms(op):
    """None if op satisfies the interior-operator axioms, else
    (axiom, witness): fixes the carrier, is contractive, is idempotent,
    and distributes over pairwise intersections.

    The dual of the closure check: given f(X) = X, multiplicativity
    holds iff f(A) = f(A | {a}) & f(X minus {a}) for a the lowest point
    outside each proper subset A, so one pass over the 2^n subsets
    decides it.  A failure there is reported with the pair
    (A | {a}, X minus {a}), whose intersection is A.  A table whose
    dual passes is_closure_table is accepted without that pass."""
    t = op.table
    full = full_mask(op.n)
    if t[full] != full:
        return ('whole-fixed', full)
    if is_closure_table(t, op.n, dual=True):
        return None
    size = 1 << op.n
    for a in range(size):
        if t[a] & ~a:
            return ('contractive', a)
        if t[t[a]] != t[a]:
            return ('idempotent', a)
    for a in range(full):
        outside = full ^ a
        low = outside & -outside
        if t[a] != t[a | low] & t[full ^ low]:
            return ('multiplicative', (a | low, full ^ low))
    return None


def topology_from_interior_operator(op):
    """The topology whose open sets are the fixed points of op: U is the
    transpose of the point closures cl{x} = X minus op(X minus {x})."""
    verdict = check_interior_axioms(op)
    if verdict is not None:
        raise InteriorAxiomViolation(*verdict)
    t, full = op.table, full_mask(op.n)
    return Topology.from_kernel(op.n, point_closures([full ^ t[full ^ 1 << x]
                                                      for x in range(op.n)]))


def enumerate_closure_operators(n):
    """All valid closure-operator tables on n points, one per topology
    (the Kuratowski bijection), in the order of enumerate_topologies.
    n <= 5."""
    return [closure_operator_of(t) for t in enumerate_topologies(n)]
