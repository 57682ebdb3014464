"""Neighborhood systems: point relations, set maps, and neighborhood bases.

A neighborhood system is a PointSetRelation N whose section N{x} lists
the neighborhoods of x.  The module validates the characterizing axioms,
reconstructs the topology ({U : U is a neighborhood of each of its
points}), and handles the set-indexed variant M(A) = neighborhoods of
the whole set A, plus neighborhood bases.

On a finite carrier each of these families is principal: it is the
supersets of its core, the meet of its members.  The core of N{x} is
U_x and the core of M(A) is the open hull of A.  So the axioms are
decided, and the topology and the set map are built, from the cores.
"""

from .errors import (NeighborhoodAxiomViolation, NeighborhoodBaseViolation,
                     NotABase, SetMapAxiomViolation, UniverseMismatch)
from .setops import (PointSetRelation, SetSystem, check_same_carrier, full_mask, is_up_set,
                     meet_of, points_of, supermasks, two_minimal, upward_gap)
from .topology import Topology, closure_table, fineness, is_base_of, is_closure_table


def _cores(sections, n):
    """The meet of each family, or the whole carrier for an empty one."""
    full = full_mask(n)
    return [meet_of(sec) & full for sec in sections]


def _holds_up(members, core, c, n):
    """Whether the members, whose meet is core, include every superset
    of c."""
    if is_up_set(members, core, n):
        return core & ~c == 0
    return sum(1 for m in members if c & ~m == 0) == 1 << n - c.bit_count()


def _up_fault(members, n):
    """Why the ascending members are not all the supersets of their
    meet: ('upward-closed', (least missing superset,)), or, for an
    upward closed family, ('intersection-closed', (u, v)), its
    two_minimal pair, whose meet is not a member."""
    gap = upward_gap(members, n)
    if gap is not None:
        return 'upward-closed', (gap,)
    return 'intersection-closed', two_minimal(members)


def check_neighborhood_axioms(rel):
    """None if rel is a neighborhood system, else (axiom, witness).

    Axioms, per point x:
      (i)   N{x} is nonempty,
      (ii)  x belongs to each of its neighborhoods,
      (iii) N{x} is upward closed,
      (iv)  N{x} is closed under pairwise intersection,
      (v)   every U in N{x} contains some V in N{x} with U in N{y}
            for every y in V.

    Each section is decided by its core c, the meet of its members:
    (ii) holds iff x is in c, and (iii) and (iv) iff the section holds
    all 2^(n - |c|) supersets of c.  Then c is the best V in (v), which
    holds iff N{y} holds every superset of c for each y in c; for a
    section N{y} that is the supersets of its core, iff that core lies
    inside c.  Each witness is the least in ascending order of masks.
    """
    n = rel.n
    sections = [sec.sets for sec in rel.sections]
    cores = _cores(sections, n)
    for x, (sec, c) in enumerate(zip(sections, cores)):
        if not sec:
            return ('nonempty', x)
        if not c >> x & 1:
            return ('point-membership', (x, next(u for u in sec if not u >> x & 1)))
        if not is_up_set(sec, c, n):
            axiom, witness = _up_fault(sec, n)
            return (axiom, (x,) + witness)
        short = [set(sections[y]) for y in points_of(c)
                 if not _holds_up(sections[y], cores[y], c, n)]
        if short:
            u = next(u for u in supermasks(c, n) if any(u not in s for s in short))
            return ('interior-witness', (x, u))
    return None


def topology_from_neighborhoods(rel):
    """Reconstruct the topology: open sets are the sets that are a
    neighborhood of each of their points.  A set is a neighborhood of
    x iff it contains the core of N{x}, so the cores are the U_x."""
    verdict = check_neighborhood_axioms(rel)
    if verdict is not None:
        raise NeighborhoodAxiomViolation(*verdict)
    return Topology.from_kernel(rel.n, _cores(rel.sections, rel.n))


class SetNeighborhoodMap:
    """M(A) = system of neighborhoods of the subset A, for all 2^n
    subsets: a table of 2^n systems as given, or from set_map_of 2^n
    cores, M(A) being the supersets of cores[A] and the table built on
    its first read."""

    __slots__ = ('n', 'cores', '_table')

    def __init__(self, n, table):
        table = tuple(sys if isinstance(sys, SetSystem) else SetSystem(n, sys)
                      for sys in table)
        if len(table) != 1 << n:
            raise UniverseMismatch("need one system per subset of the carrier")
        self.n = n
        self.cores = None
        self._table = table

    @classmethod
    def _from_cores(cls, n, cores):
        """The map of the supersets of 2^n cores on the carrier: trusted."""
        smap = cls.__new__(cls)
        smap.n, smap.cores, smap._table = n, tuple(cores), None
        return smap

    @property
    def table(self):
        if self._table is None:
            self._table = tuple(map(self, range(1 << self.n)))
        return self._table

    def __eq__(self, other):
        """Two maps that keep their cores are equal iff the cores are, as
        M(A) is the supersets of cores[A]; any other two compare tables."""
        if not isinstance(other, SetNeighborhoodMap) or self.n != other.n:
            return False
        if self.cores is not None and other.cores is not None:
            return self.cores == other.cores
        return self.table == other.table

    def __call__(self, a_mask):
        if self._table is not None:
            return self._table[a_mask]
        return SetSystem._canonical(self.n, supermasks(self.cores[a_mask], self.n))

    def __repr__(self):
        return 'SetNeighborhoodMap(%d, <%d systems>)' % (self.n, 1 << self.n)


def set_map_of(topology):
    """The set-neighborhood map of a topology: M(A) is the supersets of
    the open hull of A, the union of the U_x over x in A.  The hulls
    are the closure table of the U_x (topology.closure_table): both
    are unions over the points of A, kept as the map's cores."""
    return SetNeighborhoodMap._from_cores(topology.n, closure_table(topology.minimal_opens))


def check_set_map_axioms(smap):
    """None if smap is a set-neighborhood map, else (axiom, witness).

    Axioms: each M(A) contains only supersets of A, is upward closed,
    intersection closed, nonempty, and admits interior witnesses; M of
    the empty set is the powerset; M turns unions into intersections
    (checked through the equivalent singleton decomposition
    M(A) = meet of M({x}) over x in A).

    Decided on the core c of each M(A), subsets in ascending order as
    for neighborhood systems: c must contain A, and M(A) must hold all
    supersets of c.  The best interior witness for every U is then
    V = c, so it suffices that M(c) holds every superset of c; only
    when it does not are the other V in M(A) consulted.  Every subset
    below A already passed, so the meet of the M({x}) is the supersets
    of core(A minus its lowest point) joined with core(lowest point),
    and M(A) equals it iff c is that union.

    A map that keeps its cores passes iff they are the closure table of
    a preorder kernel u, the cores of the points (is_closure_table): the
    union rule makes them the table, and then x in u[x] and M(u[x])
    holding u[x] give the rest.  Only a map that fails is read as a
    table, for its witness.
    """
    n = smap.n
    if smap.cores is not None and is_closure_table(smap.cores, n):
        return None
    sections = [system.sets for system in smap.table]
    cores = _cores(sections, n)
    if len(sections[0]) != 1 << n:
        return ('empty-set-full', 0)
    for a, (sec, c) in enumerate(zip(sections, cores)):
        if not sec:
            return ('nonempty', a)
        if a & ~c:
            return ('set-membership', (a, next(u for u in sec if a & ~u)))
        if not is_up_set(sec, c, n):
            axiom, witness = _up_fault(sec, n)
            return (axiom, (a,) + witness)
        if not _holds_up(sections[c], cores[c], c, n):
            ups = supermasks(c, n)
            covered = {u for v in ups for u in sections[v] if c & ~u == 0}
            if len(covered) < len(ups):
                return ('interior-witness', (a, next(u for u in ups if u not in covered)))
        low = a & -a
        if c != cores[a ^ low] | cores[low]:
            return ('union-to-intersection', a)
    return None


def topology_from_set_map(smap):
    verdict = check_set_map_axioms(smap)
    if verdict is not None:
        raise SetMapAxiomViolation(*verdict)
    u = ([smap.cores[1 << x] for x in range(smap.n)] if smap.cores is not None
         else _cores([smap.table[1 << x].sets for x in range(smap.n)], smap.n))
    return Topology.from_kernel(smap.n, u)


def check_neighborhood_base_axioms(rel):
    """None if rel is a neighborhood base, else (axiom, witness).

    Axioms, per point x: B{x} is nonempty; x lies in each member; any
    two members contain a third inside their intersection; every member
    U contains a V in B{x} such that each y in V has a member inside U.

    With c the meet of B{x}: x lies in each member iff x is in c; the
    members refine each other's meets iff c is a member, since the meet
    of all of them must then hold one; and then c is the best V and the
    hardest U, so the last axiom holds iff each y in c has a member
    inside c.  Each witness is the least in ascending order of masks.
    """
    n = rel.n
    sections = [sec.sets for sec in rel.sections]
    cores = _cores(sections, n)
    for x, (sec, c) in enumerate(zip(sections, cores)):
        if not sec:
            return ('nonempty', x)
        if not c >> x & 1:
            return ('point-membership', (x, next(u for u in sec if not u >> x & 1)))
        if sec[0] != c:
            return ('meet-refined', (x,) + two_minimal(sec))
        if not all(_has_member_inside(sections[y], cores[y], c) for y in points_of(c)):
            return ('interior-witness', (x, c))
    return None


def _has_member_inside(members, core, c):
    """Whether some member lies inside c; when the meet core is the
    least member, iff core does."""
    if members and members[0] == core:
        return core & ~c == 0
    return any(m & ~c == 0 for m in members)


def topology_from_neighborhood_base(rel):
    """The space whose neighborhood system the base generates: its
    pointwise superset closure, setops.phi_prime.  The meet c of each
    section of a base is a member, so that closure holds the supersets
    of c, and it is a neighborhood system: x is in c, and each y in c
    has a member, so its own meet, inside c.  So the meets are the U_x,
    and the system is never listed."""
    verdict = check_neighborhood_base_axioms(rel)
    if verdict is not None:
        raise NeighborhoodBaseViolation(*verdict)
    return Topology.from_kernel(rel.n, _cores(rel.sections, rel.n))


def neighborhood_base_from_topological_base(base, topology):
    """Turn a base of the topology into a neighborhood base:
    B{x} = members of the base containing x."""
    if not is_base_of(base, topology):
        raise NotABase("the system is not a base of the given topology")
    n = topology.n
    pairs = [(x, m) for m in base for x in points_of(m)]
    return PointSetRelation(n, pairs)


def compare_by_neighborhoods(t1, t2):
    """t1 is finer than t2 iff, at every point, every t2-neighborhood is
    a t1-neighborhood.  Returns the same classification as compare(),
    and raises UniverseMismatch as it does when the carriers differ."""
    check_same_carrier(t1.n, t2.n)
    return fineness(_neighborhoods_within(t2, t1), _neighborhoods_within(t1, t2))


def _neighborhoods_within(t1, t2):
    """Whether every t1-neighborhood of each point x, a set U_x | r with
    r outside t1's U_x, holds t2's U_x.  They are walked, r ascending
    and never listed, as continuity.continuous_via_filter_transfer walks
    them, with r split at point 8: the high part stepped, the low part's
    complements read from a list, so a passing test makes no new int."""
    full = full_mask(t1.n)
    for u1, u2 in zip(t1.minimal_opens, t2.minimal_opens):
        out = full ^ u1
        low, high = out & 255, out & ~255
        lows = [~r for r in range(low + 1) if r & ~low == 0]
        s = 0
        while True:
            left = u2 & ~(u1 | s)
            for not_r in lows:
                if left & not_r:
                    return False
            if s == high:
                break
            s = (s - high) & high
    return True
