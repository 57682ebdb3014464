"""The opens-scanning implementations that the U_x kernel replaced,
kept as the reference for the differential tests in test_kernel.py,
test_continuity.py, test_topology.py and test_acceptance.py.

Each function works from the definition over the open sets (or over the
neighborhood relation built from them by phi), never from
Topology.minimal_opens, so agreement with the library is a real check.
The generated topology and the base check work pairwise over the
members of a system (theta, psi and the pairwise base criteria), never
from its U_x.  The topology families are found by scanning every
family of subsets, not by listing preorders.

The continuity tests as they were before each space kept its views are
kept here too: every call builds what it reads of the two spaces, and
images and preimages loop over every source point.  The closure
operators are also found by their axioms alone, by a search over each
point's singleton image that never builds a topology.

The neighborhood, set-map, neighborhood-base and filter checks that
the cores replaced are kept here too: phi of each section or system and
pairwise scans over its members, reading members in Python set order,
with the set map built from the meets of the sections, the topology
from a membership scan over all 2^n subsets, and the filter facts from
scans over the members.  With ascending=True the checks read members
in ascending order of masks and name the witness the library names.

The bisection that the integer grid replaced is kept here too, with the
Horner rule it used: every step a Dyadic midpoint, a Dyadic evaluation
and Dyadic comparisons, for test_numeric.py.
"""

from functools import lru_cache
from itertools import permutations, product

from fintopo.errors import BracketViolation, IndexOutOfRange
from fintopo.numeric import ZERO
from fintopo.setops import (FiniteMap, PointSetRelation, SetSystem, full_mask, phi,
                            points_of, psi, relation_from_sections, supermasks, theta)
from fintopo.topology import Topology, closure_table, is_base_system, point_closures


def interior(topology, a_mask):
    """Union of the open subsets of A: the largest open set inside A."""
    u = 0
    for o in topology.opens:
        if o & ~a_mask == 0:
            u |= o
    return u


def closure(topology, a_mask):
    """Intersection of the closed supersets of A."""
    full = full_mask(topology.n)
    c = full
    for o in topology.opens:
        cl = full ^ o
        if a_mask & ~cl == 0:
            c &= cl
    return c


def derived_set(topology, a_mask):
    """Limit points of A: x such that every open neighborhood of x
    meets A away from x."""
    d = 0
    for x in range(topology.n):
        opens_at_x = [o for o in topology.opens if o >> x & 1]
        if all((a_mask & o) & ~(1 << x) for o in opens_at_x):
            d |= 1 << x
    return d


def boundary(topology, a_mask):
    return closure(topology, a_mask) & closure(topology, full_mask(topology.n) ^ a_mask)


def minimal_base(topology):
    """Opens that are not unions of strictly smaller opens, plus the
    empty set."""
    opens = set(topology.opens.sets)
    keep = [0]
    for m in opens:
        if m == 0:
            continue
        u = 0
        for o in opens:
            if o != m and o & ~m == 0:
                u |= o
        if u != m:
            keep.append(m)
    return SetSystem(topology.n, keep)


def neighborhood_relation(topology, kind='all'):
    """Sections built from the opens at each point: the opens
    themselves, or phi of them, filtered to the closed sets for
    kind='closed'."""
    n = topology.n
    sections = []
    for x in range(n):
        opens_at_x = [u for u in topology.opens if u >> x & 1]
        if kind == 'open':
            sec = SetSystem(n, opens_at_x)
        else:
            sec = phi(SetSystem(n, opens_at_x))
            if kind == 'closed':
                sec = SetSystem(n, [m for m in sec if topology.is_closed(m)])
        sections.append(sec)
    return relation_from_sections(n, sections)


@lru_cache(maxsize=None)
def _sections(topology):
    """The sections of the reference neighborhood relation, per point.
    Cached: the limit loops below ask for them once per call."""
    rel = neighborhood_relation(topology)
    return tuple(rel.section(x).sets for x in range(topology.n))


def _points_where_every_neighborhood(topology, test):
    out = 0
    for x, sec in enumerate(_sections(topology)):
        if all(test(u) for u in sec):
            out |= 1 << x
    return out


def filter_limits(topology, filt):
    members = set(filt.members.sets)
    return _points_where_every_neighborhood(topology, lambda u: u in members)


def filter_adherence(topology, filt):
    return _points_where_every_neighborhood(
        topology, lambda u: all(u & f for f in filt.members))


def net_limits(topology, net):
    return _points_where_every_neighborhood(topology, net.eventually_in)


def net_cluster_points(topology, net):
    return _points_where_every_neighborhood(topology, net.frequently_in)


def sequence_limits(topology, seq):
    return _points_where_every_neighborhood(topology, seq.eventually_in)


def sequence_cluster_points(topology, seq):
    return _points_where_every_neighborhood(topology, seq.frequently_in)


def is_continuous_at(m, x):
    """Preimage of every open neighborhood of f(x) is a neighborhood of x."""
    fx = m.f(x)
    src_nbh = set(_sections(m.source)[x])
    return all(preimage_mask(m.f, u) in src_nbh
               for u in m.target.opens if u >> fx & 1)


def check_closure_axioms(op):
    """The closure-operator axioms with additivity tested on all 4^n
    pairs of subsets."""
    t = op.table
    if t[0] != 0:
        return ('empty-fixed', 0)
    size = 1 << op.n
    for a in range(size):
        if a & ~t[a]:
            return ('extensive', a)
        if t[t[a]] != t[a]:
            return ('idempotent', a)
    for a in range(size):
        for b in range(size):
            if t[a | b] != t[a] | t[b]:
                return ('additive', (a, b))
    return None


def check_interior_axioms(op):
    """The interior-operator axioms with multiplicativity tested on all
    4^n pairs of subsets."""
    t = op.table
    full = full_mask(op.n)
    if t[full] != full:
        return ('whole-fixed', full)
    size = 1 << op.n
    for a in range(size):
        if t[a] & ~a:
            return ('contractive', a)
        if t[t[a]] != t[a]:
            return ('idempotent', a)
    for a in range(size):
        for b in range(size):
            if t[a & b] != t[a] & t[b]:
                return ('multiplicative', (a, b))
    return None


def kuratowski_tables(n):
    """Every closure-operator table on n points, as a tuple, found from
    the axioms alone.  Additivity and f(empty) = empty force f(A) to be
    the union of the f({x}) over x in A, so a superset of each point is
    chosen as its singleton image, the table is extended additively,
    and it is kept if it is idempotent (it is extensive and additive by
    construction).  Tries prod over x of 2^(n-1) choices, so n <= 4."""
    size = 1 << n
    tables = []
    for pick in product(*(supermasks(1 << x, n) for x in range(n))):
        table = [0] * size
        for a in range(1, size):
            for x in points_of(a):
                table[a] |= pick[x]
        if all(table[table[a]] == table[a] for a in range(size)):
            tables.append(tuple(table))
    return tables


def image_mask(f, mask):
    """f[A], looping over every source point."""
    out = 0
    for x in range(f.n_src):
        if mask >> x & 1:
            out |= 1 << f.images[x]
    return out


def preimage_mask(f, mask):
    """f^-1[B], looping over every source point."""
    out = 0
    for x in range(f.n_src):
        if mask >> f.images[x] & 1:
            out |= 1 << x
    return out


def is_continuous(m):
    """f[U_x] inside U_f(x) at every point x."""
    src_u, dst_u = m.source.minimal_opens, m.target.minimal_opens
    return all(image_mask(m.f, src_u[x]) & ~dst_u[m.f(x)] == 0 for x in range(m.source.n))


def continuity_characterizations(m):
    """The six global characterizations, each building what it reads of
    the two spaces on the call."""
    f, src, dst = m.f, m.source, m.target
    full_src = full_mask(src.n)
    src_cl = closure_table(point_closures(src.minimal_opens))
    dst_cl = closure_table(point_closures(dst.minimal_opens))

    def filter_transfer():
        for x in range(src.n):
            images = [image_mask(f, v) for v in supermasks(src.minimal_opens[x], src.n)]
            for u in supermasks(dst.minimal_opens[f(x)], dst.n):
                if not any(img & ~u == 0 for img in images):
                    return False
        return True

    return {
        'opens': all(preimage_mask(f, o) in src.opens for o in dst.opens),
        'subbase': all(preimage_mask(f, s) in src.opens for s in minimal_base(dst)),
        'closeds': all(full_src ^ preimage_mask(f, full_mask(dst.n) ^ o) in src.opens
                       for o in dst.opens),
        'neighborhoods': all(is_continuous_at(m, x) for x in range(src.n)),
        'filter-transfer': filter_transfer(),
        'closure': all(image_mask(f, src_cl[a]) & ~dst_cl[image_mask(f, a)] == 0
                       for a in range(1 << src.n)),
    }


def map_open_closed(m):
    """Whether the image of every open is open and of every closed set
    closed."""
    opens = m.target.opens
    full_src, full_dst = full_mask(m.source.n), full_mask(m.target.n)
    return (all(image_mask(m.f, o) in opens for o in m.source.opens),
            all(full_dst ^ image_mask(m.f, full_src ^ o) in opens for o in m.source.opens))


def _degree_sequence(t):
    """Per-point count of opens containing the point, sorted."""
    return sorted(sum(1 for o in t.opens if o >> x & 1) for x in range(t.n))


def are_homeomorphic(t1, t2):
    """The first bijection, in the order of permutations, that maps the
    opens of t1 onto those of t2, or None.  Pruned by the number of
    opens and the degree sequence, both homeomorphism invariants."""
    if len(t1.opens) != len(t2.opens):
        return None
    if _degree_sequence(t1) != _degree_sequence(t2):
        return None
    opens2 = set(t2.opens.sets)
    for perm in permutations(range(t1.n)):
        f = FiniteMap(t1.n, t2.n, perm)
        if set(image_mask(f, o) for o in t1.opens) == opens2:
            return f
    return None


def generated_topology(system):
    """Unions of intersections of members, each by its pairwise fixed
    point: theta(psi(system))."""
    return Topology(system.n, theta(psi(system)), validate=False)


def is_base_of(system, topology):
    """A base whose unions are exactly the opens."""
    return is_base_system(system) is None and theta(system) == topology.opens


def topology_families(n):
    """The sorted open sets of every topology on n points, in the order
    of the family bitmasks: each family of subsets is itself a bit mask
    over the 2^n subset masks, and is kept if it holds the empty set
    and the carrier and is closed under pairwise unions and
    intersections.  Scans 2^(2^n) families, so n <= 4."""
    full = full_mask(n)
    nmasks = 1 << n
    results = []
    must = (1 << 0) | (1 << full)
    for sysmask in range(1 << nmasks):
        if sysmask & must != must:
            continue
        members = [m for m in range(nmasks) if sysmask >> m & 1]
        if all(sysmask >> (a | b) & 1 and sysmask >> (a & b) & 1
               for i, a in enumerate(members) for b in members[i + 1:]):
            results.append(tuple(members))
    return results


def poly_value(p, x):
    """p(x) by Horner's rule in Dyadic arithmetic over p.coeffs."""
    out = ZERO
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def bisection_invert(p, a, b, w, tol, trace=None):
    """The Dyadic-object bisection: the same contract as
    fintopo.numeric.bisection_invert without its step cap, for Dyadic
    arguments."""
    if not a < b:
        raise IndexOutOfRange("need a < b")
    if not tol > ZERO:
        raise IndexOutOfRange("need tol > 0")
    pa, pb = poly_value(p, a), poly_value(p, b)
    if not (min(pa, pb) <= w <= max(pa, pb)):
        raise BracketViolation(0)
    if pa == w:
        return a
    if pb == w:
        return b
    x, y, px, py = a, b, pa, pb
    step = 0
    while y - x > tol:
        step += 1
        z = x.half_sum(y)
        pz = poly_value(p, z)
        if pz == w:
            return z
        if min(px, pz) <= w <= max(px, pz):
            y, py = z, pz
        else:
            x, px = z, pz
        if not (min(px, py) <= w <= max(px, py)):
            raise BracketViolation(step)
        if trace is not None:
            trace.append((x, y, px, py))
    return x


def _order(members, ascending):
    """The members in the order the scans read them: Python set order,
    or ascending order of masks."""
    return sorted(members) if ascending else members


def check_neighborhood_axioms(rel, ascending=False):
    """The five neighborhood axioms point by point: phi of each section
    for (iii), all pairs of members for (iv), and for (v) every member
    U against every V in the section."""
    n = rel.n
    sections = [set(rel.section(x).sets) for x in range(n)]
    for x in range(n):
        sec = sections[x]
        if not sec:
            return ('nonempty', x)
        for u in _order(sec, ascending):
            if not u >> x & 1:
                return ('point-membership', (x, u))
        up = set(phi(SetSystem(n, sec)).sets)
        if up != sec:
            return ('upward-closed', (x, min(up - sec)))
        for u in _order(sec, ascending):
            for v in _order(sec, ascending):
                if u & v not in sec:
                    return ('intersection-closed', (x, u, v))
        for u in _order(sec, ascending):
            if not any(all(u in sections[y] for y in points_of(v)) for v in _order(sec, ascending)):
                return ('interior-witness', (x, u))
    return None


def topology_from_relation(rel):
    """The sets that are a neighborhood of each of their points, by a
    scan over all 2^n subsets."""
    n = rel.n
    sections = [set(rel.section(x).sets) for x in range(n)]
    opens = [u for u in range(1 << n)
             if all(u in sections[x] for x in points_of(u))]
    return Topology(n, opens, validate=False)


def set_map_table(topology):
    """M(A) as the meet of the neighborhood sections of the points of
    A, the powerset for the empty set."""
    rel = neighborhood_relation(topology)
    return [rel.meet_section(a) for a in range(1 << topology.n)]


def check_set_map_axioms(smap, ascending=False):
    """The set-map axioms subset by subset: phi and pairwise scans of
    each M(A), every V in M(A) as interior witness, and M(A) against
    the meet of the M({x})."""
    n = smap.n
    if set(smap.table[0].sets) != set(range(1 << n)):
        return ('empty-set-full', 0)
    for a in range(1 << n):
        sec = set(smap.table[a].sets)
        if not sec:
            return ('nonempty', a)
        for u in _order(sec, ascending):
            if a & ~u:
                return ('set-membership', (a, u))
        up = set(phi(smap.table[a]).sets)
        if up != sec:
            return ('upward-closed', (a, min(up - sec)))
        for u in _order(sec, ascending):
            for v in _order(sec, ascending):
                if u & v not in sec:
                    return ('intersection-closed', (a, u, v))
        for u in _order(sec, ascending):
            if not any(u in smap.table[v] for v in _order(sec, ascending)):
                return ('interior-witness', (a, u))
        if a:
            meet = None
            for x in points_of(a):
                pts = set(smap.table[1 << x].sets)
                meet = pts if meet is None else meet & pts
            if sec != meet:
                return ('union-to-intersection', a)
    return None


def check_neighborhood_base_axioms(rel, ascending=False):
    """The neighborhood base axioms by scans over triples of members."""
    n = rel.n
    sections = [set(rel.section(x).sets) for x in range(n)]
    for x in range(n):
        sec = sections[x]
        if not sec:
            return ('nonempty', x)
        for u in _order(sec, ascending):
            if not u >> x & 1:
                return ('point-membership', (x, u))
        for u in _order(sec, ascending):
            for v in _order(sec, ascending):
                cap = u & v
                if not any(w & ~cap == 0 for w in sec):
                    return ('meet-refined', (x, u, v))
        for u in _order(sec, ascending):
            ok = any(all(any(w & ~u == 0 for w in sections[y]) for y in points_of(v))
                     for v in _order(sec, ascending))
            if not ok:
                return ('interior-witness', (x, u))
    return None


def neighborhoods_from_base(rel):
    """phi of each section of the base."""
    pairs = [(x, m) for x in range(rel.n) for m in phi(rel.section(x))]
    return PointSetRelation(rel.n, pairs)


def is_filter(system, ascending=False):
    """The filter axioms: pairwise meets, then phi of the system."""
    members = set(system.sets)
    if 0 in members:
        return ('no-empty-member', 0)
    if full_mask(system.n) not in members:
        return ('contains-whole', full_mask(system.n))
    for a in _order(members, ascending):
        for b in _order(members, ascending):
            if a & b not in members:
                return ('intersection-closed', (a, b))
    up = set(phi(system).sets)
    if up != members:
        return ('upward-closed', min(up - members))
    return None


def is_filter_base(system, ascending=False):
    """The filter base conditions, every pairwise meet against every
    member."""
    members = set(system.sets)
    if len(members) == 0:
        return ('nonempty', None)
    if 0 in members:
        return ('no-empty-member', 0)
    for a in _order(members, ascending):
        for b in _order(members, ascending):
            cap = a & b
            if not any(c & ~cap == 0 for c in members):
                return ('meet-refined', (a, b))
    return None


def filter_members(system):
    """The filter a base generates: phi of the base."""
    return phi(system)


def is_ultrafilter(members, n):
    """A or its complement is a member, for every subset A."""
    full = full_mask(n)
    present = set(members.sets)
    return all(a in present or full ^ a in present for a in range(1 << n))
