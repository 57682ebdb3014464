"""The opens-scanning implementations that the U_x kernel replaced,
kept as the reference for the differential tests in test_kernel.py,
test_continuity.py, test_topology.py and test_acceptance.py.

Each function works from the definition over the open sets (or over the
neighborhood relation built from them by phi), never from
Topology.minimal_opens, so agreement with the library is a real check.
The generated topology and the base check work pairwise over the
members of a system (theta, psi and the pairwise base criteria), never
from its U_x.  So do the open-set axiom scan and the base-criterion
scan that the kernel checks replaced: every pair of members, and for
the base criterion every member inside their meet.  So do the induced topologies: the inverse image is
generated by the preimages of every open, the subspace cuts down every
open, and the direct image scans all 2^n subsets.  The topology families are found by scanning every
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
from a membership scan over all 2^n subsets, the space of a
neighborhood base from the neighborhood system it generates, listed,
and the filter facts from scans over the members.  With ascending=True the checks read members
in ascending order of masks and name the witness the library names.
The filter continuity test that the cores replaced is kept too: every
member of the target filter against the image of every member of the
source filter.

The bisection that the integer grid replaced is kept here too, with the
Horner rule it used: every step a Dyadic midpoint, a Dyadic evaluation
and Dyadic comparisons, for test_numeric.py.  So is the start of the
integer-grid bisection as it was with four successive Horner bit-budget
checks, each made before some shift, before one length from bit
positions replaced them.

So are the interior, closure and derived set that the closure byte
tables replaced: one loop over the points, reading U_x from
Topology.minimal_opens, for test_closure.py.  They are defined on every
mask, bits off the carrier and negative masks included.  With them are
the closure- and interior-axiom checks that scan all 2^n entries of a
table, with additivity and multiplicativity decided in one pass; the
library now accepts a valid table from its n point values first, and
must give the verdicts and witnesses of these scans.

So is the closure table as it was built before its entries were packed
into the lanes of one int: a list doubled one entry at a time, for
test_lane_tables.py.

So is the transpose of a kernel as it was before the block-swap
transpose replaced it: one loop over the set bits of each U_x, for
test_kernel.py and the continuity reference here.

So are the Topology readers that went by the opens before a space was
kept as its kernel: equality, open and closed tests, fineness and
comparison, each reading the opens of the space, and the union closure
of a kernel by theta's pairwise fixed point, for test_kernel_first.py.

So are psi and theta, each as the fixed point of adjoining pairwise
intersections or unions, where the library reads both from its one
union closure; test_setops.py and the references here use them.

So are three second routes that the library no longer takes: the
supremum of filter bases by every cross intersection of their members,
where `topo filter --op sup` meets the cores, for test_filters.py and
test_cores.py; the mapping-property check of a generated topology over
every test space of at most 3 points and every map, for
test_generated.py and test_acceptance.py; and continuity glued from the
restrictions to a closed cover, for test_continuity.py.  They read the
continuity test, the subspace and the filter-base check kept here.

So is the interval topology generated from the segments at the points
of a subset only, which the library's interval_topology replaced, with
the order-density test of that subset, for test_order.py and
test_acceptance.py, and the least-upper-bound test by a scan over all
2^n subsets, for test_order.py.

So is the pseudo-metric check that scaling to a common denominator
replaced: every comparison and triangle sum on the Fraction entries, for
test_metric.py.

So are the two boundary readers that compiled shapes and direct text
replaced: the jsonio shape check that walks the shape tree for every
value, for test_cli.py, and a Dyadic's Fraction, whose text the
fraction of `topo root`, `series` and `check --invert` was, for
test_cli.py and test_numeric.py.  So is Dyadic.parse as it was when
Dyadic.from_fraction read its argument through a second Fraction, for
test_numeric.py.

So are the preorder kernels as the recursive search listed them, one
generator a point, each candidate U_x checked against the earlier U_y
one point at a time, and the topologies on n <= 5 points sorted by their
opens, each space's opens built by theta's pairwise fixed point, for
test_topology.py.

So are the numeric suite's 200 cases as it drew them, each value made
by the checked Dyadic(m, e), abs, + and DyadicPoly, for test_verify.py,
and the canonical net of a filter base with its order given as every
pair of elements whose members are nested, for test_convergence.py."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product, repeat

from fintopo import jsonio
from fintopo.continuity import SpaceMap
from fintopo.convergence import DirectedSet, Net, filter_adherence
from fintopo.errors import (BracketViolation, CapExceeded, ClusterPreconditionFailed,
                            EmptyArgument, EmptyMeet, FilterBaseViolation, IndexOutOfRange,
                            NeighborhoodAxiomViolation, NeighborhoodBaseViolation,
                            NonDyadicLiteral, UniverseMismatch)
from fintopo.numeric import (BISECTION_CAP, HORNER_BITS_CAP, ZERO, Dyadic, DyadicPoly,
                             _ceil_log2_ratio, _coerce, _horner, decimal_digits,
                             decimal_fraction, decimal_int)
from fintopo.setops import (FiniteMap, PointSetRelation, SetSystem, full_mask, meet_of, phi,
                            points_of, relation_from_sections, supermasks)
from fintopo.topology import Topology, enumerate_topologies, generate_from_subbase


def psi(system):
    """All intersections of nonempty subfamilies: the fixed point of
    adjoining pairwise intersections."""
    return system.with_sets(_pairwise_closure(system.sets, lambda a, b: a & b))


def theta(system):
    """All unions of nonempty subfamilies: the fixed point of adjoining
    pairwise unions."""
    return system.with_sets(_pairwise_closure(system.sets, lambda a, b: a | b))


def _pairwise_closure(sets, op):
    members = set(sets)
    frontier = list(members)
    while frontier:
        m = frontier.pop()
        fresh = []
        for a in members:
            c = op(a, m)
            if c not in members:
                fresh.append(c)
        for c in fresh:
            members.add(c)
            frontier.append(c)
    return members


def point_closures(u):
    """The transpose of the kernel u: entry y is {x : y in U_x}, the
    closure of {y}, set one bit at a time."""
    c = [0] * len(u)
    for x, ux in enumerate(u):
        bit = 1 << x
        while ux:
            low = ux & -ux
            c[low.bit_length() - 1] |= bit
            ux ^= low
    return c


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


def kernel_interior(topology, a_mask):
    """The points x with U_x inside A."""
    i = 0
    for x, u in enumerate(topology.minimal_opens):
        if u & ~a_mask == 0:
            i |= 1 << x
    return i


def kernel_closure(topology, a_mask):
    """The points x with U_x meeting A."""
    c = 0
    for x, u in enumerate(topology.minimal_opens):
        if u & a_mask:
            c |= 1 << x
    return c


def kernel_derived_set(topology, a_mask):
    """The points x with U_x meeting A away from x."""
    d = 0
    for x, u in enumerate(topology.minimal_opens):
        if u & a_mask & ~(1 << x):
            d |= 1 << x
    return d


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


def closure_table(closures):
    """closure(A) for every subset A, as a list, given the closure of
    each point: point y adds a copy of the table so far, each entry
    joined with the closure of y, at the subsets that hold y."""
    table = [0]
    for c in closures:
        table += [v | c for v in table]
    return table


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


def check_closure_axioms_in_one_pass(op):
    """The closure-operator axioms on every entry, with additivity
    tested at the lowest point of each nonempty A."""
    t = op.table
    if t[0] != 0:
        return ('empty-fixed', 0)
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


def check_interior_axioms_in_one_pass(op):
    """The interior-operator axioms on every entry, with
    multiplicativity tested at the lowest point outside each proper
    subset A."""
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
    for a in range(full):
        outside = full ^ a
        low = outside & -outside
        if t[a] != t[a | low] & t[full ^ low]:
            return ('multiplicative', (a | low, full ^ low))
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
    return Topology(system.n, theta(psi(system)))


def inverse_image_topology(n, pairs):
    """Generated by the subbase of all preimages of all opens of the
    targets, with the empty set and the carrier."""
    subbase = {0, full_mask(n)}
    for f, t in pairs:
        for o in t.opens:
            subbase.add(preimage_mask(f, o))
    return generated_topology(SetSystem(n, subbase))


def subspace_topology(t, a_mask):
    """(every open cut down to A and re-indexed, point map)."""
    point_map = points_of(a_mask)
    back = {p: i for i, p in enumerate(point_map)}
    opens = set()
    for o in t.opens:
        m = 0
        for p in points_of(o & a_mask):
            m |= 1 << back[p]
        opens.add(m)
    return Topology(len(point_map), opens), point_map


def direct_image_topology(n, pairs):
    """Every subset of the carrier whose every preimage is open."""
    opens = [b for b in range(1 << n)
             if all(preimage_mask(f, b) in t.opens for f, t in pairs)]
    return Topology(n, opens)


def is_topology(system):
    """None, or (failed-axiom, witness): the empty set and the carrier
    are members, then every pair of members, in set order, has its
    union and its intersection among the members."""
    full = full_mask(system.n)
    members = set(system.sets)
    if 0 not in members:
        return ('contains-empty', 0)
    if full not in members:
        return ('contains-whole', full)
    for a in members:
        for b in members:
            if a | b not in members:
                return ('union-closed', (a, b))
            if a & b not in members:
                return ('intersection-closed', (a, b))
    return None


def is_base_system(system):
    """None, or (criterion, witness): the empty set is a member, the
    members cover the carrier, and for every pair of members, in set
    order, the union of the members inside their intersection is that
    intersection."""
    members = set(system.sets)
    if 0 not in members:
        return ('contains-empty', 0)
    if system.union_mask() != full_mask(system.n):
        return ('covers-carrier', system.union_mask())
    for a in members:
        for b in members:
            cap = a & b
            u = 0
            for m in members:
                if m & ~cap == 0:
                    u |= m
            if u != cap:
                return ('intersections-are-unions', (a, b))
    return None


def is_base_of(system, topology):
    """A base whose unions are exactly the opens."""
    return is_base_system(system) is None and theta(system) == topology.opens


def union_closure(n, masks):
    """The empty set and every union of the masks: theta's pairwise
    fixed point."""
    return theta(SetSystem(n, [0, *masks]))


def same_topology(t1, t2):
    """The same carrier and the same opens."""
    return t1.n == t2.n and t1.opens == t2.opens


def is_open(t, mask):
    return mask in set(t.opens.sets)


def is_closed(t, mask):
    return full_mask(t.n) ^ mask in set(t.opens.sets)


def is_finer(t1, t2):
    """Every t2-open is t1-open (same carrier required, the sizes named
    in argument order)."""
    if t1.n != t2.n:
        raise UniverseMismatch("carriers differ: %d vs %d" % (t1.n, t2.n))
    return t2.opens <= t1.opens


def compare(t1, t2):
    fine, coarse = is_finer(t1, t2), is_finer(t2, t1)
    if fine and coarse:
        return 'equal'
    if fine or coarse:
        return 'strictly-finer' if fine else 'strictly-coarser'
    return 'incomparable'


def has_interval_intersection_property(p):
    """psi of the lower and of the upper segment system is that system."""
    lo, up = p.lower_segments(), p.upper_segments()
    return psi(lo) == lo and psi(up) == up


def segment_system_is_topology(p, side):
    """theta of the one-sided segments with the empty set and the
    carrier is that system."""
    segs = p.lower_segments() if side == 'lower' else p.upper_segments()
    system = SetSystem(p.n, list(segs) + [0, full_mask(p.n)])
    return theta(system) == system



def has_lub_property(p):
    """The least-upper-bound property by a scan over every nonempty
    subset, meeting the up-sets of its points, where the library reads
    the upper-bound sets from psi of the up-sets."""
    for a_mask in range(1, 1 << p.n):
        ub = meet_of(p.succ[a] | 1 << a for a in points_of(a_mask))
        if ub and not any(ub & ~(p.succ[s] | 1 << s) == 0 for s in points_of(ub)):
            return False
    return True


def is_order_dense(p, y_mask):
    """Y is order dense: whenever x rel z there is a point of Y
    strictly between them."""
    return all(any(p.rel(x, y) and p.rel(y, z) for y in points_of(y_mask))
               for x in range(p.n) for z in points_of(p.succ[x]))


def interval_topology_from_dense(p, y_mask):
    """The topology generated by the segments at the points of Y and
    the empty set; for an order dense Y, the interval topology."""
    segs = [seg for y in points_of(y_mask) for seg in (p.pred[y], p.succ[y])]
    return generate_from_subbase(SetSystem(p.n, [0] + segs))

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


def numeric_suite_cases():
    """The numeric suite's cases (p, a, b, w, tol), drawn from
    random.Random(404) through the checked constructor: p has positive
    higher coefficients, so it increases on [0, 2]."""
    rng = random.Random(404)
    cases = []
    for _ in range(200):
        deg = rng.randint(1, 3)
        lead = [abs(Dyadic(rng.randint(-4, 4), rng.randint(-2, 1))) + Dyadic(1)
                for _ in range(deg)]
        coeffs = [Dyadic(rng.randint(-4, 4), rng.randint(-2, 1))] + lead
        p = DyadicPoly(coeffs)
        a, b = Dyadic(0), Dyadic(2)
        w = p(Dyadic(rng.randint(0, 8), -2))
        tol = Dyadic(1, -rng.randint(2, 10))
        cases.append((p, a, b, w, tol))
    return cases


def bisection_start(p, a, b, w, tol):
    """fintopo.numeric._bisection_start as it was with four successive
    HORNER_BITS_CAP checks, each made before some shift.  Its check of
    w's bit position takes w = 0 to lie at exponent 0, so with w = 0 it
    refuses coefficients 2^-32768 and finer on w's account.

    The checks and the starting grid of a bisection of p on [a, b]
    towards w, in the order bisection_invert and mth_root raise them:
    the arguments, the Horner bit budget, the endpoints' bracket and
    exact hits, then the step cap.

    Returns (hit, k, x, y, steps, cs, sx).  hit is the endpoint a or b
    at which p is w, else None.  [a, b] is [x, y] * 2^-k, and steps
    halvings take it to width at most tol.  cs are p's integers with w
    folded into the constant coefficient, and sx is the sign of p - w
    at a.
    """
    a, b, w, tol = _coerce(a), _coerce(b), _coerce(w), _coerce(tol)
    if not a < b:
        raise IndexOutOfRange("need a < b")
    if not tol > ZERO:
        raise IndexOutOfRange("need tol > 0")
    k = -min(a.e, b.e, 0)
    d = max(len(p.ints) - 1, 0)
    # On the grid a nonzero endpoint is its bit position plus k bits
    # long, and a zero's position is 0.  d times the longer, or times k,
    # is in every bound below and needs no shift to compute.
    reach = d * (k + max(a.m.bit_length() + a.e, b.m.bit_length() + b.e, 0))
    if reach > HORNER_BITS_CAP:
        raise CapExceeded("bisection from [%s, %s] on the grid 2^-%d sums terms of at "
                          "least %d bits at degree %d; capped at %d bits"
                          % (a, b, k, reach, d, HORNER_BITS_CAP))
    x = a.m << (a.e + k)
    y = b.m << (b.e + k)
    steps = max(0, _ceil_log2_ratio(y - x, tol.m) - tol.e - k)
    # p is a multiple of 2^g at every point visited.  A w off that
    # lattice has the signs, and no hits, of the odd multiple of
    # 2^(g - 1) next to it, so the fold never shifts p to w's exponent.
    # Zero is on every lattice, whatever its stored exponent.
    g = p.exp - d * (k + steps)
    if w.m and w.e < g:
        wm, we = ((w.m >> (g - w.e)) << 1) + 1, g - 1
    else:
        wm, we = w.m, w.e
    f = min(p.exp, we)
    # w's bit position on the exponent f, before w is shifted there.
    # When it passes every coefficient's by 2 or more, the folded cs[0]
    # is at most 1 bit shorter, so the check below would refuse too.
    wtop = wm.bit_length() + we - f
    if (wtop - 1 + reach > HORNER_BITS_CAP
            and wtop > max((c.bit_length() for c in p.ints), default=0) + p.exp - f + 1):
        raise CapExceeded("bisection from [%s, %s] on the grid 2^-%d towards w sums terms "
                          "of at least %d bits at degree %d; capped at %d bits"
                          % (a, b, k, wtop - 1 + reach, d, HORNER_BITS_CAP))
    shift = p.exp - f
    if shift + reach >= HORNER_BITS_CAP:
        # A shift this long could pass the budget by far, so the
        # coefficients' bit lengths on the exponent f are taken before
        # the shift: exact for the non-constant ones, and at most 1 bit
        # short for the folded constant where p's passes w's by 2 or more.
        least = [c.bit_length() + shift for c in p.ints[1:] if c]
        if p.ints and p.ints[0] and p.ints[0].bit_length() + shift >= wtop + 2:
            least.append(p.ints[0].bit_length() + shift - 1)
        if max(least, default=0) + reach > HORNER_BITS_CAP:
            raise CapExceeded("bisection from [%s, %s] on the grid 2^-%d sums terms of at "
                              "least %d bits at degree %d; capped at %d bits"
                              % (a, b, k, max(least) + reach, d, HORNER_BITS_CAP))
    cs = [c << shift for c in p.ints] or [0]
    cs[0] -= wm << (we - f)
    # each term cs[i] * x^i * 2^(k * (d - i)) has at most this many bits
    bits = max(c.bit_length() for c in cs) + reach
    if bits > HORNER_BITS_CAP:
        raise CapExceeded("bisection from [%s, %s] on the grid 2^-%d sums %d-bit terms "
                          "at degree %d; capped at %d bits"
                          % (a, b, k, bits, d, HORNER_BITS_CAP))
    fx = _horner(cs, x, k)
    fy = _horner(cs, y, k)
    sx = (fx > 0) - (fx < 0)
    sy = (fy > 0) - (fy < 0)
    if sx * sy > 0:
        raise BracketViolation(0)
    hit = a if not sx else b if not sy else None
    if hit is None and steps * max(d, 1) > BISECTION_CAP:
        raise CapExceeded("bisection to tol %s takes %d steps at degree %d; "
                          "steps x degree is capped at %d"
                          % (tol, steps, d, BISECTION_CAP))
    return hit, k, x, y, steps, cs, sx


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
    return Topology(n, opens)


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


def topology_from_neighborhood_base(rel):
    """The space of a neighborhood base through the system it generates,
    listed: the base axioms and then the neighborhood axioms of the
    listed system by the scans above, in ascending order, and the
    topology by a membership scan."""
    verdict = check_neighborhood_base_axioms(rel, ascending=True)
    if verdict is not None:
        raise NeighborhoodBaseViolation(*verdict)
    system = neighborhoods_from_base(rel)
    verdict = check_neighborhood_axioms(system, ascending=True)
    if verdict is not None:
        raise NeighborhoodAxiomViolation(*verdict)
    return topology_from_relation(system)


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


def net_from_filter_base(base):
    """The canonical net of a filter base, its order listed as every pair
    of elements (x, B), (y, C) with C inside B."""
    verdict = is_filter_base(base, ascending=True)
    if verdict is not None:
        raise FilterBaseViolation(*verdict)
    elems = [(x, b) for b in base for x in points_of(b)]
    leq = ((i, j) for i, (_, b) in enumerate(elems)
           for j, (_, c) in enumerate(elems) if c & ~b == 0)
    return Net(DirectedSet(len(elems), leq), [x for x, _ in elems], base.n)


def filter_members(system):
    """The filter a base generates: phi of the base."""
    return phi(system)


def is_ultrafilter(members, n):
    """A or its complement is a member, for every subset A."""
    full = full_mask(n)
    present = set(members.sets)
    return all(a in present or full ^ a in present for a in range(1 << n))


def filter_continuity_at(fx, fy, m, x):
    """Whether every member of fy contains the image of some member of
    fx, after the cluster-point preconditions at x and f(x)."""
    if not filter_adherence(m.source, fx) >> x & 1:
        raise ClusterPreconditionFailed("x is not a cluster point of the source filter")
    if not filter_adherence(m.target, fy) >> m.f(x) & 1:
        raise ClusterPreconditionFailed("f(x) is not a cluster point of the target filter")
    for u in fy.members:
        if not any(m.f.image_mask(v) & ~u == 0 for v in fx.members):
            return False
    return True


def supremum_of_filter_bases(bases):
    """Base of the supremum filter: all cross intersections picking one
    member from each base.  Raises EmptyMeet (with the offending
    selection) if some cross intersection is empty, in which case no
    common refinement exists."""
    if not bases:
        raise EmptyArgument("need at least one filter base")
    n = bases[0].n
    for b in bases:
        if b.n != n:
            raise UniverseMismatch("filter bases on different carriers")
        verdict = is_filter_base(b, ascending=True)
        if verdict is not None:
            raise FilterBaseViolation(*verdict)
    meets = set()
    for pick in product(*[b.sets for b in bases]):
        cap = meet_of(pick)
        if cap == 0:
            raise EmptyMeet(pick)
        meets.add(cap)
    return SetSystem(n, meets)


def _all_maps(n_src, n_dst):
    for images in product(range(n_dst), repeat=n_src):
        yield FiniteMap(n_src, n_dst, images)


def check_universal_property(n, pairs, candidate, direction):
    """Verify that candidate is the generated topology by its mapping
    property, quantifying over all test spaces with at most 3 points
    and all maps.  Returns (True, None) or (False, (test_topology, g)).

    inverse: g into the carrier is continuous iff every f_i . g is.
    direct: g out of the carrier is continuous iff every g . f_i is.
    """
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


def is_continuous_on_closed_pieces(m, pieces):
    """Gluing test: X covered by closed sets, each restriction
    continuous.  Returns the gluing verdict (equivalent to global
    continuity when the pieces are closed and cover X)."""
    cover = 0
    for a in pieces:
        cover |= a
        if not is_closed(m.source, a):
            raise UniverseMismatch("piece %r is not closed" % a)
    if cover != full_mask(m.source.n):
        raise UniverseMismatch("pieces do not cover the carrier")
    for a in pieces:
        sub, point_map = subspace_topology(m.source, a)
        restricted = FiniteMap(sub.n, m.target.n, [m.f(p) for p in point_map])
        if not is_continuous(SpaceMap(sub, m.target, restricted)):
            return False
    return True


def validate_pseudometric(matrix):
    """fintopo.metric.validate_pseudometric as it was, on the entries
    themselves: ('pseudo' | 'metric', None) or ('invalid', (reason,
    witness))."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            return 'invalid', ('square', None)
    for x in range(n):
        if matrix[x][x] != 0:
            return 'invalid', ('zero-diagonal', x)
        for y in range(n):
            if matrix[x][y] < 0:
                return 'invalid', ('non-negative', (x, y))
            if matrix[x][y] != matrix[y][x]:
                return 'invalid', ('symmetry', (x, y))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if matrix[x][z] > matrix[x][y] + matrix[y][z]:
                    return 'invalid', ('triangle', (x, y, z))
    metric = all(matrix[x][y] > 0 for x in range(n) for y in range(n) if x != y)
    return ('metric' if metric else 'pseudo'), None


def shape_mismatch(value, shape):
    """jsonio's verdict on a value against a shape or a reader's shape
    name, by a walk of the shape tree: (path, what the shape expects
    there) where the value first departs from it, or None.  A missing
    key reads as null."""
    while isinstance(shape, str) and shape in jsonio.SHAPES:
        shape = jsonio.SHAPES[shape]
    if isinstance(shape, str):
        types, what = jsonio.LEAVES[shape]
        return None if type(value) in types else ('', what)
    if isinstance(shape, dict):
        if type(value) is not dict:
            return '', 'an object'
        keys, values, subs = list(shape), [value.get(k) for k in shape], shape.values()
    else:
        many = shape[-1] == '...'
        if type(value) is not list or not many and len(value) != len(shape):
            return '', 'a list' if many else 'a list of %d' % len(shape)
        leaf = many and isinstance(shape[0], str) and jsonio.LEAVES.get(shape[0])
        if leaf and all(type(v) in leaf[0] for v in value):
            return None
        keys, values, subs = range(len(value)), value, repeat(shape[0]) if many else shape
    for key, v, sub in zip(keys, values, subs):
        found = shape_mismatch(v, sub)
        if found:
            return ('[%d]' % key if type(key) is int else '.' + key) + found[0], found[1]
    return None


def to_fraction(d):
    """The Fraction equal to the Dyadic d."""
    if d.e >= 0:
        return Fraction(d.m * (1 << d.e))
    return Fraction(d.m, 1 << -d.e)


def dyadic_from_fraction(fr):
    """Dyadic.from_fraction as it was: fr read through Fraction(fr)."""
    fr = Fraction(fr)
    den = fr.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise NonDyadicLiteral("%s/%s has a non-power-of-two denominator"
                               % (decimal_digits(fr.numerator), decimal_digits(den)))
    return Dyadic(fr.numerator, -k)


def parse_dyadic(text):
    """Dyadic.parse as it was, reading 'p/q', decimals and exponents by
    decimal_fraction and then dyadic_from_fraction: two Fractions."""
    text = text.strip()
    if '*2^' in text:
        m, _, e = text.partition('*2^')
        return Dyadic(decimal_int(m), decimal_int(e))
    if text.startswith('2^'):
        return Dyadic(1, decimal_int(text[2:]))
    if text.startswith('-2^'):
        return Dyadic(-1, decimal_int(text[3:]))
    if '/' in text or '.' in text or 'e' in text or 'E' in text:
        return dyadic_from_fraction(decimal_fraction(text))
    return Dyadic(decimal_int(text))


def preorder_kernels(n):
    """Every kernel U on n points, as a tuple, by a recursive search:
    U[x] is chosen for x = 0..n-1 in turn, descending, among the sets
    holding x inside every earlier U[y] that holds x, and kept if it
    contains the earlier U[y] of each earlier y in it."""
    full = full_mask(n)
    u = [0] * n

    def choose(x):
        if x == n:
            yield tuple(u)
            return
        bit = 1 << x
        free = full
        for y in range(x):
            if u[y] & bit:
                free &= u[y]
        free ^= bit
        s = free
        while True:
            ux = s | bit
            if all(u[y] & ~ux == 0 for y in points_of(ux & (bit - 1))):
                u[x] = ux
                yield from choose(x + 1)
            if not s:
                break
            s = (s - 1) & free

    return choose(0)


def topologies_by_opens(n):
    """The kernels of the topologies on n points, in the order of their
    opens, each opens list built from the kernel by union_closure."""
    return sorted(preorder_kernels(n), key=lambda u: union_closure(n, u).sets)
