"""Finite topologies: validation, generation from (sub)bases, closed-set
duality, comparison, and exhaustive enumeration up to n = 5."""

import struct
from functools import cache, cached_property

from .errors import (BaseCriterionViolation, CapExceeded, ClosedAxiomViolation,
                     SubbaseCriterionViolation, UniverseMismatch)
from .setops import (MAX_N, SetSystem, byte_tables, check_carrier, check_same_carrier,
                     full_mask, meet_of, relation_from_sections, supermasks,
                     two_minimal, union_closure)


class Topology:
    """A finite topology, kept as its kernel U (minimal_opens): U_x is
    the smallest open set holding the point x, and the opens are the
    unions of the U_x (Alexandrov).  Equality and the hash go by the
    kernel.

    The opens are given to Topology(n, opens), or else built on their
    first read and kept.  The homeomorphism invariant shape_key is kept
    in a slot.  The views, what else the space derives from its kernel,
    are each a cached_property, built on first read and kept in the
    instance dict, so a space that reads none keeps an empty one.
    """

    __slots__ = ('n', '_kernel', '_opens', '_shape_key', '_shape', '__dict__')

    def __init__(self, n, opens):
        """The space with these opens, which must satisfy the open-set
        axioms: raises BaseCriterionViolation, named as by is_topology,
        when they do not.  The kernel the check computes is kept as
        minimal_opens."""
        system = opens if isinstance(opens, SetSystem) else SetSystem(n, opens)
        if system.n != n:
            raise UniverseMismatch("open system lives on carrier %d, not %d" % (system.n, n))
        u = kernel_of(system.sets, n)
        verdict = _open_fault(system, u)
        if verdict is not None:
            axiom, witness = verdict
            raise BaseCriterionViolation(axiom, witness,
                                         "not a topology: %s fails (witness %r)" % (axiom, witness))
        self.n = n
        self._opens = system
        self._kernel = tuple(u)

    @classmethod
    def from_kernel(cls, n, u):
        """The topology whose minimal open sets are u, kept as its
        minimal_opens.  Its opens, the empty set and the unions of the
        u[x], are built when first read.

        u must be a preorder kernel: x in u[x], and y in u[x] implies
        u[y] inside u[x].  That is trusted, not checked.  Raises
        CapExceeded unless 0 <= n <= MAX_N.
        """
        check_carrier(n)
        t = cls.__new__(cls)
        t.n = n
        t._kernel = tuple(u)
        t._opens = None
        return t

    def __eq__(self, other):
        return isinstance(other, Topology) and self.n == other.n and self._kernel == other._kernel

    def __hash__(self):
        return hash((self.n, self._kernel))

    def __repr__(self):
        return 'Topology.from_kernel(%d, %r)' % (self.n, list(self._kernel))

    @property
    def opens(self):
        """The SetSystem of open sets: the empty set and the unions of
        the U_x.  Built on first read, unless given, and kept in the
        slot _opens, which holds None until then."""
        if self._opens is None:
            self._opens = union_closure(self._kernel, self.n)
        return self._opens

    def is_open(self, mask):
        """Whether the mask is an open set: a mask on the carrier that
        holds U_x at each of its points x."""
        return mask & ((1 << self.n) - 1) == mask and self._holds_kernel(mask)

    def is_closed(self, mask):
        """Whether the mask is a closed set: a mask on the carrier whose
        complement is open."""
        full = (1 << self.n) - 1
        return mask & full == mask and self._holds_kernel(full ^ mask)

    def _holds_kernel(self, mask):
        """Whether U_x lies inside the mask for each point x of the mask,
        one kernel entry a point, so the test builds nothing."""
        u = self._kernel
        rest = mask
        while rest:
            low = rest & -rest
            if u[low.bit_length() - 1] & ~mask:
                return False
            rest ^= low
        return True

    def closed_sets(self):
        """The SetSystem of closed sets, the complements of the opens."""
        return self.opens.complements()

    @property
    def minimal_opens(self):
        """U: U[x] is the intersection of the opens containing x, the
        smallest open neighborhood of x (Alexandrov).  The opens are
        exactly the unions of these n masks, so they determine the
        topology."""
        return self._kernel

    @property
    def shape_key(self):
        """The sorted point_shapes packed into one int: equal for
        homeomorphic spaces.  One int, not a tuple, so that keeping it
        on every space costs little memory.

        Computing it also keeps, in the slot _shape, the point_closures
        and then the point_shapes as one flat tuple of 2n ints, which
        the homeomorphism search reads rather than computes again."""
        try:
            return self._shape_key
        except AttributeError:
            pass
        u = self._kernel
        closures = point_closures(u)
        shapes = point_shapes(u, closures)
        key = 0
        for s in sorted(shapes):
            key = key << 2 * _SHAPE_BITS | s
        self._shape = (*closures, *shapes)
        self._shape_key = key
        return key

    # --- the views, each derived from the kernel on its first read ---

    @cached_property
    def point_closures(self):
        return point_closures(self._kernel)

    @cached_property
    def closure_table(self):
        return closure_table(self.point_closures)

    @cached_property
    def closure_bytes(self):
        """The byte tables (setops.byte_tables) of the point closures:
        closure is additive, so cl(A) is one lookup per 8 points of A."""
        return byte_tables(self.point_closures)

    @cached_property
    def derived_bytes(self):
        """The byte tables of the point closures with the point itself
        removed: x is a limit point of A iff cl{y} holds x for some y in A
        other than x, so the derived set is additive too."""
        return byte_tables([c & ~(1 << y) for y, c in enumerate(self.point_closures)])

    @cached_property
    def minimal_base(self):
        """The empty set and the U_x; see minimal_base."""
        return SetSystem(self.n, (0,) + self._kernel)


def kernel_of(sets, n):
    """u[x] is the intersection of the given masks that contain x, or
    the whole carrier if none does.  sets is a sequence, read once per
    point."""
    full = full_mask(n)
    u = []
    for x in range(n):
        bit = 1 << x
        meet = full
        for m in sets:
            if m & bit:
                meet &= m
        u.append(meet)
    return u


# every count in a point shape is at most MAX_N = 20 < 2^5
_SHAPE_BITS = 5


def point_closures(u):
    """The transpose of the kernel u, whose masks lie on the carrier:
    entry y is {x : y in U_x}, the closure of {y}.  A tuple.

    The n masks are packed as the rows of a w x w bit matrix in one int,
    w = 8, 16 or 32, and it is transposed by a few big-int delta swaps
    over all its bits at once (see _swap_steps)."""
    rows, steps = _TRANSPOSE[len(u)]
    a = int.from_bytes(rows.pack(*u), 'little')
    for d, m in steps:
        t = (a ^ a >> d) & m
        a ^= t ^ t << d
    return rows.unpack(a.to_bytes(rows.size, 'little'))


def _swap_steps(w):
    """The delta swaps, (distance, mask), that transpose a w x w bit
    matrix kept in one int, row x in bits x*w to x*w + w - 1.  For each
    block size j = w/2, ..., 1 the bit (x, y) with x & j clear and y & j
    set trades places with (x + j, y - j), j*(w - 1) bits higher; the
    mask holds the lower bit of each pair (Warren, Hacker's Delight, 2nd
    ed., 2012, section 7-3)."""
    steps = []
    j = w >> 1
    while j:
        row = sum(1 << y for y in range(w) if y & j)
        steps.append((j * (w - 1), sum(row << x * w for x in range(w) if not x & j)))
        j >>= 1
    return tuple(steps)


def _transpose_plan(n):
    """The struct of n masks on n points as the rows of a square bit
    matrix of side w = 8, 16 or 32, little-endian, the w - n rows past
    them zero pad bytes, with the swaps that transpose it."""
    w, code = (8, 'B') if n <= 8 else (16, 'H') if n <= 16 else (32, 'I')
    return struct.Struct('<%d%s%dx' % (n, code, (w - n) * w // 8)), _SWAPS[w]


_SWAPS = {w: _swap_steps(w) for w in (8, 16, 32)}
# _TRANSPOSE[n], for n = 0..MAX_N: see _transpose_plan
_TRANSPOSE = tuple(_transpose_plan(n) for n in range(MAX_N + 1))


def _lane_structs(n):
    """The structs of a table of 2^n masks on n points, one lane a mask,
    little-endian then big-endian: lanes 1 byte wide for n <= 8, 2 for
    n <= 16, else 4 (struct's standard sizes)."""
    fmt = '%d%s' % (1 << n, 'B' if n <= 8 else 'H' if n <= 16 else 'I')
    return struct.Struct('<' + fmt), struct.Struct('>' + fmt)


# _LANES[n][0] and _LANES[n][1], for n = 0..MAX_N: see _lane_structs
_LANES = tuple(_lane_structs(n) for n in range(MAX_N + 1))


def _lane_bytes(closures, dual):
    """The closure table of the point closures, or with dual the table
    of A -> X minus cl(X minus A), as the bytes _LANES[n][dual] reads.

    Closure is additive, so each point y adds a copy of the table so
    far, each entry joined with cl{y}, at the subsets that hold y.  The
    table is kept in the lanes of one int, lane A from the low end
    holding cl(A), so each doubling is a few big-int operations over
    all the lanes at once (SWAR; Warren, Hacker's Delight, 2nd ed.,
    2012, section 2).  For the dual each lane is complemented on the
    carrier and the bytes are taken from the high end, which puts lane
    X minus A at A."""
    n = len(closures)
    size = _LANES[n][0].size
    # the bits in the lanes so far, from one lane's width
    shift = 8 * size >> n
    x, ones = 0, 1
    for c in closures:
        x |= (x | c * ones) << shift
        ones |= ones << shift
        shift <<= 1
    if not dual:
        return x.to_bytes(size, 'little')
    return (x ^ full_mask(n) * ones).to_bytes(size, 'big')


def closure_table(closures):
    """closure(A) for every subset A, as a tuple, given the closure of
    each point, which lie on the carrier."""
    return _LANES[len(closures)][0].unpack(_lane_bytes(closures, False))


def interior_table(closures):
    """interior(A) = X minus closure(X minus A) for every subset A, as a
    tuple, given the closure of each point, which lie on the carrier."""
    return _LANES[len(closures)][1].unpack(_lane_bytes(closures, True))


def is_closure_table(t, n, dual=False):
    """Whether the tuple t of 2^n masks on the carrier, or with dual
    f(A) = X minus t(X minus A), is the closure table of f's values at
    the points, each holding its point and fixed by f: the closure
    operators are exactly such tables.  t is compared packed, as bytes,
    so no second tuple of 2^n ints is built."""
    flip = full_mask(n) if dual else 0
    points = [flip ^ t[flip ^ 1 << x] for x in range(n)]
    return (all(c >> x & 1 and flip ^ t[flip ^ c] == c for x, c in enumerate(points))
            and _LANES[n][dual].pack(*t) == _lane_bytes(points, dual))


def point_shapes(u, closures):
    """For each point x, (|U_x|, |closure of {x}|) packed as one int,
    given the kernel u and its point_closures.  A homeomorphism carries
    each point to one of the same shape."""
    return [ux.bit_count() << _SHAPE_BITS | cx.bit_count() for ux, cx in zip(u, closures)]


def is_topology(system):
    """None if the system is a topology, else (failed-axiom, witness).

    Axioms: (i) contains the empty set and the whole carrier,
    (ii) closed under unions of nonempty subfamilies,
    (iii) closed under intersections of nonempty finite subfamilies.

    Decided on the kernel U of the system (kernel_of) in O(n * |S|):
    beyond (i), it is a topology iff every U_x and every o | U_x, o a
    member, is a member.  Each member a is then the union of the U_x
    over x in a, so a | b and a & b are unions of U_x built one U_x at
    a time.  The witness is a pair (a, b), a < b, of members:
      - unions first: for x ascending, skipping any x whose U_x is not a
        member, and for o ascending, the first o | U_x that is not a
        member names ('union-closed', (min, max) of o and U_x);
      - then meets: at the least x whose U_x is not a member, see
        _meet_fault, ('intersection-closed', (a, b)).
    """
    return _open_fault(system, kernel_of(system.sets, system.n))


def _open_fault(system, u):
    """is_topology's verdict, given the kernel u of the system.  It reads
    the system's own membership set, which the system keeps."""
    sets = system.sets
    members = system.members
    if 0 not in members:
        return ('contains-empty', 0)
    full = full_mask(system.n)
    if full not in members:
        return ('contains-whole', full)
    for ux in u:
        if ux in members:
            for o in sets:
                if o | ux not in members:
                    return ('union-closed', (o, ux) if o < ux else (ux, o))
    return _meet_fault(sets, members, u, 'intersection-closed')


def _meet_fault(sets, members, u, axiom):
    """None if every u[x] is a member, else (axiom, (a, b)) at the least
    x whose u[x] is not: the two_minimal pair of the ascending members
    holding x, which exists as u[x], their meet, is not one of them.
    No member holding x lies inside a & b, so that meet is neither a
    member nor a union of members."""
    for x, ux in enumerate(u):
        if ux not in members:
            bit = 1 << x
            return (axiom, two_minimal([m for m in sets if m & bit]))
    return None


def discrete_topology(n):
    return Topology.from_kernel(n, [1 << x for x in range(n)])


def indiscrete_topology(n):
    return Topology.from_kernel(n, [full_mask(n)] * n)


def sierpinski():
    """Carrier {0,1} with {1} open (and {0} not)."""
    return Topology.from_kernel(2, [0b11, 0b10])


def is_base_system(system):
    """None, or (criterion, witness) if system fails the base criteria.

    Criteria: the empty set is a member, the members cover the carrier,
    and every pairwise intersection of members is a union of members.
    Given the cover, the last holds iff every U_x of the kernel U of the
    system (kernel_of) is a member: a & b is then the union of the U_x
    over x in a & b.  Its witness is is_topology's meet witness, named
    ('intersections-are-unions', (a, b)); see _meet_fault.
    """
    sets = system.sets
    members = set(sets)
    if 0 not in members:
        return ('contains-empty', 0)
    cover = system.union_mask()
    if cover != full_mask(system.n):
        return ('covers-carrier', cover)
    return _meet_fault(sets, members, kernel_of(sets, system.n), 'intersections-are-unions')


def generate_from_base(system):
    """The topology with the given base; raises if the criteria fail."""
    verdict = is_base_system(system)
    if verdict is not None:
        raise BaseCriterionViolation(*verdict)
    return Topology.from_kernel(system.n, kernel_of(system.sets, system.n))


def is_subbase_system(system):
    """None, or the failed subbase criterion.

    Criteria: the system is nonempty, its members cover the carrier, and
    some nonempty subfamily has empty intersection (so the generated
    system picks up the empty set), that is, the whole system does.
    """
    if len(system) == 0:
        return 'nonempty'
    if system.union_mask() != full_mask(system.n):
        return 'covers-carrier'
    if meet_of(system.sets) != 0:
        return 'empty-set-reachable'
    return None


def generate_from_subbase(system):
    """The coarsest topology containing the system: theta(psi(system))."""
    verdict = is_subbase_system(system)
    if verdict is not None:
        raise SubbaseCriterionViolation(verdict)
    return Topology.from_kernel(system.n, kernel_of(system.sets, system.n))


def is_base_of(system, topology):
    """Whether the system is a base of the given topology: it holds the
    empty set and every U_x, and all its members are open."""
    check_same_carrier(system.n, topology.n)
    members, is_open = system.members, topology.is_open
    return (0 in members and all(u in members for u in topology.minimal_opens)
            and all(is_open(m) for m in system.sets))


def minimal_base(topology):
    """The unique minimal base: the empty set (which every base must
    contain) and the minimal open neighborhoods U_x, which are exactly
    the opens that are not unions of strictly smaller opens.  Kept on
    the space."""
    return topology.minimal_base


def topology_from_closed_system(system):
    """Topology whose closed sets are exactly the given system.  The
    closed-set axioms are the open-set axioms, so the system is checked
    as is_topology checks it, raising ClosedAxiomViolation with its
    verdict.  The kernel of the system gives the closure of each point,
    and U is its transpose."""
    u = kernel_of(system.sets, system.n)
    verdict = _open_fault(system, u)
    if verdict is not None:
        raise ClosedAxiomViolation(*verdict)
    return Topology.from_kernel(system.n, point_closures(u))


def is_finer(t1, t2):
    """Whether t1 is finer than t2 (every t2-open is t1-open): each
    U2_x is t1-open iff U1_x lies inside U2_x at every point x."""
    check_same_carrier(t1.n, t2.n)
    return all(a & ~b == 0 for a, b in zip(t1.minimal_opens, t2.minimal_opens))


def compare(t1, t2):
    """'equal', 'strictly-finer', 'strictly-coarser' or 'incomparable'
    (t1 relative to t2)."""
    return fineness(is_finer(t1, t2), is_finer(t2, t1))


def fineness(finer, coarser):
    """The verdict of compare from whether t1 is finer than t2 and
    whether it is coarser."""
    if finer and coarser:
        return 'equal'
    if finer:
        return 'strictly-finer'
    if coarser:
        return 'strictly-coarser'
    return 'incomparable'


def neighborhood_relation(topology):
    """The neighborhood relation of the topology as a PointSetRelation:
    the neighborhoods of x are the supersets of U_x."""
    n = topology.n
    return relation_from_sections(n, [supermasks(u, n) for u in topology.minimal_opens])


def enumerate_topologies(n, count_only=False):
    """All topologies on {0..n-1}, sorted by their opens.  n <= 5.

    A topology is its kernel U (Alexandrov): a preorder on the points,
    with y in U_x meaning y lies below x.  The kernels are listed by
    _kernel_walk, which also gives each one its opens as a bitset, bit
    2^n - 1 - a set for each open a (see _opens_rows).  Both opens lists
    end with the whole carrier, so neither is a prefix of the other,
    and one sorts first iff the least mask in exactly one of them is
    its own, that is, iff its bitset is the larger.  So the kernels are
    sorted by their bitsets, descending, and each space is built by
    Topology.from_kernel alone: its opens are not built until read.
    With count_only, the number of topologies is returned instead.
    """
    if n > 5:
        raise CapExceeded("enumeration supported only for n <= 5")
    check_carrier(n)
    found = _kernel_walk(n)
    if count_only:
        return len(found)
    # the bitsets differ, so two kernels are never compared
    found.sort(reverse=True)
    # each entry gives way to its space, so no second list is held
    for i, (_, u, _) in enumerate(found):
        found[i] = Topology.from_kernel(n, u)
    return found


def _kernel_walk(n):
    """(key, U, _) for every kernel U on n points, in a list: x in U[x],
    and y in U[x] implies U[y] inside U[x].  key is the AND of
    _opens_rows(n)[x][U[x]] over the points x, starting from
    2^(2^n) - 1; the third entry is the walk's own.

    U[x] is chosen for x = 0..n-1 in turn, descending, among the sets
    holding x inside every earlier U[y] that holds x, and kept if it
    contains the earlier U[y] of each earlier y in it; a later y in it
    is checked when U[y] is chosen.  Each partial kernel carries the
    table of the unions of its U[y] over every subset of the points
    chosen so far, so that check is one lookup.  The kernels are grown
    one point at a time, level by level, each partial kernel's children
    in turn, so the list comes out in the order of a depth-first walk.
    """
    full = full_mask(n)
    rows = _opens_rows(n)
    level = [((1 << (1 << n)) - 1, (), (0,))]
    for x in range(n):
        bit = 1 << x
        low = bit - 1
        row = rows[x]
        last = x == n - 1
        grown = []
        for key, u, unions in level:
            free = full
            for uy in u:
                if uy & bit:
                    free &= uy
            free ^= bit
            s = free
            while True:
                ux = s | bit
                if not unions[s & low] & ~ux:
                    grown.append((key & row[ux], u + (ux,),
                                  None if last else unions + tuple([m | ux for m in unions])))
                if not s:
                    break
                s = (s - 1) & free
        level = grown
    return level


@cache
def _opens_rows(n):
    """For each point x, the bitsets over the 2^n masks a, indexed by a
    value v of U_x, with bit 2^n - 1 - a set when x is not in a or v
    lies inside a.  The AND of rows[x][U[x]] over the points is the
    bitset of the opens of U, bit-reversed.  Built on the first
    enumeration at n, not on import."""
    top = full_mask(n)
    return tuple(tuple(sum(1 << top - a for a in range(top + 1) if not a >> x & 1 or not v & ~a)
                       for v in range(top + 1))
                 for x in range(n))
