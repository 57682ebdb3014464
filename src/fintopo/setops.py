"""Set systems on a finite carrier, encoded as int bit masks.

The carrier is {0, ..., n-1} with n <= 20.  A subset is an int whose bit i
is set iff point i belongs to the subset.  A set system is a canonical
(sorted, deduplicated) tuple of such masks.  On top of that encoding this
module provides the four structural operators used everywhere else:

  psi        all intersections of nonempty subfamilies
  theta      all unions of nonempty subfamilies (union_closure)
  phi        all supersets of members
  phi_prime  pointwise phi on a point/set relation

The empty intersection and the empty union are never formed: psi and
theta of the empty system are the empty system.  The questions the
axioms ask of a family are answered here once each: its meet (meet_of),
whether it is every superset of its core (is_up_set), two minimal
members whose meet is no member (two_minimal), and the first pair at
which a relation fails transitivity (intransitive_pair).
"""

from .errors import CapExceeded, UniverseMismatch

MAX_N = 20


def check_carrier(n):
    """Raise CapExceeded unless 0 <= n <= MAX_N."""
    if not 0 <= n <= MAX_N:
        raise CapExceeded("carrier size %d outside 0..%d" % (n, MAX_N))


def check_same_carrier(n1, n2):
    """Raise UniverseMismatch unless n1 == n2, naming them in that order."""
    if n1 != n2:
        raise UniverseMismatch("carriers differ: %d vs %d" % (n1, n2))


def full_mask(n):
    return (1 << n) - 1


def mask_of(points, n=None):
    """Build a mask from an iterable of point indices."""
    m = 0
    for p in points:
        if p < 0 or (n is not None and p >= n):
            raise UniverseMismatch("point %d outside carrier of size %r" % (p, n))
        m |= 1 << p
    return m


def points_of(mask):
    """Sorted list of point indices of a mask."""
    if mask < 0:
        raise UniverseMismatch("negative mask %d is not a set of points" % mask)
    pts = []
    while mask:
        low = mask & -mask
        pts.append(low.bit_length() - 1)
        mask ^= low
    return pts


def supermasks(mask, n):
    """All supersets of mask inside the carrier of size n, ascending.

    Built by doubling: each point outside mask, lowest first, adds its
    bit to a copy of the list so far.  That bit is above every bit
    added before it, so the list stays ascending.
    """
    out = [mask]
    comp = full_mask(n) & ~mask
    while comp:
        low = comp & -comp
        out += [m | low for m in out]
        comp ^= low
    return out


def meet_of(sets):
    """The intersection of the given masks, or -1 (every point) if there
    are none."""
    meet = -1
    for m in sets:
        meet &= m
    return meet


def is_up_set(members, core, n):
    """Whether the distinct members, all supersets of core, are every
    superset of core in the carrier of size n: iff there are
    2^(n - |core|) of them."""
    return len(members) == 1 << n - core.bit_count()


def two_minimal(members):
    """(a, b): a the least of the ascending members, b the least member
    not containing a, which exists when a is not the meet of the
    members.  Both are minimal: a member inside a is no larger, so it is
    a; a member inside b does not contain a either and is no larger, so
    it is b.  They differ, so no member lies inside a & b."""
    a = members[0]
    return a, next(m for m in members if a & ~m)


def intransitive_pair(rows):
    """The first (i, j), i then j ascending, with j in rows[i] and
    rows[j] not inside rows[i], or None if the relation whose row i is
    the mask rows[i] is transitive.  A row equal to one that passed
    passes too, so it is not scanned again."""
    passed = set()
    for i, row in enumerate(rows):
        if row in passed:
            continue
        for j in points_of(row):
            if rows[j] & ~row:
                return i, j
        passed.add(row)
    return None


def upward_gap(sets, n):
    """The least set of phi(S) that is not in S, or None if S is upward
    closed, for S the given masks.

    Every set of phi(S) outside S contains one that is a member with
    one point added: walk up from the member one point at a time to
    the first set outside S.  That one is no larger, so the least is
    found among the one-point extensions of the members.
    """
    members = set(sets)
    full = full_mask(n)
    gaps = [m | 1 << p for m in members for p in points_of(full & ~m)
            if m | 1 << p not in members]
    return min(gaps, default=None)


class SetSystem:
    """A canonical family of subsets of {0,...,n-1}.

    The frozenset behind membership tests (members) is built on the
    first test, not here: most systems are never probed.
    """

    __slots__ = ('n', 'sets', '_members')

    def __init__(self, n, sets=()):
        check_carrier(n)
        full = full_mask(n)
        canon = sorted(set(sets))
        # sorted, so a mask off the carrier shows at one end; the loop
        # names the first one
        if canon and (canon[0] < 0 or canon[-1] > full):
            for m in canon:
                if m < 0 or m & ~full:
                    raise UniverseMismatch("mask %d not a subset of carrier of size %d" % (m, n))
        self.n = n
        self.sets = tuple(canon)

    @classmethod
    def _canonical(cls, n, sets):
        """The system of sets, which the caller guarantees to be distinct
        masks on the carrier of size n in ascending order: nothing is
        checked."""
        s = cls.__new__(cls)
        s.n = n
        s.sets = tuple(sets)
        return s

    def __eq__(self, other):
        return isinstance(other, SetSystem) and self.n == other.n and self.sets == other.sets

    def __hash__(self):
        return hash((self.n, self.sets))

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, mask):
        try:
            return mask in self._members
        except AttributeError:
            return mask in self.members

    @property
    def members(self):
        """The frozenset of the masks, built on first use and kept:
        membership tests and the topology check read it."""
        try:
            return self._members
        except AttributeError:
            pass
        self._members = frozenset(self.sets)
        return self._members

    def __le__(self, other):
        """Subfamily test (same carrier required)."""
        check_same_carrier(self.n, other.n)
        return set(self.sets) <= set(other.sets)

    def __repr__(self):
        return 'SetSystem(%d, %r)' % (self.n, list(self.sets))

    def union_mask(self):
        u = 0
        for m in self.sets:
            u |= m
        return u

    def complements(self):
        """The system of complements of the members: taken in reverse
        order they ascend, so nothing is sorted."""
        full = full_mask(self.n)
        return SetSystem._canonical(self.n, [full ^ m for m in reversed(self.sets)])

    def with_sets(self, sets):
        return SetSystem(self.n, sets)


def powerset_system(n):
    return SetSystem(n, range(1 << n))


def union_closure(masks, n):
    """The SetSystem on n points of the empty set and every union of the
    given masks, which lie on the carrier, built one distinct mask at a
    time: each joins every set so far."""
    sets = {0}
    for m in set(masks):
        sets |= {o | m for o in sets}
    return SetSystem._canonical(n, sorted(sets))


def theta(system):
    """All unions of nonempty subfamilies.  O(|S| * |theta(S)|)."""
    return SetSystem._canonical(system.n, _unions(system.sets, system.n))


def psi(system):
    """All intersections of nonempty subfamilies: the complements of the
    unions of the complements, since the intersection of a family is the
    complement of the union of its complements."""
    full = full_mask(system.n)
    dual = _unions([full ^ m for m in reversed(system.sets)], system.n)
    return SetSystem._canonical(system.n, [full ^ m for m in reversed(dual)])


def _unions(sets, n):
    """The unions of nonempty subfamilies of the ascending masks sets,
    ascending: their union closure, without the empty union unless the
    empty set is one of them."""
    out = union_closure(sets, n).sets
    return out if sets and not sets[0] else out[1:]


def phi(system):
    """All supersets (within the carrier) of members of the system."""
    out = set()
    for m in system.sets:
        out.update(supermasks(m, system.n))
    return system.with_sets(out)


class PointSetRelation:
    """A relation between points and subsets, kept as its sections:
    sections[x] is R{x}, the system of sets related to point x.

    Built from (point, mask) pairs, or by relation_from_sections.  Over
    a subset A there are two derived sections: R<A>, the sets related
    to every point of A, and R[A], the sets related to some point of A.
    """

    __slots__ = ('n', 'sections')

    def __init__(self, n, pairs=()):
        check_carrier(n)
        full = full_mask(n)
        sections = [[] for _ in range(n)]
        for x, m in sorted(set(pairs)):
            if not 0 <= x < n:
                raise UniverseMismatch("point %d outside carrier of size %d" % (x, n))
            if m < 0 or m & ~full:
                raise UniverseMismatch("mask %d not a subset of carrier of size %d" % (m, n))
            sections[x].append(m)
        self.n = n
        self.sections = tuple(SetSystem(n, sec) for sec in sections)

    @property
    def pairs(self):
        """The (point, mask) pairs, by point, then by mask."""
        return tuple((x, m) for x, sec in enumerate(self.sections) for m in sec.sets)

    def __eq__(self, other):
        return (isinstance(other, PointSetRelation)
                and self.n == other.n and self.sections == other.sections)

    def __hash__(self):
        return hash((self.n, self.sections))

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return sum(len(sec) for sec in self.sections)

    def __repr__(self):
        return 'PointSetRelation(%d, %r)' % (self.n, list(self.pairs))

    def section(self, x):
        """R{x}: the system of sets related to point x, empty for a
        point outside the carrier."""
        return self.sections[x] if 0 <= x < self.n else SetSystem(self.n)

    def _check_subset(self, a_mask):
        if a_mask < 0 or a_mask & ~full_mask(self.n):
            raise UniverseMismatch("mask %d not a subset of carrier of size %d" % (a_mask, self.n))

    def union_section(self, a_mask):
        """R[A]: union of the sections over the points of A."""
        self._check_subset(a_mask)
        return SetSystem(self.n, [m for x, sec in enumerate(self.sections)
                                  if a_mask >> x & 1 for m in sec.sets])

    def meet_section(self, a_mask):
        """R<A>: sets related to *every* point of A.  R<empty> = powerset."""
        self._check_subset(a_mask)
        if a_mask == 0:
            return powerset_system(self.n)
        sections = [set(self.section(x).sets) for x in points_of(a_mask)]
        common = set.intersection(*sections)
        return SetSystem(self.n, common)


def relation_from_sections(n, sections):
    """Build a relation from a per-point list of systems (index = point).
    A point past the end of the list relates to no set; a system kept
    at an index past the carrier must be empty."""
    check_carrier(n)
    kept = []
    for x, sec in enumerate(sections):
        if x < n:
            kept.append(sec if isinstance(sec, SetSystem) and sec.n == n else SetSystem(n, sec))
        elif list(sec):
            raise UniverseMismatch("point %d outside carrier of size %d" % (x, n))
    kept += [SetSystem(n)] * (n - len(kept))
    rel = PointSetRelation.__new__(PointSetRelation)
    rel.n = n
    rel.sections = tuple(kept)
    return rel


def phi_prime(relation):
    """Pointwise superset closure: (phi' R){x} = phi(R{x}) for every x."""
    return relation_from_sections(relation.n, [phi(sec) for sec in relation.sections])


def byte_tables(masks):
    """For masks[i], the mask of point i, i < 24: the mask of all the
    points, and three lookup tables, one per 8 points.  Table j at
    index b is the union of masks[8j + i] over the bits i of b.  Each
    is a list built by doubling: mask i adds a copy of the table so
    far, each entry joined with mask i.  A table past the last point is
    [0].  For a mask A, the union over its points is
    t0[A & 255] | t1[A >> 8 & 255] | t2[A >> 16] once A is cut to the
    points: byte_union."""
    tables = [(1 << len(masks)) - 1]
    for j in (0, 8, 16):
        t = [0]
        for m in masks[j:j + 8]:
            t += [v | m for v in t]
        tables.append(t)
    return tuple(tables)


def byte_union(tables, mask):
    """The union of the point masks over the points of mask, read from
    their byte tables (byte_tables) with one lookup per 8 points; bits
    of mask off the points are ignored."""
    full, t0, t1, t2 = tables
    mask &= full
    return t0[mask & 255] | t1[mask >> 8 & 255] | t2[mask >> 16]


class FiniteMap:
    """A map {0..n_src-1} -> {0..n_dst-1} stored as the tuple of images.

    Images and preimages are additive, f[A | B] = f[A] | f[B], so each
    is read from three byte tables by byte_union, one lookup per 8
    points of the mask, once the bits off the carrier are cleared; both
    carriers hold at most MAX_N = 20 <= 24 points.  The image tables,
    over the source points, and the preimage tables, over the fibers of
    the target points, are each built on first use and kept
    (image_tables, preimage_tables).  Equality and the hash read only
    n_src, n_dst and images.
    """

    __slots__ = ('n_src', 'n_dst', 'images', '_image_tables', '_preimage_tables')

    def __init__(self, n_src, n_dst, images):
        images = tuple(images)
        if len(images) != n_src:
            raise UniverseMismatch("expected %d images, got %d" % (n_src, len(images)))
        for y in images:
            if not 0 <= y < n_dst:
                raise UniverseMismatch("image %d outside carrier of size %d" % (y, n_dst))
        check_carrier(n_src)
        check_carrier(n_dst)
        self.n_src = n_src
        self.n_dst = n_dst
        self.images = images

    def __eq__(self, other):
        return (isinstance(other, FiniteMap) and self.n_src == other.n_src
                and self.n_dst == other.n_dst and self.images == other.images)

    def __hash__(self):
        return hash((self.n_src, self.n_dst, self.images))

    def __call__(self, x):
        return self.images[x]

    def __repr__(self):
        return 'FiniteMap(%d, %d, %r)' % (self.n_src, self.n_dst, list(self.images))

    @property
    def image_tables(self):
        """The byte tables of the images of the source points."""
        try:
            return self._image_tables
        except AttributeError:
            self._image_tables = tables = byte_tables([1 << y for y in self.images])
            return tables

    @property
    def preimage_tables(self):
        """The byte tables of the fibers of the target points."""
        try:
            return self._preimage_tables
        except AttributeError:
            fibers = [0] * self.n_dst
            for x, y in enumerate(self.images):
                fibers[y] |= 1 << x
            self._preimage_tables = tables = byte_tables(fibers)
            return tables

    def image_mask(self, mask):
        """f[A] as a mask on the target carrier, from the points of A
        on the source carrier."""
        return byte_union(self.image_tables, mask)

    def preimage_mask(self, mask):
        """f^-1[B] as a mask on the source carrier: the union of the
        fibers over the points of B on the target carrier."""
        return byte_union(self.preimage_tables, mask)

    def image_system(self, system):
        """f[[S]]: the system of images of the members of S."""
        _require(system.n == self.n_src, "system lives on the wrong carrier")
        return SetSystem(self.n_dst, [self.image_mask(m) for m in system])

    def preimage_system(self, system):
        """f^-1[[S]]: the system of preimages of the members of S."""
        _require(system.n == self.n_dst, "system lives on the wrong carrier")
        return SetSystem(self.n_src, [self.preimage_mask(m) for m in system])

    def is_surjective(self):
        return self.image_mask(full_mask(self.n_src)) == full_mask(self.n_dst)

    def is_injective(self):
        return len(set(self.images)) == self.n_src

    def compose(self, other):
        """self after other: (self . other)(x) = self(other(x))."""
        _require(other.n_dst == self.n_src, "composition carriers do not match")
        return FiniteMap(other.n_src, self.n_dst,
                         [self.images[y] for y in other.images])

    def inverse(self):
        _require(self.is_injective() and self.is_surjective(), "map is not bijective")
        inv = [0] * self.n_dst
        for x, y in enumerate(self.images):
            inv[y] = x
        return FiniteMap(self.n_dst, self.n_src, inv)


def identity_map(n):
    return FiniteMap(n, n, range(n))


def _require(cond, msg):
    if not cond:
        raise UniverseMismatch(msg)
