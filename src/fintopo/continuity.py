"""Continuity of maps between finite spaces: local and global tests,
the equivalent global characterizations, open/closed maps, and
homeomorphisms."""

from .convergence import filter_adherence
from .errors import (CapExceeded, ClusterPreconditionFailed, IndexOutOfRange,
                     UniverseCardinalityMismatch, UniverseMismatch)
from .setops import FiniteMap


class SpaceMap:
    """A map together with source and target topologies."""

    __slots__ = ('source', 'target', 'f')

    def __init__(self, source, target, f):
        if f.n_src != source.n or f.n_dst != target.n:
            raise UniverseMismatch("map carriers do not match the spaces")
        self.source = source
        self.target = target
        self.f = f

    def __repr__(self):
        return 'SpaceMap(%r)' % (list(self.f.images),)


def is_continuous(m):
    """Continuous at every point: f[U_x] lies inside U_f(x) for each x.
    (continuous_via_opens is the open-set definition.)"""
    _, t0, t1, t2 = m.f.image_tables
    dst_u = m.target.minimal_opens
    for u, y in zip(m.source.minimal_opens, m.f.images):
        if (t0[u & 255] | t1[u >> 8 & 255] | t2[u >> 16]) & ~dst_u[y]:
            return False
    return True


def is_continuous_at(m, x):
    """Preimage of every neighborhood of f(x) is a neighborhood of x.

    The neighborhoods of f(x) are the supersets of U_f(x) and those of
    x the supersets of U_x, so this holds iff f[U_x] lies inside U_f(x).
    Raises IndexOutOfRange unless x is a point of the source.
    """
    _check_point(m, x)
    u = m.source.minimal_opens[x]
    return m.f.image_mask(u) & ~m.target.minimal_opens[m.f(x)] == 0


def _check_point(m, x):
    """Raises IndexOutOfRange unless x is a point of the source of m."""
    if not 0 <= x < m.source.n:
        raise IndexOutOfRange("point %d is not in the source carrier of size %d"
                              % (x, m.source.n))


# --- the six global characterizations, each computed independently.
# Each reads its tables once and looks every mask up inline: f[A] or
# f^-1[A] as t0[A & 255] | t1[A >> 8 & 255] | t2[A >> 16] from the
# map's byte tables, membership in the opens' kept frozenset, and
# closedness from the closure byte tables the space keeps (a set is
# closed iff it is its own closure).  Plain loops, not all() or
# comprehensions, which would make t0, t1 and t2 closure cells: on 3
# points the loops took half the time.  The opens are read from their
# slot once built, and through the property (which builds them) only
# before ---

def continuous_via_opens(m):
    src, dst = m.source._opens, m.target._opens
    if src is None or dst is None:
        src, dst = m.source.opens, m.target.opens
    src = src.members
    _, t0, t1, t2 = m.f.preimage_tables
    for o in dst.sets:
        if (t0[o & 255] | t1[o >> 8 & 255] | t2[o >> 16]) not in src:
            return False
    return True


def continuous_via_subbase(m):
    """Preimages of a subbase of the target are open; the minimal base
    serves as the subbase."""
    opens = m.source._opens
    if opens is None:
        opens = m.source.opens
    src = opens.members
    _, t0, t1, t2 = m.f.preimage_tables
    for s in m.target.minimal_base.sets:
        if (t0[s & 255] | t1[s >> 8 & 255] | t2[s >> 16]) not in src:
            return False
    return True


def continuous_via_closeds(m):
    """The preimage of each closed set of the target, the complement of
    an open, is closed."""
    opens = m.target._opens
    if opens is None:
        opens = m.target.opens
    full = (1 << m.target.n) - 1
    _, t0, t1, t2 = m.f.preimage_tables
    _, c0, c1, c2 = m.source.closure_bytes
    for o in opens.sets:
        c = full ^ o
        a = t0[c & 255] | t1[c >> 8 & 255] | t2[c >> 16]
        if c0[a & 255] | c1[a >> 8 & 255] | c2[a >> 16] != a:
            return False
    return True


def continuous_via_neighborhoods(m):
    """The preimage of each neighborhood of f(x), a superset of U_f(x),
    is a neighborhood of x: f^-1[U_f(x)] holds U_x, at every x."""
    _, t0, t1, t2 = m.f.preimage_tables
    dst_u = m.target.minimal_opens
    for u, y in zip(m.source.minimal_opens, m.f.images):
        v = dst_u[y]
        if u & ~(t0[v & 255] | t1[v >> 8 & 255] | t2[v >> 16]):
            return False
    return True


def continuous_via_filter_transfer(m):
    """For each x and each neighborhood U of f(x) there is a
    neighborhood V of x with f[V] contained in U.  The neighborhoods of
    a point x are the sets U_x | s, s over the subsets of the points
    outside U_x, walked in ascending order (s = (s - out) & out) and
    never listed."""
    full_src, full_dst = (1 << m.source.n) - 1, (1 << m.target.n) - 1
    dst_u = m.target.minimal_opens
    _, t0, t1, t2 = m.f.image_tables
    for ux, y in zip(m.source.minimal_opens, m.f.images):
        uy = dst_u[y]
        out_v, out_u = full_src ^ ux, full_dst ^ uy
        s = 0
        while True:
            u = uy | s
            r = 0
            while True:
                v = ux | r
                if not (t0[v & 255] | t1[v >> 8 & 255] | t2[v >> 16]) & ~u:
                    break
                if r == out_v:
                    return False
                r = (r - out_v) & out_v
            if s == out_u:
                break
            s = (s - out_u) & out_u
    return True


def continuous_via_closure(m):
    """f[cl(A)] is contained in cl(f[A]) for every subset A, read from
    the closure tables of the two spaces."""
    src, dst = m.source.closure_table, m.target.closure_table
    _, t0, t1, t2 = m.f.image_tables
    for a, c in enumerate(src):
        if ((t0[c & 255] | t1[c >> 8 & 255] | t2[c >> 16])
                & ~dst[t0[a & 255] | t1[a >> 8 & 255] | t2[a >> 16]]):
            return False
    return True


def continuous_via_preimage_closure(m):
    """cl(f^-1[B]) is contained in f^-1[cl(B)] for every target subset B,
    read from the closure tables of the two spaces."""
    src, dst = m.source.closure_table, m.target.closure_table
    _, t0, t1, t2 = m.f.preimage_tables
    for b, c in enumerate(dst):
        if (src[t0[b & 255] | t1[b >> 8 & 255] | t2[b >> 16]]
                & ~(t0[c & 255] | t1[c >> 8 & 255] | t2[c >> 16])):
            return False
    return True


def continuous_via_preimage_interior(m):
    """f^-1[int(B)] is contained in int(f^-1[B]) for every target subset B,
    with int(A) = X minus cl(X minus A) read from the closure tables of
    the two spaces."""
    src, dst = m.source.closure_table, m.target.closure_table
    full_src, full_dst = len(src) - 1, len(dst) - 1
    _, t0, t1, t2 = m.f.preimage_tables
    # f^-1[int(B)] & ~int(f^-1[B]), with ~int(P) = cl(X minus P) on X
    for b in range(len(dst)):
        i = full_dst ^ dst[full_dst ^ b]
        if ((t0[i & 255] | t1[i >> 8 & 255] | t2[i >> 16])
                & src[full_src ^ (t0[b & 255] | t1[b >> 8 & 255] | t2[b >> 16])]):
            return False
    return True


def continuity_characterizations(m):
    """All six global continuity characterizations, computed separately."""
    return {
        'opens': continuous_via_opens(m),
        'subbase': continuous_via_subbase(m),
        'closeds': continuous_via_closeds(m),
        'neighborhoods': continuous_via_neighborhoods(m),
        'filter-transfer': continuous_via_filter_transfer(m),
        'closure': continuous_via_closure(m),
    }


def map_open_closed(m):
    """(open?, closed?) for the map.  The open test checks the images
    of the minimal base and the closed test those of the point
    closures: every open is a union of the U_x, every closed set a
    union of the point closures, and images preserve unions.  The
    target's opens are read from their slot once built."""
    opens = m.target._opens
    if opens is None:
        opens = m.target.opens
    dst = opens.members
    _, t0, t1, t2 = m.f.image_tables
    is_open = closed = True
    for u in m.source.minimal_opens:
        if (t0[u & 255] | t1[u >> 8 & 255] | t2[u >> 16]) not in dst:
            is_open = False
            break
    _, c0, c1, c2 = m.target.closure_bytes
    for c in m.source.point_closures:
        b = t0[c & 255] | t1[c >> 8 & 255] | t2[c >> 16]
        if c0[b & 255] | c1[b >> 8 & 255] | c2[b >> 16] != b:
            closed = False
            break
    return is_open, closed


def homeomorphy(m):
    """Bijective with both directions continuous."""
    if not (m.f.is_injective() and m.f.is_surjective()):
        return False
    if not is_continuous(m):
        return False
    inv = SpaceMap(m.target, m.source, m.f.inverse())
    return is_continuous(inv)


def are_homeomorphic(t1, t2):
    """A homeomorphism witness (FiniteMap) or None.  Carriers <= 6.

    A bijection f is a homeomorphism iff f[U_x] = U_f(x) for every x,
    that is, iff z in U_x <=> f(z) in U_f(x) for all x and z: f is an
    isomorphism of the specialization preorders.  Once the invariant
    shape_key agrees, the points are mapped in order, each to the least
    unused point of the same shape that keeps this equivalence, both
    ways round, with every point already mapped; a dead end backtracks.
    So the witness is the lexicographically least homeomorphism.  The
    number of opens is not compared: the search decides without it, and
    on up to 5 points spaces with equal shape_key are homeomorphic.

    Most calls reject on shape_key, so once both keys are kept they are
    compared first, straight from their slot: unequal keys on one
    carrier of at most 6 points answer None before any other work, and
    the search is a function of its own, so such a call sets up none of
    its locals.  The carrier checks raise as they do without the keys.
    """
    try:
        if t1._shape_key != t2._shape_key and t1.n == t2.n <= 6:
            return None
    except AttributeError:
        pass
    n = t1.n
    if n != t2.n:
        raise UniverseCardinalityMismatch("carriers have different sizes")
    if n > 6:
        raise CapExceeded("homeomorphism search capped at 6 points")
    if t1.shape_key != t2.shape_key:
        return None
    return _least_homeomorphism(n, t1, t2)


def _least_homeomorphism(n, t1, t2):
    """are_homeomorphic's search, on two spaces of n points whose
    shape_keys agree.  It reads the point closures and shapes that
    computing shape_key kept (Topology._shape)."""
    u1, u2 = t1._kernel, t2._kernel
    k1, k2 = t1._shape, t2._shape
    # the candidate images of each point x: the points of its shape,
    # ascending; equal shape_keys make every such list nonempty
    by_shape = {}
    for y in range(n):
        by_shape.setdefault(k2[n + y], []).append(y)
    cands = [by_shape[s] for s in k1[n:]]
    f = [0] * n
    nxt = [0] * n
    used = x = 0
    while x < n:
        # the images of the mapped points in U_x and in cl{x} (the z with
        # x in U_z): y fits iff U_y and cl{y} meet used exactly there
        ux, cx = u1[x], k1[x]
        up = down = 0
        for z in range(x):
            if ux >> z & 1:
                up |= 1 << f[z]
            if cx >> z & 1:
                down |= 1 << f[z]
        ys = cands[x]
        for i in range(nxt[x], len(ys)):
            y = ys[i]
            if not used >> y & 1 and u2[y] & used == up and k2[y] & used == down:
                f[x] = y
                nxt[x] = i + 1
                used |= 1 << y
                x += 1
                break
        else:
            # a dead end: try the next candidate of the point before
            if not x:
                return None
            nxt[x] = 0
            x -= 1
            used ^= 1 << f[x]
    return FiniteMap(n, n, f)


def filter_continuity_at(fx, fy, m, x):
    """Whether fy is coarser than the image of fx: every member of fy
    contains the image of some member of fx.  The image of the core of
    fx lies inside every such image, and the core of fy inside every
    member of fy, so this holds iff f[core fx] lies inside core fy.

    Preconditions: x is a cluster point of fx in the source and f(x) is
    a cluster point of fy in the target.  Raises IndexOutOfRange unless
    x is a point of the source.
    """
    _check_point(m, x)
    if not filter_adherence(m.source, fx) >> x & 1:
        raise ClusterPreconditionFailed("x is not a cluster point of the source filter")
    if not filter_adherence(m.target, fy) >> m.f(x) & 1:
        raise ClusterPreconditionFailed("f(x) is not a cluster point of the target filter")
    return m.f.image_mask(fx.core()) & ~fy.core() == 0
