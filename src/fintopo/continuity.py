"""Continuity of maps between finite spaces: local and global tests,
the equivalent global characterizations, open/closed maps, and
homeomorphisms."""

from .convergence import filter_adherence
from .errors import ClusterPreconditionFailed, UniverseCardinalityMismatch, UniverseMismatch
from .setops import FiniteMap, full_mask
from .topology import point_closures, point_shapes


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

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise UniverseMismatch("intermediate spaces do not match")
        return SpaceMap(other.source, self.target, self.f.compose(other.f))


def is_continuous(m):
    """Continuous at every point: f[U_x] lies inside U_f(x) for each x.
    (continuous_via_opens is the open-set definition.)"""
    image, images, dst_u = m.f.image_mask, m.f.images, m.target.minimal_opens
    return all(image(ux) & ~dst_u[images[x]] == 0
               for x, ux in enumerate(m.source.minimal_opens))


def is_continuous_at(m, x):
    """Preimage of every neighborhood of f(x) is a neighborhood of x.

    The neighborhoods of f(x) are the supersets of U_f(x) and those of
    x the supersets of U_x, so this holds iff f[U_x] lies inside U_f(x).
    """
    u = m.source.minimal_opens[x]
    return m.f.image_mask(u) & ~m.target.minimal_opens[m.f(x)] == 0


# --- the six global characterizations, each computed independently;
# what they read of a space comes from its kept views.  The opens are
# read from their slot once built, and through the property (which
# builds them) only before: the continuity sweep reads them millions of
# times, and a property call each time costs it ---

def continuous_via_opens(m):
    src, dst = m.source._opens, m.target._opens
    if src is None or dst is None:
        src, dst = m.source.opens, m.target.opens
    pre = m.f.preimage_mask
    return all(pre(o) in src for o in dst)


def continuous_via_subbase(m):
    """Preimages of a subbase of the target are open; the minimal base
    serves as the subbase."""
    opens = m.source._opens
    if opens is None:
        opens = m.source.opens
    pre = m.f.preimage_mask
    return all(pre(s) in opens for s in m.target.views.minimal_base)


def continuous_via_closeds(m):
    pre, is_closed = m.f.preimage_mask, m.source.is_closed
    return all(is_closed(pre(c)) for c in m.target.views.closed_sets)


def continuous_via_neighborhoods(m):
    return all(is_continuous_at(m, x) for x in range(m.source.n))


def continuous_via_filter_transfer(m):
    """For each x and each neighborhood U of f(x) there is a
    neighborhood V of x with f[V] contained in U.  The neighborhoods of
    a point x are the supersets of U_x."""
    src_nbhd, dst_nbhd = m.source.views.neighborhoods, m.target.views.neighborhoods
    image, images = m.f.image_mask, m.f.images
    for x, nbhd in enumerate(src_nbhd):
        pushed = [image(v) for v in nbhd]
        for u in dst_nbhd[images[x]]:
            for img in pushed:
                if not img & ~u:
                    break
            else:
                return False
    return True


def continuous_via_closure(m):
    """f[cl(A)] is contained in cl(f[A]) for every subset A, read from
    the closure tables of the two spaces."""
    src, dst = m.source.views.closure_table, m.target.views.closure_table
    image = m.f.image_mask
    return all(image(src[a]) & ~dst[image(a)] == 0 for a in range(len(src)))


def continuous_via_preimage_closure(m):
    """cl(f^-1[B]) is contained in f^-1[cl(B)] for every target subset B,
    read from the closure tables of the two spaces."""
    src, dst = m.source.views.closure_table, m.target.views.closure_table
    pre = m.f.preimage_mask
    return all(src[pre(b)] & ~pre(dst[b]) == 0 for b in range(len(dst)))


def continuous_via_preimage_interior(m):
    """f^-1[int(B)] is contained in int(f^-1[B]) for every target subset B,
    with int(A) = X minus cl(X minus A) read from the closure tables of
    the two spaces."""
    src, dst = m.source.views.closure_table, m.target.views.closure_table
    full_src, full_dst = len(src) - 1, len(dst) - 1
    pre = m.f.preimage_mask
    # f^-1[int(B)] & ~int(f^-1[B]), with ~int(P) = cl(X minus P) on X
    return all(pre(full_dst ^ dst[full_dst ^ b]) & src[full_src ^ pre(b)] == 0
               for b in range(len(dst)))


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
    image, is_closed = m.f.image_mask, m.target.is_closed
    is_open = all(image(ux) in opens for ux in m.source.minimal_opens)
    closed = all(is_closed(image(c)) for c in m.source.views.point_closures)
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
    """
    n = t1.n
    if n != t2.n:
        raise UniverseCardinalityMismatch("carriers have different sizes")
    if n > 6:
        from .errors import CapExceeded
        raise CapExceeded("homeomorphism search capped at 6 points")
    if not t1.same_shape(t2):
        return None
    u1, u2 = t1.minimal_opens, t2.minimal_opens
    c1, c2 = point_closures(u1), point_closures(u2)
    s1, s2 = point_shapes(u1, c1), point_shapes(u2, c2)
    f = []

    def extend(x, used):
        if x == n:
            return True
        # the images of the mapped points in U_x and in cl{x} (the z with
        # x in U_z): y fits iff U_y and cl{y} meet used exactly there
        up = down = 0
        for z, fz in enumerate(f):
            if u1[x] >> z & 1:
                up |= 1 << fz
            if c1[x] >> z & 1:
                down |= 1 << fz
        for y in range(n):
            if (not used >> y & 1 and s1[x] == s2[y]
                    and u2[y] & used == up and c2[y] & used == down):
                f.append(y)
                if extend(x + 1, used | 1 << y):
                    return True
                f.pop()
        return False

    return FiniteMap(n, n, f) if extend(0, 0) else None


def filter_continuity_at(fx, fy, m, x):
    """Whether fy is coarser than the image of fx: every member of fy
    contains the image of some member of fx.  The image of the core of
    fx lies inside every such image, and the core of fy inside every
    member of fy, so this holds iff f[core fx] lies inside core fy.

    Preconditions: x is a cluster point of fx in the source and f(x) is
    a cluster point of fy in the target.
    """
    if not filter_adherence(m.source, fx) >> x & 1:
        raise ClusterPreconditionFailed("x is not a cluster point of the source filter")
    if not filter_adherence(m.target, fy) >> m.f(x) & 1:
        raise ClusterPreconditionFailed("f(x) is not a cluster point of the target filter")
    return m.f.image_mask(fx.core()) & ~fy.core() == 0


def is_continuous_on_closed_pieces(m, pieces):
    """Gluing test: X covered by closed sets, each restriction
    continuous.  Returns the gluing verdict (equivalent to global
    continuity when the pieces are closed and cover X)."""
    from .generated import subspace_topology
    cover = 0
    for a in pieces:
        cover |= a
        if not m.source.is_closed(a):
            raise UniverseMismatch("piece %r is not closed" % a)
    if cover != full_mask(m.source.n):
        raise UniverseMismatch("pieces do not cover the carrier")
    for a in pieces:
        sub, point_map = subspace_topology(m.source, a)
        restricted = FiniteMap(sub.n, m.target.n, [m.f(p) for p in point_map])
        if not is_continuous(SpaceMap(sub, m.target, restricted)):
            return False
    return True
