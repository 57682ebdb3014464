"""Convergence of filters, nets over finite directed sets, and
eventually periodic sequences."""

from .closure import closure
from .errors import CapExceeded, EmptyArgument, FilterBaseViolation, NotDirected, UniverseMismatch
from .filters import generate_filter, is_filter_base
from .setops import SetSystem, intransitive_pair, mask_of, meet_of, points_of

# The most elements a DirectedSet takes.  Its cones hold up to size bits
# each: 8,192 elements all below one top took 0.07 s at an 8.9 MiB
# tracemalloc peak (CPython 3.11), and 32,000 peaked at 142 MB.
DOMAIN_CAP = 1 << 13


def _points_where(topology, test):
    """The points x whose minimal open neighborhood U_x passes test.

    Every neighborhood of x contains U_x, and the tests below are all
    monotone in the set, so U_x passing stands for every neighborhood
    passing."""
    out = 0
    for x, u in enumerate(topology.minimal_opens):
        if test(u):
            out |= 1 << x
    return out


def filter_limits(topology, filt):
    """Points whose every neighborhood belongs to the filter: the x
    with U_x in the filter, that is, with the filter's core inside U_x."""
    core = filt.core()
    return _points_where(topology, lambda u: core & ~u == 0)


def filter_adherence(topology, filt):
    """Points whose every neighborhood meets every filter member.  The
    core is the smallest member, so this is the closure of the core."""
    return closure(topology, filt.core())


class DirectedSet:
    """A finite directed set: reflexive, transitive, every pair bounded
    above.  The order is stored as one 'upper cone' mask per element.
    A domain of more than DOMAIN_CAP elements raises CapExceeded before
    any cone is built."""

    __slots__ = ('size', 'up')

    def __init__(self, size, leq_pairs):
        if size > DOMAIN_CAP:
            raise CapExceeded("directed set of %d elements, more than %d" % (size, DOMAIN_CAP))
        up = [1 << i for i in range(size)]  # reflexivity is implied
        for i, j in leq_pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise UniverseMismatch("pair (%d, %d) outside domain of size %d" % (i, j, size))
            up[i] |= 1 << j
        pair = intransitive_pair(up)
        if pair is not None:
            raise NotDirected("order not transitive at (%d, %d)" % pair)
        # finite and directed iff some point is in every upper cone
        if not meet_of(up):
            raise NotDirected("elements %d and %d have no upper bound" % _least_unbounded_pair(up))
        self.size = size
        self.up = tuple(up)

    def __repr__(self):
        return 'DirectedSet(%d)' % self.size


def _least_unbounded_pair(up):
    """The least pair (i, j) of elements with disjoint upper cones, for
    cones with no common point.  A common upper bound lies below a
    maximal element, so i is the least element whose cone misses a
    maximal one, and j the least whose cone misses i's.  By ascending
    cone size, x is maximal iff its cone's first maximal element, if
    any, has the same cone."""
    top = 0
    for x in sorted(range(len(up)), key=lambda x: up[x].bit_count()):
        above = up[x] & top
        if not above or up[(above & -above).bit_length() - 1] == up[x]:
            top |= 1 << x
    i = next(i for i, u in enumerate(up) if u & top != top)
    return i, next(j for j, u in enumerate(up) if not u & up[i])


class Net:
    """A net: a map from a finite directed set into the carrier."""

    __slots__ = ('domain', 'values', 'n')

    def __init__(self, domain, values, n):
        values = tuple(values)
        if len(values) != domain.size:
            raise UniverseMismatch("need one value per domain element")
        for v in values:
            if not 0 <= v < n:
                raise UniverseMismatch("value %d outside carrier of size %d" % (v, n))
        self.domain = domain
        self.values = values
        self.n = n

    def tail_mask(self, i):
        """Values taken from position i onward."""
        return mask_of(self.values[j] for j in points_of(self.domain.up[i]))

    def eventually_in(self, u_mask):
        return any(self.tail_mask(i) & ~u_mask == 0 for i in range(self.domain.size))

    def frequently_in(self, u_mask):
        return all(self.tail_mask(i) & u_mask for i in range(self.domain.size))


def net_limits(topology, net):
    """Points x such that the net is eventually in every neighborhood of x."""
    return _points_where(topology, net.eventually_in)


def net_cluster_points(topology, net):
    """Points x such that the net is frequently in every neighborhood of x."""
    return _points_where(topology, net.frequently_in)


def filter_from_net(net):
    """The filter of tails (superset closure of the tail sets)."""
    tails = SetSystem(net.n, [net.tail_mask(i) for i in range(net.domain.size)])
    return generate_filter(tails)


def net_from_filter_base(base):
    """The canonical net of a filter base.

    Domain elements are pairs (x, B) with x a point of the base member
    B, ordered by reverse inclusion of the member; the net value is x.
    The order pairs are generated, not listed, so a domain past
    DOMAIN_CAP is refused before any of them is made.
    """
    verdict = is_filter_base(base)
    if verdict is not None:
        raise FilterBaseViolation(*verdict)
    elems = [(x, b) for b in base for x in points_of(b)]
    leq = ((i, j) for i, (_, b) in enumerate(elems)
           for j, (_, c) in enumerate(elems) if c & ~b == 0)
    domain = DirectedSet(len(elems), leq)
    return Net(domain, [x for x, _ in elems], base.n)


class EventuallyPeriodicSequence:
    """A sequence given by a finite prefix and a repeating cycle; only the
    cycle decides its limits, so the prefix is checked but not kept."""

    __slots__ = ('cycle', 'n')

    def __init__(self, pre, cycle, n):
        pre = tuple(pre)
        cycle = tuple(cycle)
        if not cycle:
            raise EmptyArgument("cycle must be nonempty")
        for v in pre + cycle:
            if not 0 <= v < n:
                raise UniverseMismatch("value %d outside carrier of size %d" % (v, n))
        self.cycle = cycle
        self.n = n

    def cycle_mask(self):
        return mask_of(self.cycle)

    def eventually_in(self, u_mask):
        """The sequence is eventually in U iff every cycle value lies in U."""
        return self.cycle_mask() & ~u_mask == 0

    def frequently_in(self, u_mask):
        """Frequently in U iff some cycle value lies in U."""
        return bool(self.cycle_mask() & u_mask)


def sequence_limits(topology, seq):
    return _points_where(topology, seq.eventually_in)


def sequence_cluster_points(topology, seq):
    return _points_where(topology, seq.frequently_in)


def sequence_filter(seq):
    """The tail filter of the sequence: supersets of the cycle value set."""
    return generate_filter(SetSystem(seq.n, [seq.cycle_mask()]))
