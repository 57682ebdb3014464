"""Filters and filter bases on a finite carrier.

On a finite carrier every filter is principal: it is the superset
closure of its core (the intersection of all members).  This makes the
counting facts exact: there are 2^n - 1 filters on n points, one per
nonempty core, and exactly n ultrafilters (the point filters).  So
filters are checked, built and compared through their cores.
"""

from .errors import EmptyArgument, EmptyMeet, FilterBaseViolation, NotSurjective, UniverseMismatch
from .setops import (SetSystem, check_same_carrier, full_mask, is_up_set, meet_of, points_of,
                     supermasks, two_minimal, upward_gap)


def is_filter(system):
    """None if the system is a filter, else (failed-axiom, witness).

    Axioms: (i) the empty set is not a member, (ii) the carrier is a
    member, (iii) closed under pairwise intersection, (iv) closed
    upward under supersets.

    Given (i) and (ii), (iii) and (iv) hold iff the members are all
    the 2^(n - |core|) supersets of their meet, the core.  Otherwise an
    upward closed system has two minimal members whose meet is not a
    member, its two_minimal pair.  A system that is not upward closed
    is tested for meets by _meet_fault.
    """
    n, members = system.n, system.sets
    full = full_mask(n)
    if members and members[0] == 0:
        return ('no-empty-member', 0)
    if not members or members[-1] != full:
        return ('contains-whole', full)
    if is_up_set(members, meet_of(members), n):
        return None
    gap = upward_gap(members, n)
    pair = two_minimal(members) if gap is None else _meet_fault(members, n)
    if pair is not None:
        return ('intersection-closed', pair)
    return ('upward-closed', gap)


def _meet_fault(members, n):
    """Two members whose meet is not a member, or None if the members,
    among them the whole carrier, are closed under meets.

    up[t] is the meet of the members containing t, built in n passes
    over the 2^n subsets.  Every meet of members is its own up[t], so
    the members are closed under meets iff every up[t] is a member.
    For the least t whose up[t] is not one, the members containing t
    are met in ascending order, and the step that leaves the members
    names the pair: the meet so far, which is still a member, and the
    member met at that step.
    """
    full = full_mask(n)
    up = [full] * (full + 1)
    for m in members:
        up[m] = m
    for p in range(n):
        bit = 1 << p
        for t in range(full + 1):
            if not t & bit:
                up[t] &= up[t | bit]
    present = set(members)
    t = next((t for t in range(full + 1) if up[t] not in present), None)
    if t is None:
        return None
    meet = full
    for m in members:
        if t & ~m == 0:
            if meet & m not in present:
                return (meet, m)
            meet &= m


class Filter:
    """A filter, kept as its core: the members are the supersets of
    the core."""

    __slots__ = ('n', '_core')

    def __init__(self, n, members):
        system = members if isinstance(members, SetSystem) else SetSystem(n, members)
        if system.n != n:
            raise UniverseMismatch("member system lives on carrier %d, not %d" % (system.n, n))
        verdict = is_filter(system)
        if verdict is not None:
            raise FilterBaseViolation(*verdict)
        self.n = n
        self._core = system.sets[0]

    @classmethod
    def from_core(cls, n, core):
        """The filter of all supersets of a nonempty core."""
        if core == 0:
            raise FilterBaseViolation('no-empty-member', 0)
        SetSystem(n, (core,))  # check n and core
        f = cls.__new__(cls)
        f.n = n
        f._core = core
        return f

    @property
    def members(self):
        """The system of all 2^(n - |core|) members, built on each call."""
        return SetSystem(self.n, supermasks(self._core, self.n))

    def __eq__(self, other):
        return isinstance(other, Filter) and self.n == other.n and self._core == other._core

    def __hash__(self):
        return hash((self.n, self._core))

    def __repr__(self):
        return 'Filter(%d, core=%r)' % (self.n, points_of(self._core))

    def __contains__(self, mask):
        """Whether mask is a set of the carrier containing the core."""
        return 0 <= mask <= full_mask(self.n) and self._core & ~mask == 0

    def core(self):
        """Intersection of all members; nonempty on a finite carrier."""
        return self._core

    def is_finer(self, other):
        """Whether this filter is finer than other (contains it): iff
        its core lies inside the other's."""
        check_same_carrier(self.n, other.n)
        return self._core & ~other._core == 0

    def is_ultrafilter(self):
        """A filter is an ultrafilter iff it contains A or its complement
        for every subset A; on a finite carrier iff its core is a point."""
        return self._core.bit_count() == 1


def is_filter_base(system):
    """None if the system is a filter base, else the failed condition.

    Conditions: no empty member, at least one member, and every
    pairwise intersection contains a member.  The last holds iff the
    meet of all members is one: the meet of the members then lies in
    every pairwise intersection, and conversely the meet of all
    members, met in one at a time, contains a member, which can only be
    the meet itself.  When it is not one, the two_minimal pair fails.
    """
    members = system.sets
    if not members:
        return ('nonempty', None)
    if members[0] == 0:
        return ('no-empty-member', 0)
    if meet_of(members) == members[0]:
        return None
    return ('meet-refined', two_minimal(members))


def generate_filter(base):
    """The filter generated by a filter base: its superset closure, the
    supersets of the meet of the base, which is its least member."""
    verdict = is_filter_base(base)
    if verdict is not None:
        raise FilterBaseViolation(*verdict)
    return Filter.from_core(base.n, base.sets[0])


def principal_filter(n, mask):
    """The filter of all supersets of a nonempty set."""
    return Filter.from_core(n, mask)


def enumerate_filters(n):
    """All filters on the carrier, one per nonempty core."""
    return [principal_filter(n, core) for core in range(1, 1 << n)]


def extend_to_ultrafilter(base):
    """An ultrafilter refining the filter generated by the base.

    Deterministic: the point filter at the smallest point of the core.
    """
    verdict = is_filter_base(base)
    if verdict is not None:
        raise FilterBaseViolation(*verdict)
    core = base.sets[0]
    return Filter.from_core(base.n, core & -core)


def supremum_filter(filters):
    """The coarsest filter finer than all the given ones, if any: the
    supersets of the meet of their cores.  The cross intersections of
    the members, one member from each filter, generate it; the cores
    are the least members, so every other selection contains their
    meet, and EmptyMeet names the cores when their meet is empty."""
    filters = list(filters)
    if not filters:
        raise EmptyArgument("need at least one filter base")
    n = filters[0].n
    if any(f.n != n for f in filters):
        raise UniverseMismatch("filter bases on different carriers")
    cores = tuple(f.core() for f in filters)
    if meet_of(cores) == 0:
        raise EmptyMeet(cores)
    return Filter.from_core(n, meet_of(cores))


def image_filter(f, filt):
    """The filter generated by f[[filt]]: the supersets of f[core]."""
    if filt.n != f.n_src:
        raise UniverseMismatch("system lives on the wrong carrier")
    return Filter.from_core(f.n_dst, f.image_mask(filt.core()))


def inverse_image_filter(f, filt):
    """The filter generated by f^-1[[filt]]: the supersets of
    f^-1[core], nonempty as f is surjective."""
    if not f.is_surjective():
        raise NotSurjective("inverse image filter needs a surjective map")
    if filt.n != f.n_dst:
        raise UniverseMismatch("system lives on the wrong carrier")
    return Filter.from_core(f.n_src, f.preimage_mask(filt.core()))
