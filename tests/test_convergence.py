"""Convergence of filters, nets, and eventually periodic sequences."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import opens_reference as ref
from fintopo.closure import closure
from fintopo.convergence import (DOMAIN_CAP, DirectedSet, EventuallyPeriodicSequence, Net,
                                 filter_adherence,
                                 filter_from_net, filter_limits, net_cluster_points,
                                 net_from_filter_base, net_limits,
                                 sequence_cluster_points,
                                 sequence_filter, sequence_limits)
from fintopo.errors import (CapExceeded, EmptyArgument, FilterBaseViolation, NotDirected,
                            UniverseMismatch)
from fintopo.filters import enumerate_filters, generate_filter, is_filter_base, principal_filter
from fintopo.setops import SetSystem, full_mask, mask_of
from fintopo.topology import (Topology, discrete_topology, enumerate_topologies,
                              indiscrete_topology, is_finer, sierpinski)


class TestFilterConvergence:
    def test_point_filter_converges_to_the_point(self):
        for t in enumerate_topologies(3):
            for x in range(3):
                lim = filter_limits(t, principal_filter(3, 1 << x))
                assert lim >> x & 1

    def test_indiscrete_everything_converges(self):
        t = indiscrete_topology(3)
        for f in enumerate_filters(3):
            assert filter_limits(t, f) == 0b111

    def test_discrete_only_point_filters_converge(self):
        t = discrete_topology(3)
        for f in enumerate_filters(3):
            lim = filter_limits(t, f)
            if f.is_ultrafilter():
                assert lim == f.core()
            else:
                assert lim == 0

    def test_sierpinski(self):
        t = sierpinski()  # {1} open
        assert filter_limits(t, principal_filter(2, 0b10)) == 0b11
        assert filter_limits(t, principal_filter(2, 0b01)) == 0b01

    def test_adherence_contains_limits(self):
        for t in enumerate_topologies(3):
            for f in enumerate_filters(3):
                lim = filter_limits(t, f)
                adh = filter_adherence(t, f)
                assert lim & ~adh == 0

    def test_adherence_via_finer_convergent_filter(self):
        # x adheres to F iff some filter finer than F converges to x
        for t in enumerate_topologies(3):
            filters = enumerate_filters(3)
            for f in filters:
                adh = filter_adherence(t, f)
                via = 0
                for g in filters:
                    if g.is_finer(f):
                        via |= filter_limits(t, g)
                assert adh == via

    def test_base_limits_match_generated_filter(self):
        base = SetSystem(3, [0b011, 0b010])
        for t in enumerate_topologies(3):
            assert filter_limits(t, generate_filter(base)) == filter_limits(
                t, principal_filter(3, 0b010))


class TestClosureViaConvergence:
    def test_closure_via_principal_filters(self):
        # x is in the closure of A iff a filter containing A converges to x;
        # on a finite carrier the principal filter of A suffices
        for t in enumerate_topologies(3):
            for a in range(1, 8):
                f = principal_filter(3, a)
                via = 0
                for g in enumerate_filters(3):
                    if a in g.members:
                        via |= filter_limits(t, g)
                assert via == closure(t, a)
                assert filter_adherence(t, f) == closure(t, a)

    def test_closure_via_nets(self):
        # x is in the closure of A iff some net with values in A converges
        # to x; a constant-plus-cluster net over a chain domain suffices,
        # and conversely every such net's limits lie in the closure
        for t in enumerate_topologies(3):
            for a in range(1, 8):
                pts = [p for p in range(3) if a >> p & 1]
                via = 0
                # nets with values in A over chain domains of length <= 3
                chain3 = DirectedSet(3, [(0, 1), (1, 2), (0, 2)])
                import itertools
                for vals in itertools.product(pts, repeat=3):
                    net = Net(chain3, vals, 3)
                    via |= net_limits(t, net)
                assert via == closure(t, a)

    def test_closure_via_sequences(self):
        for t in enumerate_topologies(3):
            for a in range(1, 8):
                pts = [p for p in range(3) if a >> p & 1]
                via = 0
                import itertools
                for k in (1, 2, 3):
                    for cyc in itertools.product(pts, repeat=k):
                        seq = EventuallyPeriodicSequence([], cyc, 3)
                        via |= sequence_limits(t, seq)
                assert via == closure(t, a)


def union_of_rows(up, u):
    """The union of the rows up[j] over the points j of u."""
    out = 0
    for j in range(len(up)):
        if u >> j & 1:
            out |= up[j]
    return out


class TestDirectedSet:
    def test_transitivity_enforced(self):
        with pytest.raises(NotDirected):
            DirectedSet(3, [(0, 1), (1, 2)])  # missing (0, 2)

    def test_boundedness_enforced(self):
        with pytest.raises(NotDirected):
            DirectedSet(2, [])  # two incomparable elements

    def test_pair_domain(self):
        with pytest.raises(UniverseMismatch):
            DirectedSet(2, [(0, 5)])

    @given(st.integers(1, 7), st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6))))
    @settings(max_examples=300, deadline=None)
    def test_the_witness_is_the_least_unbounded_pair(self, size, pairs):
        up = [1 << i for i in range(size)]
        for i, j in pairs:
            if i < size and j < size:
                up[i] |= 1 << j
        for _ in range(size):  # transitive closure
            up = [u | union_of_rows(up, u) for u in up]
        leq = [(i, j) for i in range(size) for j in range(size) if up[i] >> j & 1]
        least = next(((i, j) for i in range(size) for j in range(size) if not up[i] & up[j]),
                     None)
        if least is None:
            assert DirectedSet(size, leq).up == tuple(up)
        else:
            with pytest.raises(NotDirected, match='^elements %d and %d have' % least):
                DirectedSet(size, leq)

    @pytest.mark.parametrize('size, bound', [(4000, 0.5), (DOMAIN_CAP, 1)])
    def test_the_witness_below_two_maxima_in_bounded_time(self, size, bound):
        # every element below two incomparable maxima, so the one unbounded
        # pair is the last.  Measured 0.02 s and 0.11 s at 8,192, where the
        # pair scan took 1.8 s at 4,000 (CPython 3.11, shared 2-CPU host)
        top = [(i, j) for i in range(size - 2) for j in (size - 2, size - 1)]
        t0 = time.perf_counter()
        with pytest.raises(NotDirected, match='^elements %d and %d have' % (size - 2, size - 1)):
            DirectedSet(size, top)
        assert time.perf_counter() - t0 < bound

    def test_a_domain_past_the_cap_is_refused_before_any_cone(self):
        def pairs():
            raise AssertionError('the pairs were read')
            yield

        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match='^directed set of 8193 elements'):
                DirectedSet(DOMAIN_CAP + 1, pairs())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert DOMAIN_CAP == 8192 and peak < 64 << 10, peak

    def test_a_canonical_net_past_the_cap_is_refused_before_its_pairs(self):
        # 2,048 members of 6.5 points on average: 13,312 elements.  The
        # order pairs grow with the square of the elements, and listed
        # before the cap they took 1.1 s at 71 MiB max RSS for the 2,816
        # elements at n = 10 (CPython 3.11, shared 2-CPU host)
        members = principal_filter(12, 1).members
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match='^directed set of 13312 elements'):
            net_from_filter_base(members)
        assert time.perf_counter() - t0 < 0.5

    def test_the_cap_itself_is_taken(self):
        top = DOMAIN_CAP - 1
        assert DirectedSet(DOMAIN_CAP, [(i, top) for i in range(top)]).size == DOMAIN_CAP


class TestCanonicalNetCones:
    """The canonical net's cones, one a member from the members inside
    it, against its order listed as every pair of nested elements."""

    @staticmethod
    def same_net(base):
        net, want = net_from_filter_base(base), ref.net_from_filter_base(base)
        return (net.domain.up, net.values, net.n) == (want.domain.up, want.values, want.n)

    def test_every_filter_base_up_to_three_points(self):
        bases = 0
        for n in range(4):
            for bits in range(1 << (1 << n)):
                base = SetSystem(n, [m for m in range(1 << n) if bits >> m & 1])
                if is_filter_base(base) is None:
                    bases += 1
                    assert self.same_net(base), base.sets
                else:
                    for build in (net_from_filter_base, ref.net_from_filter_base):
                        with pytest.raises(FilterBaseViolation):
                            build(base)
        assert bases == 0 + 1 + 5 + 31

    def test_the_filter_of_supersets_at_eight_points(self):
        assert self.same_net(principal_filter(8, 1).members)

    def test_eleven_points_in_bounded_time(self):
        # the supersets of {0} on 11 points: 1,024 members, 6,144
        # elements.  Measured 0.21 s, where testing every pair of
        # elements took 5.4 s (CPython 3.11, shared 2-CPU host); bound 2 s
        members = principal_filter(11, 1).members
        t0 = time.perf_counter()
        net = net_from_filter_base(members)
        assert time.perf_counter() - t0 < 2
        assert net.domain.size == 6144
        # the first element, (0, {0}), lies above every element; the
        # last, (10, the carrier), below every element
        assert net.domain.up[0] == 1 and net.domain.up[-1] == (1 << 6144) - 1


class TestNetFilterCorrespondence:
    def test_round_trip_preserves_convergence(self):
        # filter -> canonical net -> tail filter gives back the filter,
        # so limits and cluster points agree along the way
        for f in enumerate_filters(3):
            net = net_from_filter_base(f.members)
            back = filter_from_net(net)
            assert back.members == f.members
            for t in enumerate_topologies(3):
                assert net_limits(t, net) == filter_limits(t, f)
                assert net_cluster_points(t, net) == filter_adherence(t, f)

    def test_net_to_filter_preserves_limits(self):
        chain = DirectedSet(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        net = Net(chain, [0, 1, 2, 2], 3)
        f = filter_from_net(net)
        for t in enumerate_topologies(3):
            assert filter_limits(t, f) == net_limits(t, net)

    def test_eventually_frequently_duality(self):
        chain = DirectedSet(3, [(0, 1), (1, 2), (0, 2)])
        net = Net(chain, [0, 1, 0], 2)
        full = full_mask(2)
        for u in range(4):
            assert net.frequently_in(u) == (not net.eventually_in(full ^ u))


class TestFinenessTransfer:
    def test_finer_topology_fewer_limits(self):
        tops = enumerate_topologies(3)
        filters = enumerate_filters(3)
        for t1 in tops:
            for t2 in tops:
                if is_finer(t1, t2):
                    for f in filters:
                        assert filter_limits(t1, f) & ~filter_limits(t2, f) == 0

    def test_converse_characterizes_fineness(self):
        # if every filter limit under t1 is a limit under t2, then t1 is
        # finer than t2
        tops = enumerate_topologies(3)
        filters = enumerate_filters(3)
        for t1 in tops:
            for t2 in tops:
                transfer = all(filter_limits(t1, f) & ~filter_limits(t2, f) == 0
                               for f in filters)
                assert transfer == is_finer(t1, t2)


class TestSequences:
    def test_empty_cycle_rejected(self):
        with pytest.raises(EmptyArgument):
            EventuallyPeriodicSequence([0], [], 2)

    def test_value_outside_carrier(self):
        with pytest.raises(UniverseMismatch):
            EventuallyPeriodicSequence([], [3], 2)

    def test_prefix_does_not_affect_limits(self):
        for t in enumerate_topologies(3):
            a = EventuallyPeriodicSequence([], [0, 1], 3)
            b = EventuallyPeriodicSequence([2, 2, 2], [0, 1], 3)
            assert sequence_limits(t, a) == sequence_limits(t, b)
            assert sequence_cluster_points(t, a) == sequence_cluster_points(t, b)

    def test_matches_tail_filter(self):
        seq = EventuallyPeriodicSequence([1], [0, 2], 3)
        f = sequence_filter(seq)
        for t in enumerate_topologies(3):
            assert sequence_limits(t, seq) == filter_limits(t, f)
            assert sequence_cluster_points(t, seq) == filter_adherence(t, f)

    def test_constant_sequence_limits_are_point_closure_behaviour(self):
        t = sierpinski()
        seq = EventuallyPeriodicSequence([], [1], 2)
        assert sequence_limits(t, seq) == 0b11
        seq0 = EventuallyPeriodicSequence([], [0], 2)
        assert sequence_limits(t, seq0) == 0b01


CHAIN_20 = Topology.from_kernel(20, [(2 << x) - 1 for x in range(20)])


class TestTwentyPoints:
    """Limits and cluster points of a filter, a sequence and a net on the
    20-point discrete space and the 20-point chain.  Measured on a
    shared 2-CPU host (CPython 3.11), the best of three untraced: the
    filter and sequence calls 0.001-0.013 ms, the net calls 0.4-3.8 ms
    (every point tests the tail of each of the net's 25 elements), each
    at a tracemalloc peak under 2 KiB."""

    SPACES = {'discrete': discrete_topology(20), 'chain': CHAIN_20}
    FILTER = principal_filter(20, 1 << 19 | 1)
    SEQUENCE = EventuallyPeriodicSequence(range(20), [3, 17], 20)
    NET = net_from_filter_base(SetSystem(20, [1 << 19 | 1, 1 << 19 | 1 << 3 | 1, full_mask(20)]))
    CALLS = {'filter_limits': (filter_limits, FILTER),
             'filter_adherence': (filter_adherence, FILTER),
             'sequence_limits': (sequence_limits, SEQUENCE),
             'sequence_cluster_points': (sequence_cluster_points, SEQUENCE),
             'net_limits': (net_limits, NET),
             'net_cluster_points': (net_cluster_points, NET)}
    # the points as masks, the discrete space's then the chain's: each
    # U_x is {x} there and {0..x} on the chain
    WANT = {'filter_limits': (0, 1 << 19),
            'filter_adherence': (1 << 19 | 1, full_mask(20)),
            'sequence_limits': (0, 0b111 << 17),
            'sequence_cluster_points': (1 << 17 | 1 << 3, full_mask(20) ^ 0b111),
            'net_limits': (0, 1 << 19),
            'net_cluster_points': (1 << 19 | 1, full_mask(20))}

    @pytest.mark.parametrize('name', sorted(CALLS))
    def test_results(self, name):
        call, arg = self.CALLS[name]
        got = tuple(call(self.SPACES[space], arg) for space in ('discrete', 'chain'))
        assert got == self.WANT[name]

    @pytest.mark.parametrize('space', sorted(SPACES))
    @pytest.mark.parametrize('name', sorted(CALLS))
    def test_bounded(self, space, name):
        # bounds: 5 ms for the filter and sequence calls, 50 ms for the
        # net calls, 64 KiB traced
        call, arg = self.CALLS[name]
        t = self.SPACES[space]
        best = float('inf')
        for _ in range(3):
            t0 = time.perf_counter()
            call(t, arg)
            best = min(best, time.perf_counter() - t0)
        assert best < (0.05 if name.startswith('net') else 0.005), best
        tracemalloc.start()
        try:
            call(t, arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak
