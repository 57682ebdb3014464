"""Topologies induced along maps: inverse/direct image, subspace,
product, quotient, and universal properties.  The kernel builders are
compared with the opens-based reference in opens_reference.py."""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opens_reference as ref
from conftest import preorders, topology_of_preorder
from opens_reference import check_universal_property

from fintopo.closure import closure
from fintopo.continuity import SpaceMap, is_continuous, map_open_closed
from fintopo.convergence import filter_limits
from fintopo.errors import CapExceeded, NotEquivalence, UniverseMismatch
from fintopo.filters import Filter, enumerate_filters, image_filter
from fintopo.generated import (class_map, direct_image_topology,
                               inverse_image_topology,
                               product_projections,
                               product_topology, quotient_topology,
                               rows_from_partition, subspace_topology,
                               validate_equivalence)
from fintopo.setops import FiniteMap, SetSystem, full_mask, identity_map, mask_of
from fintopo.topology import (Topology, compare, discrete_topology,
                              enumerate_topologies, indiscrete_topology,
                              is_finer, sierpinski)


class TestInverseImage:
    def test_identity_gives_back_the_topology(self):
        for t in enumerate_topologies(3):
            gen = inverse_image_topology(3, [(identity_map(3), t)])
            assert gen == t

    def test_constant_map_gives_indiscrete(self):
        s = sierpinski()
        f = FiniteMap(3, 2, [0, 0, 0])
        assert inverse_image_topology(3, [(f, s)]) == indiscrete_topology(3)

    def test_coarsest_making_maps_continuous(self):
        s = sierpinski()
        f = FiniteMap(3, 2, [0, 1, 1])
        gen = inverse_image_topology(3, [(f, s)])
        assert is_continuous(SpaceMap(gen, s, f))
        for t in enumerate_topologies(3):
            if is_continuous(SpaceMap(t, s, f)):
                assert is_finer(t, gen)

    def test_supremum_is_coarsest_upper_bound(self):
        t1 = Topology(2, [0b00, 0b01, 0b11])
        t2 = sierpinski()
        sup = inverse_image_topology(2, [(identity_map(2), t1), (identity_map(2), t2)])
        assert sup == discrete_topology(2)
        for t in enumerate_topologies(2):
            if is_finer(t, t1) and is_finer(t, t2):
                assert is_finer(t, sup)

    def test_carrier_mismatch(self):
        with pytest.raises(UniverseMismatch):
            inverse_image_topology(3, [(FiniteMap(2, 2, [0, 1]), sierpinski())])


class TestSubspace:
    def test_mask_outside_the_carrier(self):
        # the inclusion of {1, 2} would map into point 2, which
        # sierpinski() does not have
        with pytest.raises(UniverseMismatch):
            subspace_topology(sierpinski(), 0b110)

    def test_open_subspace_of_sierpinski(self):
        sub, pm = subspace_topology(sierpinski(), 0b10)
        assert sub == discrete_topology(1)
        assert list(pm) == [1]

    def test_matches_inverse_image_of_inclusion(self):
        for t in enumerate_topologies(3):
            for a in range(1, 8):
                sub, pm = subspace_topology(t, a)
                incl = FiniteMap(sub.n, 3, pm)
                assert sub == inverse_image_topology(sub.n, [(incl, t)])

    def test_iterated_subspace(self):
        # (X|A)|B = X|B when B is inside A
        for t in enumerate_topologies(3):
            for a in range(1, 8):
                sub_a, pm_a = subspace_topology(t, a)
                for b_inner in range(1, 1 << sub_a.n):
                    sub_ab, pm_ab = subspace_topology(sub_a, b_inner)
                    b = mask_of([pm_a[i] for i in pm_ab], 3)
                    sub_b, pm_b = subspace_topology(t, b)
                    assert sub_ab == sub_b
                    assert [pm_a[i] for i in pm_ab] == list(pm_b)

    def test_open_in_open_subspace_is_open(self):
        for t in enumerate_topologies(3):
            for a in t.opens:
                if not a:
                    continue
                sub, pm = subspace_topology(t, a)
                for o in sub.opens:
                    assert mask_of([pm[i] for i in range(sub.n) if o >> i & 1], 3) in t.opens

    def test_closed_in_closed_subspace_is_closed(self):
        for t in enumerate_topologies(3):
            for a in t.closed_sets():
                if not a:
                    continue
                sub, pm = subspace_topology(t, a)
                for c in sub.closed_sets():
                    m = mask_of([pm[i] for i in range(sub.n) if c >> i & 1], 3)
                    assert t.is_closed(m)


class TestProduct:
    def test_sierpinski_squared(self):
        t, projs = product_topology([sierpinski(), sierpinski()])
        assert t.n == 4
        assert t.opens.sets == (0b0000, 0b1000, 0b1010, 0b1100, 0b1110, 0b1111)

    def test_row_major_indexing(self):
        # point i * 2 + j of the product projects to (i, j)
        first, second = product_projections([2, 2])
        assert (first(2), second(2)) == (1, 0)
        assert (first(3), second(3)) == (1, 1)

    def test_projections_continuous_and_open(self):
        s = sierpinski()
        t, projs = product_topology([s, s])
        for p in projs:
            m = SpaceMap(t, s, p)
            assert is_continuous(m)
            assert map_open_closed(m)[0]

    def test_box_closure_law(self):
        # closure of A x B is (closure A) x (closure B)
        s = sierpinski()
        t2 = Topology(2, [0b00, 0b01, 0b11])
        prod, projs = product_topology([s, t2])
        for a in range(4):
            for b in range(4):
                box = 0
                for i in range(2):
                    for j in range(2):
                        if a >> i & 1 and b >> j & 1:
                            box |= 1 << i * 2 + j
                ca, cb = closure(s, a), closure(t2, b)
                cbox = 0
                for i in range(2):
                    for j in range(2):
                        if ca >> i & 1 and cb >> j & 1:
                            cbox |= 1 << i * 2 + j
                assert closure(prod, box) == cbox

    def test_subspace_of_product_is_product_of_subspaces(self):
        s = sierpinski()
        t2 = Topology(2, [0b00, 0b10, 0b11])
        prod, _ = product_topology([s, t2])
        for a in range(1, 4):
            for b in range(1, 4):
                box = 0
                for i in range(2):
                    for j in range(2):
                        if a >> i & 1 and b >> j & 1:
                            box |= 1 << i * 2 + j
                sub_box, _ = subspace_topology(prod, box)
                sub_a, _ = subspace_topology(s, a)
                sub_b, _ = subspace_topology(t2, b)
                prod_sub, _ = product_topology([sub_a, sub_b])
                assert sub_box == prod_sub

    def test_componentwise_convergence(self):
        # a filter converges in the product iff each image filter under
        # the projections converges componentwise
        s = sierpinski()
        prod, projs = product_topology([s, s])
        for f in enumerate_filters(4):
            lim = filter_limits(prod, f)
            for pt in range(4):
                comp = all(
                    filter_limits(s, image_filter(projs[i], f)) >> projs[i](pt) & 1
                    for i in range(2))
                assert bool(lim >> pt & 1) == comp

    def test_cap(self):
        # the product carrier is checked as every carrier is
        with pytest.raises(CapExceeded, match='carrier size 25 outside 0..20'):
            product_projections([5, 5])
        assert [p.n_src for p in product_projections([4, 5])] == [20, 20]


class TestDirectImage:
    def test_identity_gives_back_the_topology(self):
        for t in enumerate_topologies(3):
            assert direct_image_topology(3, [(identity_map(3), t)]) == t

    def test_finest_making_maps_continuous(self):
        s = sierpinski()
        f = FiniteMap(2, 3, [0, 2])
        gen = direct_image_topology(3, [(f, s)])
        assert is_continuous(SpaceMap(s, gen, f))
        for t in enumerate_topologies(3):
            if is_continuous(SpaceMap(s, t, f)):
                assert is_finer(gen, t)

    def test_infimum_is_intersection(self):
        t1 = Topology(2, [0b00, 0b01, 0b11])
        t2 = sierpinski()
        inf = direct_image_topology(2, [(identity_map(2), t1), (identity_map(2), t2)])
        assert inf == indiscrete_topology(2)
        common = set(t1.opens.sets) & set(t2.opens.sets)
        assert set(inf.opens.sets) == common


class TestQuotient:
    def test_validate_equivalence(self):
        rows = rows_from_partition(3, [[0, 1], [2]])
        assert validate_equivalence(3, rows) == [0b011, 0b100]

    def test_not_reflexive(self):
        with pytest.raises(NotEquivalence):
            validate_equivalence(2, [0b01, 0b01])

    def test_not_symmetric(self):
        with pytest.raises(NotEquivalence):
            validate_equivalence(2, [0b11, 0b10])

    def test_overlapping_blocks(self):
        with pytest.raises(NotEquivalence):
            rows_from_partition(2, [[0, 1], [1]])

    def test_missing_points(self):
        with pytest.raises(NotEquivalence):
            rows_from_partition(2, [[0]])

    def test_collapse_sierpinski(self):
        rows = rows_from_partition(2, [[0, 1]])
        qt, q, classes = quotient_topology(sierpinski(), rows)
        assert qt == indiscrete_topology(1)
        assert q.images == (0, 0)

    def test_quotient_of_discrete_is_discrete(self):
        rows = rows_from_partition(3, [[0, 2], [1]])
        qt, q, classes = quotient_topology(discrete_topology(3), rows)
        assert qt == discrete_topology(2)

    def test_class_map_is_continuous_and_finest(self):
        for t in enumerate_topologies(3):
            rows = rows_from_partition(3, [[0, 1], [2]])
            qt, q, classes = quotient_topology(t, rows)
            assert is_continuous(SpaceMap(t, qt, q))
            for other in enumerate_topologies(2):
                if is_continuous(SpaceMap(t, other, q)):
                    assert is_finer(qt, other)


class TestUniversalProperty:
    def test_inverse_image_true(self):
        s = sierpinski()
        f = FiniteMap(3, 2, [0, 1, 1])
        gen = inverse_image_topology(3, [(f, s)])
        ok, witness = check_universal_property(3, [(f, s)], gen, 'inverse')
        assert ok and witness is None

    def test_inverse_image_false_with_witness(self):
        s = sierpinski()
        f = FiniteMap(3, 2, [0, 1, 1])
        wrong = discrete_topology(3)
        ok, witness = check_universal_property(3, [(f, s)], wrong, 'inverse')
        assert not ok
        tz, g = witness
        # the witness map is continuous on one side but not the other
        assert is_continuous(SpaceMap(tz, wrong, g)) != is_continuous(
            SpaceMap(tz, s, f.compose(g)))

    def test_direct_image_true(self):
        s = sierpinski()
        f = FiniteMap(2, 3, [0, 2])
        gen = direct_image_topology(3, [(f, s)])
        ok, witness = check_universal_property(3, [(f, s)], gen, 'direct')
        assert ok and witness is None

    def test_direct_image_false_with_witness(self):
        s = sierpinski()
        f = FiniteMap(2, 3, [0, 2])
        ok, witness = check_universal_property(
            3, [(f, s)], discrete_topology(3), 'direct')
        assert not ok and witness is not None

    def test_product_satisfies_inverse_property(self):
        s = sierpinski()
        prod, projs = product_topology([s, s])
        ok, _ = check_universal_property(
            4, list(zip(projs, [s, s])), prod, 'inverse')
        assert ok

    def test_quotient_satisfies_direct_property(self):
        rows = rows_from_partition(3, [[0, 1], [2]])
        for t in enumerate_topologies(3):
            qt, q, classes = quotient_topology(t, rows)
            ok, _ = check_universal_property(2, [(q, t)], qt, 'direct')
            assert ok

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            check_universal_property(2, [], sierpinski(), 'sideways')


SPACES = [t for n in range(4) for t in enumerate_topologies(n)]
SPACES_4 = SPACES + enumerate_topologies(4)


def all_maps(n_src, n_dst):
    return [FiniteMap(n_src, n_dst, images) for images in iproduct(range(n_dst), repeat=n_src)]


def partitions(points):
    """Every partition of the list of points into blocks."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for blocks in partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


def assert_same_as_reference(t, expected):
    """The same opens, and the U the builder keeps is the one the opens
    give."""
    assert t.opens == expected.opens
    assert t.minimal_opens == Topology(t.n, t.opens).minimal_opens


class TestAgainstOpensReference:
    def test_inverse_image_of_every_map_n3(self):
        for t in SPACES:
            for n in range(4):
                for f in all_maps(n, t.n):
                    assert_same_as_reference(inverse_image_topology(n, [(f, t)]),
                                             ref.inverse_image_topology(n, [(f, t)]))

    def test_direct_image_of_every_map_n3(self):
        for t in SPACES:
            for n in range(4):
                for f in all_maps(t.n, n):
                    assert_same_as_reference(direct_image_topology(n, [(f, t)]),
                                             ref.direct_image_topology(n, [(f, t)]))

    def test_infimum_and_supremum_of_every_pair_n3(self):
        for n in range(4):
            tops = enumerate_topologies(n)
            ident = identity_map(n)
            for t1 in tops:
                for t2 in tops:
                    pairs = [(ident, t1), (ident, t2)]
                    assert_same_as_reference(direct_image_topology(n, pairs),
                                             ref.direct_image_topology(n, pairs))
                    assert_same_as_reference(inverse_image_topology(n, pairs),
                                             ref.inverse_image_topology(n, pairs))

    def test_every_subspace_n4(self):
        for t in SPACES_4:
            for a in range(1 << t.n):
                sub, pm = subspace_topology(t, a)
                expected, expected_pm = ref.subspace_topology(t, a)
                assert_same_as_reference(sub, expected)
                assert list(pm) == expected_pm

    def test_every_quotient_n4(self):
        for t in SPACES_4:
            for blocks in partitions(list(range(t.n))):
                qt, q, _ = quotient_topology(t, rows_from_partition(t.n, blocks))
                assert_same_as_reference(qt, ref.direct_image_topology(q.n_dst, [(q, t)]))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_preorders_under_random_maps(self, data):
        n = data.draw(st.integers(0, 8))
        spaces = [topology_of_preorder(u)
                  for u in data.draw(st.lists(preorders(max_n=8), min_size=1, max_size=3))]

        def maps(n_src, n_dst):
            return FiniteMap(n_src, n_dst, data.draw(
                st.lists(st.integers(0, n_dst - 1), min_size=n_src, max_size=n_src)))

        inverse = [(maps(n, t.n), t) for t in spaces]
        assert_same_as_reference(inverse_image_topology(n, inverse),
                                 ref.inverse_image_topology(n, inverse))
        if n:
            direct = [(maps(t.n, n), t) for t in spaces]
            assert_same_as_reference(direct_image_topology(n, direct),
                                     ref.direct_image_topology(n, direct))
        a = data.draw(st.integers(0, full_mask(spaces[0].n)))
        sub, pm = subspace_topology(spaces[0], a)
        expected, expected_pm = ref.subspace_topology(spaces[0], a)
        assert_same_as_reference(sub, expected)
        assert list(pm) == expected_pm
