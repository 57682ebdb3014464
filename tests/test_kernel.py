"""Differential tests for the U_x kernel.

Everything the library now derives from Topology.minimal_opens is
compared with the opens-scanning reference in opens_reference.py: on
every topology with n <= 4, and with hypothesis on random preorders
with n <= 6 (n <= 8 for the views a space keeps).  Topologies generated
from a system, and the topology and base checks, are compared with the
pairwise reference on every system with n <= 3, and generation also on
random systems with n <= 8.  Images and preimages of masks under a map
are compared with loops over every source point, on carriers at each
boundary of the maps' 8-point lookup tables too.  The closure- and
interior-axiom checks also give the verdicts and witnesses of the
one-pass scans they fall back on.  The transpose of a kernel is compared
with the bit loop it replaced, at each edge of the bit squares it packs
a kernel into.
"""

import random
from functools import cached_property, reduce
from itertools import permutations, product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opens_reference as ref
from conftest import VIEWS, all_systems, chain, preorders, topology_of_preorder
from fintopo import continuity, generated, metric, order, setops, topology
from fintopo.closure import (SubsetOperator, analyze_subset, check_closure_axioms,
                             check_interior_axioms, closure, closure_operator_of,
                             derived_set, interior, interior_operator_of,
                             topology_from_closure_operator)
from fintopo.continuity import (SpaceMap, are_homeomorphic, continuity_characterizations,
                                is_continuous_at, map_open_closed)
from fintopo.convergence import (DirectedSet, EventuallyPeriodicSequence, Net,
                                 filter_adherence, filter_limits, net_cluster_points,
                                 net_limits, sequence_cluster_points, sequence_limits)
from fintopo.errors import CapExceeded
from fintopo.filters import enumerate_filters, principal_filter
from fintopo.setops import FiniteMap, SetSystem, full_mask, points_of
from fintopo.topology import (Topology, enumerate_topologies, generate_from_subbase,
                              is_base_of, minimal_base, neighborhood_relation)

SMALL = [t for n in range(5) for t in enumerate_topologies(n)]


@pytest.fixture(scope='module')
def n4_classes():
    """The 219 spaces on 4 points and the first space of each of their
    33 homeomorphism classes, by the reference's permutation scan."""
    tops, reps = enumerate_topologies(4), []
    for t in tops:
        if all(ref.are_homeomorphic(t, r) is None for r in reps):
            reps.append(t)
    assert len(reps) == 33
    return tops, reps


# 0 <= 1 <= 2 <= 1: a directed set whose top class {1, 2} has two
# elements, so a net on it can oscillate forever
DOMAIN = DirectedSet(3, [(0, 1), (0, 2), (1, 2), (2, 1)])


@st.composite
def systems(draw, max_n=8):
    """A random system of up to ten masks on 0 to max_n points."""
    n = draw(st.integers(0, max_n))
    return SetSystem(n, draw(st.lists(st.integers(0, full_mask(n)), max_size=10)))


def assert_same_generated_topology(s):
    """generate_from_subbase on s with the empty set and the carrier
    added gives theta(psi) of that system, and the U it keeps is the one
    the opens give."""
    s = s.with_sets(s.sets + (0, full_mask(s.n)))
    t = generate_from_subbase(s)
    assert t.opens == ref.generated_topology(s).opens
    assert t.minimal_opens == Topology(s.n, t.opens).minimal_opens


def nets(n):
    """Nets on DOMAIN: every value tuple for n <= 3, and for n = 4 every
    pair of values on the top class after a fixed first value."""
    if n <= 3:
        values = product(range(n), repeat=3)
    else:
        values = ((0, v, w) for v in range(n) for w in range(n))
    return [Net(DOMAIN, v, n) for v in values]


def sequences(n):
    """One eventually periodic sequence per nonempty set of cycle values."""
    return [EventuallyPeriodicSequence([0], points_of(c), n) for c in range(1, 1 << n)]


def assert_point_operations_match(t):
    for a in range(1 << t.n):
        assert closure(t, a) == ref.closure(t, a)
        assert interior(t, a) == ref.interior(t, a)
        assert derived_set(t, a) == ref.derived_set(t, a)
        assert analyze_subset(t, a)['boundary'] == ref.boundary(t, a)


def assert_structure_matches(t):
    assert minimal_base(t) == ref.minimal_base(t)
    assert neighborhood_relation(t) == ref.neighborhood_relation(t)
    cl, inte = closure_operator_of(t), interior_operator_of(t)
    assert cl.table == tuple(ref.closure(t, a) for a in range(1 << t.n))
    assert inte.table == tuple(ref.interior(t, a) for a in range(1 << t.n))
    assert check_closure_axioms(cl) is None and ref.check_closure_axioms(cl) is None
    assert check_interior_axioms(inte) is None and ref.check_interior_axioms(inte) is None


def assert_views_match(t):
    """Each view the space keeps equals one computed from its opens, and
    the public names read the kept ones."""
    n = t.n
    assert t.closure_table == tuple(ref.closure(t, a) for a in range(1 << n))
    assert t.point_closures == tuple(ref.closure(t, 1 << x) for x in range(n))
    assert t.closed_sets() == SetSystem(n, [full_mask(n) ^ o for o in t.opens])
    assert t.minimal_base == ref.minimal_base(t)
    assert minimal_base(t) is t.minimal_base


def assert_limits_match(t, filters, nets, sequences):
    for f in filters:
        assert filter_limits(t, f) == ref.filter_limits(t, f)
        assert filter_adherence(t, f) == ref.filter_adherence(t, f)
    for net in nets:
        assert net_limits(t, net) == ref.net_limits(t, net)
        assert net_cluster_points(t, net) == ref.net_cluster_points(t, net)
    for seq in sequences:
        assert sequence_limits(t, seq) == ref.sequence_limits(t, seq)
        assert sequence_cluster_points(t, seq) == ref.sequence_cluster_points(t, seq)


def relabelled(t, perm):
    """The topology whose opens are the images of those of t under perm."""
    f = FiniteMap(t.n, t.n, perm)
    return Topology(t.n, [f.image_mask(o) for o in t.opens])


def assert_same_homeomorphism(t1, t2):
    """Same verdict and the same witness as the permutation scan."""
    ours, theirs = are_homeomorphic(t1, t2), ref.are_homeomorphic(t1, t2)
    assert (ours is None) == (theirs is None)
    if ours is not None:
        assert ours.images == theirs.images
    return ours


def assert_same_verdict(ours, theirs, table, union):
    """Both checks name the same failed axiom.  Witnesses of the
    pairwise axiom may differ, but each must really violate it."""
    if ours is None or theirs is None:
        assert ours is theirs
        return
    assert ours[0] == theirs[0]
    if ours[0] in ('additive', 'multiplicative'):
        for a, b in (ours[1], theirs[1]):
            if union:
                assert table[a | b] != table[a] | table[b]
            else:
                assert table[a & b] != table[a] & table[b]
    else:
        assert ours == theirs


class TestAllSmallTopologies:
    def test_point_operations(self):
        for t in SMALL:
            assert_point_operations_match(t)

    def test_base_neighborhoods_tables_and_axioms(self):
        for t in SMALL:
            assert_structure_matches(t)

    def test_kept_views(self):
        assert len(SMALL) == 390
        for t in SMALL:
            assert_views_match(t)

    def test_limits_and_cluster_points(self):
        for t in SMALL:
            n = t.n
            assert_limits_match(t, enumerate_filters(n), nets(n), sequences(n))

    def test_continuity_at_a_point(self):
        tops = [t for n in range(1, 4) for t in enumerate_topologies(n)]
        for t1, t2 in product(tops, repeat=2):
            for images in product(range(t2.n), repeat=t1.n):
                m = SpaceMap(t1, t2, FiniteMap(t1.n, t2.n, images))
                for x in range(t1.n):
                    assert is_continuous_at(m, x) == ref.is_continuous_at(m, x)

    def test_axiom_checks_on_every_one_entry_change_n3(self):
        # every table one entry away from a valid closure table, and its
        # dual: each axiom failure shows up among them
        seen = set()
        for t in enumerate_topologies(3):
            valid = closure_operator_of(t).table
            for a, v in product(range(8), range(8)):
                if v == valid[a]:
                    continue
                table = list(valid)
                table[a] = v
                op = SubsetOperator(3, table)
                ours = check_closure_axioms(op)
                assert_same_verdict(ours, ref.check_closure_axioms(op), op.table, True)
                assert ours == ref.check_closure_axioms_in_one_pass(op)
                dual = op.dual()
                ours_dual = check_interior_axioms(dual)
                assert_same_verdict(ours_dual, ref.check_interior_axioms(dual), dual.table, False)
                assert ours_dual == ref.check_interior_axioms_in_one_pass(dual)
                seen.update(verdict[0] for verdict in (ours, ours_dual) if verdict is not None)
        assert seen == {'empty-fixed', 'extensive', 'idempotent', 'additive',
                        'whole-fixed', 'contractive', 'multiplicative'}

    def test_homeomorphism_every_pair_n3(self):
        for n in range(4):
            tops = enumerate_topologies(n)
            for t1, t2 in product(tops, repeat=2):
                assert_same_homeomorphism(t1, t2)

    def test_homeomorphism_to_every_relabelling_n4(self):
        for t in enumerate_topologies(4):
            for perm in permutations(range(4)):
                assert assert_same_homeomorphism(t, relabelled(t, perm)) is not None

    def test_homeomorphism_n4_against_the_class_representatives(self, n4_classes):
        # each 4-point space, built afresh three ways, so that its
        # shape_key is computed inside the call, on either side
        builds = (lambda t: Topology(t.n, t.opens),
                  lambda t: Topology.from_kernel(t.n, t.minimal_opens),
                  lambda t: topology_from_closure_operator(closure_operator_of(t)))
        tops, reps = n4_classes
        for t, r in product(tops, reps):
            want = [ref.are_homeomorphic(t, r), ref.are_homeomorphic(r, t)]
            want = [None if w is None else w.images for w in want]
            for build in builds:
                got = [are_homeomorphic(build(t), r), are_homeomorphic(r, build(t))]
                assert [None if w is None else w.images for w in got] == want

    def test_homeomorphism_reads_the_kept_shape_data(self, n4_classes, monkeypatch):
        # once both spaces keep their shape_key, the search recomputes
        # neither the point closures nor the point shapes
        tops, reps = n4_classes
        want = {(t, r): ref.are_homeomorphic(t, r) for t, r in product(tops, reps)}
        for t in tops:
            t.shape_key

        def recomputed(*args):
            raise AssertionError('shape data recomputed')

        for module in (topology, continuity):
            monkeypatch.setattr(module, 'point_closures', recomputed, raising=False)
            monkeypatch.setattr(module, 'point_shapes', recomputed, raising=False)
        for (t, r), w in want.items():
            got = are_homeomorphic(t, r)
            assert (got is None) == (w is None)
            assert got is None or got.images == w.images


class TestRandomPreorders:
    @given(preorders())
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_the_preorder(self, u):
        assert topology_of_preorder(u).minimal_opens == u

    @given(preorders())
    @settings(max_examples=60, deadline=None)
    def test_point_operations(self, u):
        assert_point_operations_match(topology_of_preorder(u))

    @given(preorders())
    @settings(max_examples=40, deadline=None)
    def test_base_neighborhoods_tables_and_axioms(self, u):
        assert_structure_matches(topology_of_preorder(u))

    @given(preorders(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_kept_views(self, u):
        assert_views_match(topology_of_preorder(u))

    @given(preorders(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_limits_and_cluster_points(self, u, data):
        t = topology_of_preorder(u)
        n = t.n
        point = st.integers(0, n - 1)
        core = data.draw(st.integers(1, full_mask(n)))
        net = Net(DOMAIN, data.draw(st.lists(point, min_size=3, max_size=3)), n)
        seq = EventuallyPeriodicSequence(data.draw(st.lists(point, max_size=3)),
                                         data.draw(st.lists(point, min_size=1, max_size=4)), n)
        assert_limits_match(t, [principal_filter(n, core)], [net], [seq])

    @given(preorders(max_n=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_axiom_checks_on_changed_tables(self, u, data):
        t = topology_of_preorder(u)
        size = 1 << t.n
        table = list(closure_operator_of(t).table)
        for a in data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3)):
            table[a] = data.draw(st.integers(0, size - 1))
        op = SubsetOperator(t.n, table)
        assert_same_verdict(check_closure_axioms(op), ref.check_closure_axioms(op),
                            op.table, True)
        assert check_closure_axioms(op) == ref.check_closure_axioms_in_one_pass(op)
        dual = op.dual()
        assert_same_verdict(check_interior_axioms(dual), ref.check_interior_axioms(dual),
                            dual.table, False)
        assert check_interior_axioms(dual) == ref.check_interior_axioms_in_one_pass(dual)

    @given(preorders(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_homeomorphism_to_a_relabelling(self, u, data):
        t = topology_of_preorder(u)
        perm = data.draw(st.permutations(range(t.n)))
        assert assert_same_homeomorphism(t, relabelled(t, perm)) is not None

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(preorders(n, n), preorders(n, n))))
    @settings(max_examples=60, deadline=None)
    def test_homeomorphism_of_independent_preorders(self, pair):
        assert_same_homeomorphism(*map(topology_of_preorder, pair))

    def test_homeomorphism_when_the_invariants_agree(self):
        # two 6-point preorders with the same number of opens and the same
        # shape_key that are not homeomorphic, so the search must fail
        t1 = topology_of_preorder((1, 2, 15, 8, 24, 56))
        t2 = topology_of_preorder((23, 18, 4, 8, 16, 56))
        assert len(t1.opens) == len(t2.opens) and t1.shape_key == t2.shape_key
        assert assert_same_homeomorphism(t1, t2) is None
        assert assert_same_homeomorphism(t2, t1) is None
        assert assert_same_homeomorphism(t1, relabelled(t1, [5, 3, 1, 0, 4, 2])) is not None


# carrier sizes at and around the 8, 16 and 32 bit squares that
# point_closures packs a kernel into
SQUARE_EDGES = (0, 1, 7, 8, 9, 15, 16, 17, 20)


class TestPointClosures:
    """The block-swap transpose against the bit loop it replaced."""

    def test_every_kernel_up_to_five_points(self):
        for n in range(6):
            for t in enumerate_topologies(n):
                u = t.minimal_opens
                assert topology.point_closures(u) == tuple(ref.point_closures(u))

    @pytest.mark.parametrize('n', SQUARE_EDGES)
    def test_discrete_indiscrete_and_chain(self, n):
        full = full_mask(n)
        for u in ([1 << x for x in range(n)], [full] * n, [full >> x << x for x in range(n)]):
            assert topology.point_closures(u) == tuple(ref.point_closures(u))

    @given(st.sampled_from(SQUARE_EDGES).flatmap(
        lambda n: st.one_of(preorders(n, n),
                            st.lists(st.integers(0, full_mask(n)), min_size=n, max_size=n))))
    @settings(max_examples=200, deadline=None)
    def test_random_kernels_and_relations(self, u):
        assert topology.point_closures(u) == tuple(ref.point_closures(u))


class TestKeptViews:
    def test_equality_and_hash_ignore_the_views(self):
        for t in enumerate_topologies(3):
            u = t.minimal_opens
            bare = Topology(3, t.opens)
            filled = topology_of_preorder(u)
            for name in VIEWS:
                getattr(filled, name)
            assert bare == filled == t and hash(bare) == hash(filled) == hash(t)
            assert len({bare, filled, t}) == 1

    def test_operator_tables_are_built_anew(self):
        # the operators give fresh tables and leave the space's views
        # unfilled, so holding many spaces keeps no tables
        for t in enumerate_topologies(3):
            assert closure_operator_of(t).table == t.closure_table
        for t in enumerate_topologies(3):
            closure_operator_of(t)
            interior_operator_of(t)
            assert vars(t) == {}

    def test_every_view_is_listed(self):
        # VIEWS, which these tests read, names every cached_property
        kept = tuple(k for k, v in vars(Topology).items() if isinstance(v, cached_property))
        assert kept == VIEWS


class TestMapMasks:
    def test_every_mask_of_every_map_n3(self):
        for n_src, n_dst in product(range(4), repeat=2):
            for images in product(range(n_dst), repeat=n_src):
                f = FiniteMap(n_src, n_dst, images)
                for a in range(1 << n_src):
                    assert f.image_mask(a) == ref.image_mask(f, a)
                for b in range(1 << n_dst):
                    assert f.preimage_mask(b) == ref.preimage_mask(f, b)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_maps_and_masks(self, data):
        n_src, n_dst = data.draw(st.integers(0, 20)), data.draw(st.integers(1, 20))
        f = FiniteMap(n_src, n_dst, data.draw(st.lists(st.integers(0, n_dst - 1),
                                                       min_size=n_src, max_size=n_src)))
        for a in data.draw(st.lists(st.integers(0, full_mask(n_src)), max_size=20)):
            assert f.image_mask(a) == ref.image_mask(f, a)
        for b in data.draw(st.lists(st.integers(0, full_mask(n_dst)), max_size=20)):
            assert f.preimage_mask(b) == ref.preimage_mask(f, b)

    def test_bits_off_the_carrier_are_ignored(self):
        f = FiniteMap(3, 2, [1, 0, 1])
        for mask in (-1, -8, 0b1010, 1 << 40):
            assert f.image_mask(mask) == ref.image_mask(f, mask)
            assert f.preimage_mask(mask) == ref.preimage_mask(f, mask)

    def test_masks_at_the_table_boundaries(self):
        # each table covers 8 points: carriers just below, on and above
        # 8 and 16 points, and the largest, in both directions
        rng = random.Random(12)
        sizes = (0, 1, 7, 8, 9, 15, 16, 17, 20)
        for n_src, n_dst in product(sizes, repeat=2):
            if n_src and not n_dst:
                continue
            f = FiniteMap(n_src, n_dst, [rng.randrange(n_dst) for _ in range(n_src)])
            for n, mine, theirs in ((n_src, f.image_mask, ref.image_mask),
                                    (n_dst, f.preimage_mask, ref.preimage_mask)):
                for mask in [0, full_mask(n), -1, 1 << 24] + [1 << x for x in range(n)]:
                    assert mine(mask) == theirs(f, mask), (f, mask)

    def test_tables_leave_equality_and_hash_alone(self):
        f = FiniteMap(17, 9, [x % 9 for x in range(17)])
        g = FiniteMap(17, 9, [x % 9 for x in range(17)])
        masks = (0, 0b1011, 1 << 16, -1)
        first = [(f.image_mask(a), f.preimage_mask(a)) for a in masks]
        assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
        assert [(f.image_mask(a), f.preimage_mask(a)) for a in masks] == first
        assert [(g.image_mask(a), g.preimage_mask(a)) for a in masks] == first
        assert first == [(ref.image_mask(f, a), ref.preimage_mask(f, a)) for a in masks]

    def test_carriers_past_the_cap_are_refused(self):
        # three tables of 8 points cover every carrier the library admits
        with pytest.raises(CapExceeded):
            FiniteMap(21, 1, [0] * 21)
        with pytest.raises(CapExceeded):
            FiniteMap(0, 21, [])

    def test_continuity_past_the_first_table_boundary(self):
        # sparse random preorders on 9 to 12 points, so the spaces have
        # many opens; constant and identity maps are continuous, random
        # maps mostly not
        rng = random.Random(12)

        def space(n):
            u = [1 << x | rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                 for x in range(n)]
            for _ in range(n):
                u = [reduce(or_, (u[y] for y in points_of(ux)), ux) for ux in u]
            return Topology.from_kernel(n, u)

        for _ in range(12):
            src, dst = space(rng.randint(9, 12)), space(rng.randint(9, 12))
            maps = [[rng.randrange(dst.n)] * src.n,
                    [rng.randrange(dst.n) for _ in range(src.n)]]
            if src.n == dst.n:
                maps.append(range(src.n))
                src_again = Topology.from_kernel(src.n, src.minimal_opens)
                pairs = [(src, dst), (src, src_again)]
            else:
                pairs = [(src, dst)]
            for s, t in pairs:
                for images in maps:
                    m = SpaceMap(s, t, FiniteMap(s.n, t.n, images))
                    assert continuity_characterizations(m) == ref.continuity_characterizations(m)
                    assert map_open_closed(m) == ref.map_open_closed(m)


class TestGeneratedTopologies:
    def test_builder_on_every_system_n3(self):
        # includes the empty system, systems that miss a point and
        # systems whose members all share a point
        for n in range(4):
            for s in all_systems(n):
                assert_same_generated_topology(s)

    @given(systems())
    @settings(max_examples=150, deadline=None)
    def test_builder_on_random_systems(self, s):
        assert_same_generated_topology(s)

    def test_base_of_on_every_system_n3(self):
        for n in range(4):
            tops = enumerate_topologies(n)
            for s in all_systems(n):
                for t in tops:
                    assert is_base_of(s, t) == ref.is_base_of(s, t)

    def test_generators_form_no_pairwise_closure(self, monkeypatch):
        # theta and psi list every union (or meet) of a system, up to
        # 2^n sets; no generator may fall back on them, each builds its
        # space from the kernel
        line = chain(3, 'reflexive')
        s = topology.sierpinski()
        dist = metric.PseudoMetric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        calls = [
            lambda: topology.generate_from_subbase(SetSystem(3, [0b001, 0b110])),
            lambda: topology.generate_from_base(SetSystem(3, [0, 0b001, 0b010, 0b110])),
            lambda: topology.is_base_of(SetSystem(2, [0, 0b10, 0b11]), s),
            lambda: generated.inverse_image_topology(3, [(FiniteMap(3, 2, [0, 1, 1]), s)]),
            lambda: generated.inverse_image_topology(
                2, [(setops.identity_map(2), s),
                    (setops.identity_map(2), Topology(2, [0, 0b01, 0b11]))]),
            lambda: generated.product_topology([s, s])[0],
            lambda: order.interval_topology(chain(3)),
            lambda: order.interval_topology(line),
            lambda: order.one_sided_topology(line, 'lower'),
            lambda: order.one_sided_topology(line, 'upper'),
            lambda: metric.metric_topology(dist),
        ]
        expected = [call() for call in calls]

        def pairwise_closure(system):
            raise AssertionError("pairwise closure formed")

        for mod in (setops, topology, generated, order, metric):
            for name in ('psi', 'theta'):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, pairwise_closure)
        assert [call() for call in calls] == expected
