"""Neighborhood systems, set maps, neighborhood bases and filters checked
and built through their cores, against the phi and pairwise scans they
replaced (tests/opens_reference.py).

The verdicts are compared whole: the axiom, the point or subset, and the
witness.  The library names the least witness in ascending order of
masks, which is the one the scans name when they read members in that
order (ascending=True).  Reading them in Python set order, as they did,
gives the same order while every mask is below 8, so for n <= 3 the
verdicts equal those of the unchanged scans.  Every witness is also
checked to be a counterexample to its axiom.
"""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opens_reference as ref
from conftest import all_systems, phi_oracle
from fintopo.errors import (CapExceeded, EmptyArgument, EmptyMeet, FilterBaseViolation,
                            NotSurjective, UniverseMismatch)
from fintopo.filters import (Filter, enumerate_filters, extend_to_ultrafilter,
                             generate_filter, image_filter, inverse_image_filter,
                             is_filter, is_filter_base, principal_filter,
                             supremum_filter)
from fintopo.neighborhoods import (SetNeighborhoodMap, check_neighborhood_axioms,
                                   check_neighborhood_base_axioms,
                                   check_set_map_axioms, set_map_of,
                                   topology_from_neighborhood_base,
                                   topology_from_neighborhoods, topology_from_set_map)
from fintopo.setops import (FiniteMap, PointSetRelation, SetSystem, full_mask, phi_prime,
                            points_of, supermasks, upward_gap)
from fintopo.topology import discrete_topology, enumerate_topologies, neighborhood_relation

TOPOLOGIES = [t for n in range(1, 5) for t in enumerate_topologies(n)]

NEIGHBORHOOD_AXIOMS = {'nonempty', 'point-membership', 'upward-closed',
                       'intersection-closed', 'interior-witness'}
BASE_AXIOMS = {'nonempty', 'point-membership', 'meet-refined', 'interior-witness'}
SET_MAP_AXIOMS = {'empty-set-full', 'nonempty', 'set-membership', 'upward-closed',
                  'intersection-closed', 'interior-witness', 'union-to-intersection'}
FILTER_AXIOMS = {'no-empty-member', 'contains-whole', 'intersection-closed', 'upward-closed'}
BASE_CONDITIONS = {'nonempty', 'no-empty-member', 'meet-refined'}


def all_relations(n):
    pairs_all = [(x, m) for x in range(n) for m in range(1 << n)]
    for bits in range(1 << len(pairs_all)):
        yield PointSetRelation(n, [p for i, p in enumerate(pairs_all) if bits >> i & 1])


def sections_of(rel):
    return [set(rel.section(x).sets) for x in range(rel.n)]


def head(verdict):
    """The axiom and the point or subset of a verdict."""
    if verdict is None:
        return None
    axiom, witness = verdict
    return axiom, witness[0] if isinstance(witness, tuple) else witness


def toggled(rel, x, m):
    return PointSetRelation(rel.n, set(rel.pairs) ^ {(x, m)})


def toggled_map(smap, a, m):
    table = list(smap.table)
    table[a] = SetSystem(smap.n, set(table[a].sets) ^ {m})
    return SetNeighborhoodMap(smap.n, table)


# -- the witness of each verdict is a counterexample to its axiom --

def assert_neighborhood_witness(rel, verdict):
    sections = sections_of(rel)
    axiom, w = verdict
    if axiom == 'nonempty':
        assert not sections[w]
        return
    x, *rest = w
    sec = sections[x]
    if axiom == 'point-membership':
        assert rest[0] in sec and not rest[0] >> x & 1
    elif axiom == 'upward-closed':
        assert rest[0] not in sec and any(m & ~rest[0] == 0 for m in sec)
    elif axiom == 'intersection-closed':
        u, v = rest
        assert u in sec and v in sec and u & v not in sec
    else:
        assert axiom == 'interior-witness'
        u = rest[0]
        assert u in sec
        assert not any(all(u in sections[y] for y in points_of(v)) for v in sec)


def assert_base_witness(rel, verdict):
    sections = sections_of(rel)
    axiom, w = verdict
    if axiom == 'nonempty':
        assert not sections[w]
        return
    x, *rest = w
    sec = sections[x]
    if axiom == 'point-membership':
        assert rest[0] in sec and not rest[0] >> x & 1
    elif axiom == 'meet-refined':
        u, v = rest
        assert u in sec and v in sec and not any(c & ~(u & v) == 0 for c in sec)
    else:
        assert axiom == 'interior-witness'
        u = rest[0]
        assert u in sec
        assert not any(all(any(c & ~u == 0 for c in sections[y]) for y in points_of(v))
                       for v in sec)


def assert_set_map_witness(smap, verdict):
    table = [set(s.sets) for s in smap.table]
    axiom, w = verdict
    if axiom == 'empty-set-full':
        assert table[0] != set(range(1 << smap.n))
        return
    if axiom in ('nonempty', 'union-to-intersection'):
        sec = table[w]
        if axiom == 'nonempty':
            assert not sec
        else:
            assert sec != set.intersection(*[table[1 << x] for x in points_of(w)])
        return
    a, *rest = w
    sec = table[a]
    if axiom == 'set-membership':
        assert rest[0] in sec and a & ~rest[0]
    elif axiom == 'upward-closed':
        assert rest[0] not in sec and any(m & ~rest[0] == 0 for m in sec)
    elif axiom == 'intersection-closed':
        u, v = rest
        assert u in sec and v in sec and u & v not in sec
    else:
        assert axiom == 'interior-witness'
        assert rest[0] in sec and not any(rest[0] in table[v] for v in sec)


def assert_filter_witness(system, verdict):
    members = set(system.sets)
    axiom, w = verdict
    if axiom == 'no-empty-member':
        assert 0 in members
    elif axiom == 'contains-whole':
        assert w == full_mask(system.n) and w not in members
    elif axiom == 'intersection-closed':
        a, b = w
        assert a in members and b in members and a & b not in members
    else:
        assert axiom == 'upward-closed'
        assert w not in members and any(m & ~w == 0 for m in members)


def assert_filter_base_witness(system, verdict):
    members = set(system.sets)
    axiom, w = verdict
    if axiom == 'nonempty':
        assert not members and w is None
    elif axiom == 'no-empty-member':
        assert 0 in members
    else:
        assert axiom == 'meet-refined'
        a, b = w
        assert a in members and b in members
        assert not any(c & ~(a & b) == 0 for c in members)


CHECKS = {
    'neighborhood': (check_neighborhood_axioms, ref.check_neighborhood_axioms,
                     assert_neighborhood_witness),
    'base': (check_neighborhood_base_axioms, ref.check_neighborhood_base_axioms,
             assert_base_witness),
    'set-map': (check_set_map_axioms, ref.check_set_map_axioms, assert_set_map_witness),
    'filter': (is_filter, ref.is_filter, assert_filter_witness),
    'filter-base': (is_filter_base, ref.is_filter_base, assert_filter_base_witness),
}


def compare(kind, obj, small):
    """The verdict on obj equals the scan's: whole when every mask is
    below 8 (small), else whole against the scan in ascending order and
    in axiom and point against the scan in set order.  Returns it."""
    new, old, assert_witness = CHECKS[kind]
    verdict = new(obj)
    if small:
        assert verdict == old(obj)
    else:
        assert verdict == old(obj, ascending=True)
        if kind.startswith('filter'):
            assert (verdict and verdict[0]) == (old(obj) and old(obj)[0])
        else:
            assert head(verdict) == head(old(obj))
    if verdict is not None:
        assert_witness(obj, verdict)
    return verdict


class TestSupermasks:
    def test_ascending_supersets(self):
        for n in range(6):
            for m in range(1 << n):
                expect = [s for s in range(1 << n) if m & ~s == 0]
                assert supermasks(m, n) == expect

    def test_upward_gap_is_least_superset_outside(self):
        for n in range(4):
            for s in all_systems(n):
                outside = set(phi_oracle(s).sets) - set(s.sets)
                assert upward_gap(s.sets, n) == min(outside, default=None)


class TestNeighborhoodChecks:
    def test_all_relations_n2_match_reference(self):
        for rel in all_relations(2):
            compare('neighborhood', rel, True)
            compare('base', rel, True)

    def test_one_pair_changes_n_le_3_reach_every_axiom(self):
        # every one-pair addition and removal from each valid relation,
        # neighborhood base (the open neighborhoods) and set map
        seen = {'neighborhood': set(), 'base': set(), 'set-map': set()}
        for t in TOPOLOGIES:
            n = t.n
            if n > 3:
                continue
            for kind, rel in (('neighborhood', neighborhood_relation(t)),
                              ('base', ref.neighborhood_relation(t, 'open'))):
                assert compare(kind, rel, True) is None
                for x in range(n):
                    for m in range(1 << n):
                        verdict = compare(kind, toggled(rel, x, m), True)
                        if verdict:
                            seen[kind].add(verdict[0])
            smap = set_map_of(t)
            assert compare('set-map', smap, True) is None
            for a in range(1 << n):
                for m in range(1 << n):
                    verdict = compare('set-map', toggled_map(smap, a, m), True)
                    if verdict:
                        seen['set-map'].add(verdict[0])
        assert seen == {'neighborhood': NEIGHBORHOOD_AXIOMS, 'base': BASE_AXIOMS,
                        'set-map': SET_MAP_AXIOMS}

    @given(st.sampled_from(TOPOLOGIES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_and_two_pair_changes_n_le_4(self, t, data):
        n = t.n
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, full_mask(n)))
        for kind, rel in (('neighborhood', neighborhood_relation(t)),
                          ('base', ref.neighborhood_relation(t, 'open'))):
            for x, m in data.draw(st.lists(pair, min_size=1, max_size=2)):
                rel = toggled(rel, x, m)
            compare(kind, rel, n <= 3)
        smap = set_map_of(t)
        entry = st.tuples(st.integers(0, full_mask(n)), st.integers(0, full_mask(n)))
        for a, m in data.draw(st.lists(entry, min_size=1, max_size=2)):
            smap = toggled_map(smap, a, m)
        compare('set-map', smap, n <= 3)


class TestFilterChecks:
    def test_every_system_n_le_3_matches_reference(self):
        for n in range(4):
            for s in all_systems(n):
                compare('filter', s, True)
                compare('filter-base', s, True)

    def test_every_system_n4_matches_ascending_reference(self):
        seen = set()
        for s in all_systems(4):
            for kind in ('filter', 'filter-base'):
                verdict = compare(kind, s, False)
                if verdict:
                    seen.add(verdict[0])
        assert seen == FILTER_AXIOMS | BASE_CONDITIONS

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_and_two_member_changes_n_le_4(self, n, data):
        core = data.draw(st.integers(1, full_mask(n)))
        members = set(supermasks(core, n))
        for m in data.draw(st.lists(st.integers(0, full_mask(n)), min_size=1, max_size=2)):
            members ^= {m}
        s = SetSystem(n, members)
        compare('filter', s, n <= 3)
        compare('filter-base', s, n <= 3)


class TestConstructions:
    def test_topologies_and_set_maps_match_reference(self):
        for t in TOPOLOGIES:
            rel = neighborhood_relation(t)
            assert topology_from_neighborhoods(rel) == ref.topology_from_relation(rel) == t
            smap = set_map_of(t)
            assert list(smap.table) == ref.set_map_table(t)
            assert topology_from_set_map(smap) == t
            base = ref.neighborhood_relation(t, 'open')
            assert phi_prime(base) == ref.neighborhoods_from_base(base) == rel
            assert topology_from_neighborhood_base(base) == t

    def test_reconstructed_topology_keeps_its_kernel(self):
        for t in TOPOLOGIES:
            rebuilt = topology_from_neighborhoods(neighborhood_relation(t))
            assert rebuilt.minimal_opens == t.minimal_opens

    def test_filters_match_reference(self):
        for n in range(1, 5):
            filters = enumerate_filters(n)
            for f in filters:
                assert f.members == ref.filter_members(SetSystem(n, [f.core()]))
                assert f.core() == min(f.members.sets)
                assert f.is_ultrafilter() == ref.is_ultrafilter(f.members, n)
                assert f == Filter(n, f.members) and hash(f) == hash(Filter(n, f.members))
                for g in filters:
                    assert f.is_finer(g) == (g.members <= f.members)
            for s in all_systems(n) if n <= 3 else ():
                if is_filter_base(s) is None:
                    f = generate_filter(s)
                    assert f.members == ref.filter_members(s)
                    u = extend_to_ultrafilter(s)
                    assert u.core() == 1 << points_of(f.core())[0]

    def test_supremum_and_images_match_the_base_route(self):
        # the filters generated by the cross intersections, the images
        # and the preimages of all members, as before
        for n in range(1, 4):
            filters = enumerate_filters(n)
            for f, g in product(filters, repeat=2):
                try:
                    base = ref.supremum_of_filter_bases([f.members, g.members])
                except EmptyMeet as exc:
                    with pytest.raises(EmptyMeet) as got:
                        supremum_filter([f, g])
                    assert got.value.selection == exc.selection
                else:
                    assert supremum_filter(iter([f, g])).members == ref.filter_members(base)
            for k in range(1, 4):
                for images in product(range(k), repeat=n):
                    m = FiniteMap(n, k, images)
                    for f in filters:
                        image = image_filter(m, f).members
                        assert image == ref.filter_members(m.image_system(f.members))
                for images in product(range(n), repeat=k):
                    m = FiniteMap(k, n, images)
                    if m.is_surjective():
                        for f in filters:
                            pre = inverse_image_filter(m, f).members
                            assert pre == ref.filter_members(m.preimage_system(f.members))

    def test_supremum_and_images_check_their_arguments(self):
        f3, f4 = principal_filter(3, 1), principal_filter(4, 1)
        with pytest.raises(EmptyArgument):
            supremum_filter([])
        with pytest.raises(UniverseMismatch):
            supremum_filter([f3, f4])
        with pytest.raises(UniverseMismatch):
            image_filter(FiniteMap(4, 2, [0, 0, 1, 1]), f3)
        with pytest.raises(NotSurjective):
            inverse_image_filter(FiniteMap(2, 2, [0, 0]), principal_filter(2, 1))
        with pytest.raises(UniverseMismatch):
            inverse_image_filter(FiniteMap(2, 2, [1, 0]), f3)

    def test_from_core_checks_its_arguments(self):
        with pytest.raises(FilterBaseViolation):
            Filter.from_core(3, 0)
        with pytest.raises(UniverseMismatch):
            Filter.from_core(3, 0b1000)
        with pytest.raises(CapExceeded):
            principal_filter(40, 1)
        with pytest.raises(UniverseMismatch):
            principal_filter(3, 1).is_finer(principal_filter(4, 1))


class TestWitnessOrder:
    """Witnesses now come in ascending order of masks; the scans read
    members in Python set order, which differs once masks reach 8."""

    def test_point_membership_names_least_member(self):
        rel = PointSetRelation(4, [(0, 15), (1, 4), (1, 8), (1, 15), (2, 15), (3, 15)])
        assert check_neighborhood_axioms(rel) == ('point-membership', (1, 4))
        assert ref.check_neighborhood_axioms(rel) == ('point-membership', (1, 8))

    def test_filter_pair_starts_at_least_member(self):
        s = SetSystem(4, [7, 12, 13, 15])
        assert is_filter(s) == ('intersection-closed', (7, 12))
        assert ref.is_filter(s) == ('intersection-closed', (12, 7))
        assert is_filter_base(s) == ('meet-refined', (7, 12))
        assert ref.is_filter_base(s) == ('meet-refined', (12, 7))


class TestBoundedWork:
    """Each of these scanned 2^13 to 2^17 members pairwise before."""

    BOUND_S = 2.0

    def test_principal_filter_on_16_points(self):
        start = time.perf_counter()
        f = principal_filter(16, 1)
        assert len(f.members) == 1 << 15
        assert f.is_ultrafilter()
        assert f.is_finer(principal_filter(16, 0b11))
        assert not principal_filter(16, 0b11).is_finer(f)
        assert time.perf_counter() - start < self.BOUND_S

    def test_generate_filter_on_18_points(self):
        start = time.perf_counter()
        f = generate_filter(SetSystem(18, [0b1, 0b111]))
        assert f.core() == 1 and len(f.members) == 1 << 17
        with pytest.raises(FilterBaseViolation):
            generate_filter(SetSystem(18, [0b011, 0b101]))
        assert time.perf_counter() - start < self.BOUND_S

    def test_supremum_and_images_on_16_points(self):
        start = time.perf_counter()
        f, g = principal_filter(16, 0b01), principal_filter(16, 0b11)
        assert supremum_filter([f, g]) == f
        with pytest.raises(EmptyMeet):
            supremum_filter([f, principal_filter(16, 0b10)])
        swap = FiniteMap(16, 16, [1, 0] + list(range(2, 16)))
        assert image_filter(swap, f).core() == 0b10
        assert inverse_image_filter(swap, f).core() == 0b10
        assert time.perf_counter() - start < self.BOUND_S

    def test_neighborhood_axioms_of_discrete_14(self):
        start = time.perf_counter()
        rel = neighborhood_relation(discrete_topology(14))
        assert check_neighborhood_axioms(rel) is None
        assert time.perf_counter() - start < self.BOUND_S
