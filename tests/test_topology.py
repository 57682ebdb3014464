"""Topology validation, generation from (sub)bases, duality, comparison,
and the enumeration counts."""

import time
import tracemalloc
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opens_reference as ref
from conftest import all_systems, is_topology_oracle, preorders
from fintopo.errors import (BaseCriterionViolation, CapExceeded,
                            ClosedAxiomViolation, SubbaseCriterionViolation)
from fintopo.setops import SetSystem, full_mask, mask_of, points_of, theta
from fintopo.topology import (Topology, compare, discrete_topology,
                              enumerate_topologies, generate_from_base,
                              generate_from_subbase, indiscrete_topology,
                              is_base_of, is_base_system, is_finer,
                              is_subbase_system, is_topology,
                              kernel_of, minimal_base, sierpinski,
                              topology_from_closed_system, _kernel_walk)

# OEIS A000798 and A001035: the numbers of topologies and of T0
# topologies (partial orders) on n = 0..5 labelled points
A000798 = (1, 1, 4, 29, 355, 6942)
A001035 = (1, 1, 3, 19, 219, 4231)


def S(n, *sets):
    return SetSystem(n, [mask_of(s, n) for s in sets])


def holding(system, x):
    return [m for m in system.sets if m >> x & 1]


def assert_real_counterexample(system, verdict):
    """The witness shows the axiom it names failing on the system."""
    members, full = set(system.sets), full_mask(system.n)
    axiom, w = verdict
    if axiom == 'contains-empty':
        assert w == 0 and 0 not in members
    elif axiom == 'contains-whole':
        assert w == full and full not in members
    elif axiom == 'covers-carrier':
        assert w == system.union_mask() != full
    else:
        a, b = w
        assert a < b and a in members and b in members
        if axiom == 'union-closed':
            assert a | b not in members
        elif axiom == 'intersection-closed':
            assert a & b not in members
        else:
            assert axiom == 'intersections-are-unions'
            inside = 0
            for m in members:
                if m & ~(a & b) == 0:
                    inside |= m
            assert inside != a & b


def kernel(system):
    return [reduce(and_, holding(system, x), full_mask(system.n)) for x in range(system.n)]


def documented_witness(system):
    """The pair the is_topology docstring names, from the failing cases
    themselves: the least (x, o) whose o | U_x is missing while U_x is
    a member, else the meet pair of documented_meet_pair.  Asked only
    of a system that fails one of the two."""
    members, u = set(system.sets), kernel(system)
    unions = [(x, o) for x in range(system.n) if u[x] in members
              for o in system.sets if o | u[x] not in members]
    if unions:
        x, o = min(unions)
        return 'union', (min(o, u[x]), max(o, u[x]))
    return 'meet', documented_meet_pair(system)


def documented_meet_pair(system):
    """At the least x whose U_x is not a member, the least member a
    holding x and the least member holding x that does not contain a."""
    members, u = set(system.sets), kernel(system)
    h = holding(system, next(x for x in range(system.n) if u[x] not in members))
    return h[0], min(m for m in h if h[0] & ~m)


def assert_checks_agree(system):
    """is_topology, is_base_system and the constructor against the
    reference scans: the same verdicts, real witnesses, and the
    documented witness pairs."""
    verdict = is_topology(system)
    assert (verdict is None) == (ref.is_topology(system) is None)
    if verdict is None:
        t = Topology(system.n, system)
        assert t.minimal_opens == tuple(kernel_of(system.sets, system.n))
    else:
        assert_real_counterexample(system, verdict)
        if verdict[0] == 'union-closed':
            assert documented_witness(system) == ('union', verdict[1])
        elif verdict[0] == 'intersection-closed':
            assert documented_witness(system) == ('meet', verdict[1])
        with pytest.raises(BaseCriterionViolation) as exc:
            Topology(system.n, system)
        assert (exc.value.axiom, exc.value.witness) == verdict
    base = is_base_system(system)
    assert (base is None) == (ref.is_base_system(system) is None)
    if base is not None:
        assert_real_counterexample(system, base)
        if base[0] == 'intersections-are-unions':
            assert documented_meet_pair(system) == base[1]


@st.composite
def systems_near_topologies(draw, max_n=6):
    """The opens of a random topology with one to three members other
    than the empty set and the carrier removed (if it has any), up to
    two random sets added, and one time in four the empty set or the
    carrier removed."""
    u = draw(preorders(1, max_n))
    n = len(u)
    opens = [a for a in range(1 << n) if all(u[x] & ~a == 0 for x in points_of(a))]
    inner = opens[1:-1]
    drop = draw(st.sets(st.sampled_from(inner), min_size=1, max_size=3)) if inner else set()
    add = draw(st.sets(st.integers(0, full_mask(n)), max_size=2))
    drop |= draw(st.sampled_from([set()] * 6 + [{0}, {full_mask(n)}]))
    return SetSystem(n, (set(opens) - drop) | add)


@st.composite
def systems_with_ends(draw, max_n=6):
    """Up to twelve random sets with the empty set and the carrier."""
    n = draw(st.integers(1, max_n))
    full = full_mask(n)
    return SetSystem(n, draw(st.sets(st.integers(0, full), max_size=12)) | {0, full})


class TestIsTopology:
    def test_discrete_and_indiscrete(self):
        assert is_topology(discrete_topology(3).opens) is None
        assert is_topology(indiscrete_topology(3).opens) is None

    def test_missing_empty(self):
        axiom, witness = is_topology(S(2, [0], [0, 1]))
        assert axiom == 'contains-empty'

    def test_missing_whole(self):
        axiom, witness = is_topology(S(2, [], [0]))
        assert axiom == 'contains-whole'

    def test_union_witness(self):
        bad = S(3, [], [0], [1], [0, 1, 2])
        axiom, witness = is_topology(bad)
        assert axiom == 'union-closed'
        a, b = witness
        assert a | b not in bad

    def test_intersection_witness(self):
        bad = S(3, [], [0, 1], [1, 2], [0, 1, 2])
        axiom, witness = is_topology(bad)
        assert axiom == 'intersection-closed'

    def test_matches_oracle_n2(self):
        for s in all_systems(2):
            assert (is_topology(s) is None) == is_topology_oracle(s)

    def test_constructor_validates(self):
        with pytest.raises(BaseCriterionViolation):
            Topology(2, [0b01, 0b11])

    def test_witnesses_pinned(self):
        # unions: U_0 = {0} and U_1 = {1} are members, {0, 1} is not
        assert is_topology(S(3, [], [0], [1], [0, 1, 2])) == ('union-closed', (1, 2))
        # meets: U_1 = {1} is missing; {0, 1} is the least member holding
        # 1, and {1, 2} the least holding 1 that does not contain it
        bad = S(3, [], [0, 1], [1, 2], [0, 1, 2])
        assert is_topology(bad) == ('intersection-closed', (3, 6))
        assert is_base_system(bad) == ('intersections-are-unions', (3, 6))
        # U_0 = {0} and the member {1, 2} have no union in the system
        assert is_topology(S(4, [], [0], [1, 2], [0, 1, 2, 3])) == ('union-closed', (1, 6))

    def test_agrees_with_the_reference_scans_n_le_3(self):
        for n in range(4):
            for s in all_systems(n):
                assert_checks_agree(s)

    @given(st.one_of(systems_near_topologies(), systems_with_ends()))
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_reference_scans_up_to_n6(self, system):
        assert_checks_agree(system)

    def test_power_set_on_16_points_in_bounded_time(self):
        # 2^16 opens, checked in O(n * |opens|): 0.13 to 0.18 s on a
        # shared 2-CPU host.  The pairwise scan took 0.8 s there at
        # n = 11, growing 4x per point.  The bound is 1.5 s
        t0 = time.perf_counter()
        t = Topology(16, range(1 << 16))
        assert time.perf_counter() - t0 < 1.5
        assert t.minimal_opens == tuple(1 << x for x in range(16))


class TestBases:
    def test_sierpinski_base(self):
        t = generate_from_base(S(2, [], [1], [0, 1]))
        assert t == sierpinski()

    def test_singletons_generate_discrete(self):
        base = S(2, [], [0], [1])
        assert generate_from_base(base) == discrete_topology(2)

    def test_missing_empty_rejected(self):
        with pytest.raises(BaseCriterionViolation) as exc:
            generate_from_base(S(2, [0], [1]))
        assert exc.value.axiom == 'contains-empty'

    def test_no_cover_rejected(self):
        with pytest.raises(BaseCriterionViolation) as exc:
            generate_from_base(S(2, [], [0]))
        assert exc.value.axiom == 'covers-carrier'

    def test_intersection_criterion_rejected(self):
        bad = S(3, [], [0, 1], [1, 2], [0, 1, 2])
        with pytest.raises(BaseCriterionViolation) as exc:
            generate_from_base(bad)
        assert exc.value.axiom == 'intersections-are-unions'

    def test_every_topology_is_its_own_base(self):
        for t in enumerate_topologies(3):
            assert is_base_system(t.opens) is None
            assert generate_from_base(t.opens) == t

    def test_minimal_base_generates_and_is_contained_in_every_base(self):
        for t in enumerate_topologies(3):
            mb = minimal_base(t)
            assert is_base_of(mb, t)
            # any other base of t must contain every member of mb except 0
            for bits in range(1 << len(t.opens.sets)):
                cand = SetSystem(3, [m for i, m in enumerate(t.opens.sets) if bits >> i & 1])
                if is_base_system(cand) is None and theta(cand) == t.opens:
                    assert all(m in cand or m == 0 for m in mb)


class TestSubbases:
    def test_topology_is_its_own_subbase(self):
        for t in enumerate_topologies(3):
            assert generate_from_subbase(t.opens) == t

    def test_pairs_generate_discrete(self):
        sub = S(3, [0, 1], [1, 2], [0, 2])
        assert generate_from_subbase(sub) == discrete_topology(3)

    def test_empty_system_rejected(self):
        with pytest.raises(SubbaseCriterionViolation):
            generate_from_subbase(SetSystem(2))

    def test_no_cover_rejected(self):
        with pytest.raises(SubbaseCriterionViolation) as exc:
            generate_from_subbase(S(2, [0]))
        assert exc.value.criterion == 'covers-carrier'

    def test_fip_system_rejected(self):
        # all members share a point and none is empty: the generated
        # family would never contain the empty set
        with pytest.raises(SubbaseCriterionViolation) as exc:
            generate_from_subbase(S(2, [0], [0, 1]))
        assert exc.value.criterion == 'empty-set-reachable'

    def test_subbase_criteria_report(self):
        assert is_subbase_system(S(2, [], [0, 1])) is None

    def test_generates_coarsest_containing(self):
        # the generated topology contains the subbase and any topology
        # containing the subbase is finer
        sub = S(3, [], [0, 1], [1, 2])
        t = generate_from_subbase(sub)
        assert set(sub.sets) <= set(t.opens.sets)
        for other in enumerate_topologies(3):
            if set(sub.sets) <= set(other.opens.sets):
                assert is_finer(other, t)


class TestClosedDuality:
    def test_round_trip_n3(self):
        for t in enumerate_topologies(3):
            c = t.closed_sets()
            assert is_topology(c) is None
            assert topology_from_closed_system(c) == t

    def test_violation_reported(self):
        with pytest.raises(ClosedAxiomViolation) as exc:
            topology_from_closed_system(S(3, [], [0], [1], [0, 1, 2]))
        assert exc.value.axiom == 'union-closed'

    def test_closed_systems_are_complements_of_topologies(self):
        for n in (1, 2, 3):
            for s in all_systems(n):
                assert (is_topology(s) is None) == (is_topology(s.complements()) is None)

    def test_pair_failing_both_tests_named_by_unions(self):
        # 3 | 6 = 7 and 3 & 6 = 2 are both missing; unions are tested first
        s = SetSystem(4, [0, 3, 6, 15])
        assert is_topology(s) == ('union-closed', (3, 6))
        with pytest.raises(ClosedAxiomViolation) as exc:
            topology_from_closed_system(s)
        assert (exc.value.axiom, exc.value.witness) == ('union-closed', (3, 6))


class TestCompare:
    def test_classifications(self):
        d, i, s = discrete_topology(2), indiscrete_topology(2), sierpinski()
        other = Topology(2, [0b00, 0b01, 0b11])
        assert compare(d, i) == 'strictly-finer'
        assert compare(i, d) == 'strictly-coarser'
        assert compare(s, s) == 'equal'
        assert compare(s, other) == 'incomparable'

    def test_agrees_with_inclusion_n2(self):
        tops = enumerate_topologies(2)
        for t1 in tops:
            for t2 in tops:
                fine = set(t2.opens.sets) <= set(t1.opens.sets)
                coarse = set(t1.opens.sets) <= set(t2.opens.sets)
                expect = ('equal' if fine and coarse else 'strictly-finer' if fine
                          else 'strictly-coarser' if coarse else 'incomparable')
                assert compare(t1, t2) == expect


def _timed(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


class TestEnumeration:
    def test_counts_small(self):
        assert [enumerate_topologies(n, count_only=True) for n in range(4)] == [1, 1, 4, 29]

    def test_enumerator_equals_reference_n_le_4(self):
        for n in range(5):
            tops = enumerate_topologies(n)
            assert [t.opens.sets for t in tops] == sorted(ref.topology_families(n))
            for t in tops:
                assert tuple(kernel_of(t.opens.sets, n)) == t.minimal_opens

    def test_counts_match_oeis(self):
        for n in range(6):
            tops = enumerate_topologies(n)
            assert len(tops) == enumerate_topologies(n, count_only=True) == A000798[n]
            t0 = [t for t in tops if len(set(t.minimal_opens)) == n]
            assert len(t0) == A001035[n]

    def test_kernels_equal_the_recursive_search_n_le_5(self):
        # the walk lists the kernels in the order of the recursive search
        for n in range(6):
            assert [u for _, u, _ in _kernel_walk(n)] == list(ref.preorder_kernels(n)), n

    def test_listing_equals_the_opens_sort_n_le_5(self):
        # the same kernels in the same order as sorting by the opens
        # built from each kernel, and not one space's opens built
        for n in range(6):
            tops = enumerate_topologies(n)
            assert all(t._opens is None for t in tops)
            assert [t.minimal_opens for t in tops] == ref.topologies_by_opens(n)
            assert enumerate_topologies(n, count_only=True) == len(tops)

    def test_five_points_in_bounded_time_and_memory(self):
        # on a shared 2-CPU host the listing at n = 5 took 10-12 ms (the
        # best of 5 runs 10.0-10.5 ms) at a tracemalloc peak of 1.30
        # MiB, all of it the 6,942 spaces kept; sorting by opens built
        # for the sort took 48-54 ms there at a peak of 1.65 MiB.
        # Bounds: the best of 5 runs under 40 ms, and a peak under 1.5
        # MiB
        best = min(_timed(enumerate_topologies, 5) for _ in range(5))
        assert best < 0.040
        tracemalloc.start()
        try:
            tops = enumerate_topologies(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tops) == A000798[5]
        assert peak < 1.5 * (1 << 20)

    def test_sorted_by_opens(self):
        for n in range(6):
            keys = [t.opens.sets for t in enumerate_topologies(n)]
            assert keys == sorted(keys)

    def test_all_results_are_topologies_n3(self):
        for t in enumerate_topologies(3):
            assert is_topology(t.opens) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_topologies(6)
