"""Topology validation, generation from (sub)bases, duality, comparison,
and the enumeration counts."""

from collections import Counter

import pytest

import opens_reference as ref
from conftest import all_systems, is_topology_oracle
from fintopo.errors import (BaseCriterionViolation, CapExceeded,
                            ClosedAxiomViolation, SubbaseCriterionViolation)
from fintopo.setops import SetSystem, mask_of, theta
from fintopo.topology import (Topology, compare, discrete_topology,
                              enumerate_topologies, generate_from_base,
                              generate_from_subbase, indiscrete_topology,
                              is_base_of, is_base_system, is_closed_system,
                              is_finer, is_subbase_system, is_topology,
                              kernel_of, minimal_base, preorder_kernels,
                              sierpinski, topology_from_closed_system)

# OEIS A000798 and A001035: the numbers of topologies and of T0
# topologies (partial orders) on n = 0..6 labelled points
A000798 = (1, 1, 4, 29, 355, 6942, 209527)
A001035 = (1, 1, 3, 19, 219, 4231, 130023)


def S(n, *sets):
    return SetSystem(n, [mask_of(s, n) for s in sets])


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
            assert is_closed_system(c) is None
            assert topology_from_closed_system(c) == t

    def test_violation_reported(self):
        with pytest.raises(ClosedAxiomViolation) as exc:
            topology_from_closed_system(S(3, [], [0], [1], [0, 1, 2]))
        assert exc.value.axiom == 'union-closed'

    def test_closed_systems_are_complements_of_topologies(self):
        for n in (1, 2, 3):
            for s in all_systems(n):
                assert (is_closed_system(s) is None) == (is_topology(s.complements()) is None)

    def test_pair_failing_both_tests_named_by_unions(self):
        # 3 | 6 = 7 and 3 & 6 = 2 are both missing; unions are tested first
        s = SetSystem(4, [0, 3, 6, 15])
        assert is_closed_system(s) == ('union-closed', (3, 6))
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

    def test_kernel_counts_n6(self):
        # beyond the listing cap, the kernels alone, counted as they come
        is_t0 = Counter(len(set(u)) == 6 for u in preorder_kernels(6))
        assert is_t0[True] + is_t0[False] == A000798[6]
        assert is_t0[True] == A001035[6]

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
