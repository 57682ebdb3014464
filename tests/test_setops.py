"""Set-system operators: frozen examples, oracle comparisons, and laws."""

import time

import pytest
from hypothesis import given, settings, strategies as st

import opens_reference as ref
from conftest import all_systems, phi_oracle, psi_oracle, theta_oracle
from fintopo.errors import CapExceeded, UniverseMismatch
from fintopo.filters import generate_filter
from fintopo.neighborhoods import compare_by_neighborhoods
from fintopo.setops import (FiniteMap, PointSetRelation, SetSystem, full_mask,
                            intransitive_pair, mask_of, meet_of, phi, phi_prime, points_of,
                            powerset_system, psi, relation_from_sections, theta, two_minimal)
from fintopo.topology import compare, discrete_topology, is_base_of, is_finer


def S(n, *sets):
    return SetSystem(n, [mask_of(s, n) for s in sets])


class TestPsi:
    def test_two_overlapping_sets(self):
        assert psi(S(3, [0, 1], [1, 2])) == S(3, [1], [0, 1], [1, 2])

    def test_empty_system(self):
        # the empty intersection is never formed
        assert psi(SetSystem(3)) == SetSystem(3)

    def test_singleton_family(self):
        assert psi(S(2, [0])) == S(2, [0])

    def test_disjoint_members_produce_empty_set(self):
        assert psi(S(2, [0], [1])) == S(2, [], [0], [1])

    def test_matches_subfamily_oracle(self):
        for n in range(3):
            for s in all_systems(n):
                assert psi(s) == psi_oracle(s)

    def test_matches_subfamily_oracle_n3(self):
        for s in all_systems(3):
            assert psi(s) == psi_oracle(s)


class TestTheta:
    def test_two_overlapping_sets(self):
        assert theta(S(3, [0, 1], [1, 2])) == S(3, [0, 1], [1, 2], [0, 1, 2])

    def test_empty_system(self):
        assert theta(SetSystem(3)) == SetSystem(3)

    def test_matches_subfamily_oracle_n3(self):
        # pairwise fixed point against the subfamily-enumeration route
        for s in all_systems(3):
            assert theta(s) == theta_oracle(s)


@st.composite
def systems(draw, min_n=4, max_n=9):
    """A random system of up to twelve masks on min_n to max_n points."""
    n = draw(st.integers(min_n, max_n))
    return SetSystem(n, draw(st.lists(st.integers(0, full_mask(n)), max_size=12)))


class TestUnionClosureForm:
    """theta and psi, read from one union closure, against the pairwise
    fixed points they replaced (opens_reference.py)."""

    def test_every_system_n3(self):
        for n in range(4):
            for s in all_systems(n):
                assert theta(s) == ref.theta(s)
                assert psi(s) == ref.psi(s)

    @given(systems())
    @settings(max_examples=150, deadline=None)
    def test_random_systems_up_to_n9(self, s):
        assert theta(s) == ref.theta(s)
        assert psi(s) == ref.psi(s)

    def test_twelve_points_in_bounded_time(self):
        # 2^11 - 1 unions; measured about 0.2 ms (CPython 3.11, shared
        # 2-CPU host)
        s = SetSystem(12, [1 << i for i in range(10)] + [0b110000000000])
        t0 = time.perf_counter()
        out = theta(s)
        assert time.perf_counter() - t0 < 0.05
        assert len(out) == (1 << 11) - 1 and 0 not in out.members


class TestPhi:
    def test_empty_member_gives_powerset(self):
        assert phi(S(3, [])) == powerset_system(3)

    def test_whole_carrier(self):
        assert phi(S(2, [0, 1])) == S(2, [0, 1])

    def test_empty_system(self):
        assert phi(SetSystem(2)) == SetSystem(2)

    def test_matches_scan_oracle_n3(self):
        for s in all_systems(3):
            assert phi(s) == phi_oracle(s)


class TestOperatorLaws:
    def test_projectivity_n3(self):
        for s in all_systems(3):
            assert psi(psi(s)) == psi(s)
            assert theta(theta(s)) == theta(s)
            assert phi(phi(s)) == phi(s)

    def test_commutation_inclusions_n3(self):
        for s in all_systems(3):
            assert set(psi(theta(s)).sets) <= set(theta(psi(s)).sets)
            assert set(psi(phi(s)).sets) <= set(phi(psi(s)).sets)

    @given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
    @settings(max_examples=200)
    def test_monotonicity_n4(self, bits_a, bits_b):
        bits_sub = bits_a & bits_b
        small = SetSystem(4, [m for m in range(16) if bits_sub >> m & 1])
        big = SetSystem(4, [m for m in range(16) if bits_b >> m & 1])
        for op in (psi, theta, phi):
            assert set(op(small).sets) <= set(op(big).sets)


class TestSetSystem:
    def test_canonical_order_and_dedup(self):
        assert SetSystem(2, [3, 1, 1, 0]).sets == (0, 1, 3)

    def test_carrier_cap(self):
        with pytest.raises(CapExceeded):
            SetSystem(21, [])

    def test_mask_outside_carrier(self):
        with pytest.raises(UniverseMismatch):
            SetSystem(2, [4])

    def test_subfamily_requires_same_carrier(self):
        with pytest.raises(UniverseMismatch):
            SetSystem(2, [0]) <= SetSystem(3, [0])

    def test_complements_involution(self):
        for s in all_systems(2):
            assert s.complements().complements() == s


def all_relations(n):
    pairs_all = [(x, m) for x in range(n) for m in range(1 << n)]
    for bits in range(1 << len(pairs_all)):
        yield PointSetRelation(n, [p for i, p in enumerate(pairs_all) if bits >> i & 1])


class TestPhiPrime:
    def test_sections_are_phi_of_sections(self):
        rel = PointSetRelation(2, [(0, 0b01), (1, 0b10)])
        pr = phi_prime(rel)
        for x in range(2):
            assert pr.section(x) == phi(rel.section(x))

    def test_union_section_law_n2(self):
        # (phi' R)[A] = phi(R[A]) for every subset A
        for rel in all_relations(2):
            pr = phi_prime(rel)
            for a in range(4):
                assert pr.union_section(a) == phi(rel.union_section(a))

    def test_meet_section_law_n2(self):
        # (phi' R)<A> contains phi(R<A>) for every subset A
        for rel in all_relations(2):
            pr = phi_prime(rel)
            for a in range(1, 4):
                lhs = set(pr.meet_section(a).sets)
                rhs = set(phi(rel.meet_section(a)).sets)
                assert rhs <= lhs

    def test_meet_of_empty_set_is_powerset(self):
        rel = PointSetRelation(2, [(0, 0b01)])
        assert rel.meet_section(0) == powerset_system(2)

    def test_sections_over_a_set_outside_the_carrier_are_refused(self):
        rel = PointSetRelation(2, [(0, 0b01), (1, 0b11)])
        for bad in (-1, 0b100, 0b111):
            with pytest.raises(UniverseMismatch):
                rel.union_section(bad)
            with pytest.raises(UniverseMismatch):
                rel.meet_section(bad)

    def test_idempotent(self):
        for rel in all_relations(2):
            assert phi_prime(phi_prime(rel)) == phi_prime(rel)


class TestFiniteMap:
    def test_image_and_preimage(self):
        f = FiniteMap(3, 2, [0, 0, 1])
        assert f.image_mask(0b011) == 0b01
        assert f.preimage_mask(0b01) == 0b011
        assert f.preimage_mask(0b10) == 0b100

    def test_preimage_of_image_contains_set(self):
        f = FiniteMap(3, 3, [1, 1, 2])
        for a in range(8):
            assert f.preimage_mask(f.image_mask(a)) & a == a

    def test_compose_and_inverse(self):
        f = FiniteMap(3, 3, [1, 2, 0])
        assert f.compose(f.inverse()).images == (0, 1, 2)

    def test_non_bijective_inverse_fails(self):
        with pytest.raises(UniverseMismatch):
            FiniteMap(2, 2, [0, 0]).inverse()

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.integers(0, 15), st.integers(0, 15))
    def test_preimage_respects_boolean_ops(self, images, a, b):
        f = FiniteMap(4, 4, images)
        assert f.preimage_mask(a | b) == f.preimage_mask(a) | f.preimage_mask(b)
        assert f.preimage_mask(a & b) == f.preimage_mask(a) & f.preimage_mask(b)
        assert f.preimage_mask(15 ^ a) == 15 ^ f.preimage_mask(a)


def test_relation_from_sections_round_trip():
    rel = PointSetRelation(3, [(0, 1), (0, 3), (2, 4)])
    rebuilt = relation_from_sections(3, [rel.section(x) for x in range(3)])
    assert rebuilt == rel


class TestRelationSections:
    def test_kept_as_sections(self):
        assert PointSetRelation.__slots__ == ('n', 'sections')
        rel = PointSetRelation(3, [(2, 4), (0, 3), (0, 1), (0, 1)])
        assert rel.sections == (S(3, [0], [0, 1]), S(3), S(3, [2]))
        assert all(rel.section(x) is rel.sections[x] for x in range(3))
        assert rel.section(3) == rel.section(-1) == S(3)
        assert rel.pairs == ((0, 1), (0, 3), (2, 4)) and len(rel) == 3

    def test_pairs_and_sections_agree_n2(self):
        for rel in all_relations(2):
            assert rel.pairs == tuple(sorted(rel.pairs))
            assert PointSetRelation(2, reversed(rel.pairs)) == rel
            assert relation_from_sections(2, [list(s) for s in rel.sections]) == rel
            assert hash(relation_from_sections(2, rel.sections)) == hash(rel)

    @pytest.mark.parametrize('sections, pairs', [
        ([[1], [], [0, 1]], [(0, 1), (2, 0), (2, 1)]),
        ([[1, 2]], [(0, 1), (0, 2)]),
        ([[1], [], [], []], [(0, 1)]),
        ([[8], [], [], [1]], [(0, 8), (3, 1)]),
        ([[1], [], [], [1]], [(0, 1), (3, 1)]),
        ([[-1], [], [], [1]], [(0, -1), (3, 1)]),
        ([[1], [16, 9]], [(0, 1), (1, 16), (1, 9)]),
    ])
    def test_relation_from_sections_raises_as_from_pairs(self, sections, pairs):
        def outcome(build):
            try:
                return build()
            except UniverseMismatch as e:
                return str(e)
        assert outcome(lambda: relation_from_sections(3, sections)) == \
            outcome(lambda: PointSetRelation(3, pairs))


class TestFamilyQuestions:
    def test_intransitive_pair_is_the_first_in_i_then_j_order(self):
        # 0 -> 2 -> 0 and 2 -> 0 -> 1 both fail; (0, 2) comes first
        assert intransitive_pair([0b110, 0b000, 0b001]) == (0, 2)
        for bits in range(1 << 9):
            rows = [bits >> 3 * i & 7 for i in range(3)]
            faults = [(i, j) for i in range(3) for j in range(3)
                      if rows[i] >> j & 1 and rows[j] & ~rows[i]]
            assert intransitive_pair(rows) == min(faults, default=None)

    def test_two_minimal_members_have_no_member_below_their_meet(self):
        for system in all_systems(3):
            members = system.sets
            if not members or meet_of(members) == members[0]:
                continue
            a, b = two_minimal(members)
            assert a != b and a & ~b
            assert not any(m & ~(a & b) == 0 for m in members)


def test_points_of_round_trip():
    for m in range(32):
        assert mask_of(points_of(m), 5) == m


def test_every_carrier_check_names_the_sizes_in_argument_order():
    # compare said 'carriers differ: 3 vs 2' here, compare_by_neighborhoods
    # '2 vs 3', and is_base_of named no sizes
    t2, t3 = discrete_topology(2), discrete_topology(3)
    f2, f3 = generate_filter(S(2, [0, 1])), generate_filter(S(3, [0, 1, 2]))
    for check in (lambda: t2.opens <= t3.opens, lambda: f2.is_finer(f3),
                  lambda: is_base_of(t2.opens, t3), lambda: is_finer(t2, t3),
                  lambda: compare(t2, t3), lambda: compare_by_neighborhoods(t2, t3)):
        with pytest.raises(UniverseMismatch) as exc:
            check()
        assert str(exc.value) == 'carriers differ: 2 vs 3'
