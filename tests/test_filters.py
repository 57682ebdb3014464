"""Filters and filter bases: axioms, counting facts, suprema, images."""

import time

import pytest

from conftest import all_systems
from opens_reference import supremum_of_filter_bases
from fintopo.errors import (EmptyArgument, EmptyMeet, FilterBaseViolation,
                            NotSurjective)
from fintopo.filters import (Filter, enumerate_filters, extend_to_ultrafilter,
                             generate_filter, image_filter, inverse_image_filter,
                             is_filter, is_filter_base,
                             principal_filter, supremum_filter)
from fintopo.setops import FiniteMap, SetSystem, full_mask, mask_of, phi, psi


def S(n, *sets):
    return SetSystem(n, [mask_of(s, n) for s in sets])


class TestFilterAxioms:
    def test_principal_filters_are_filters(self):
        for core in range(1, 8):
            assert is_filter(principal_filter(3, core).members) is None

    def test_empty_member_rejected(self):
        assert is_filter(S(2, [], [0, 1]))[0] == 'no-empty-member'

    def test_missing_whole_rejected(self):
        assert is_filter(S(2, [0]))[0] == 'contains-whole'

    def test_not_upward_rejected(self):
        assert is_filter(S(3, [0], [0, 1, 2]))[0] == 'upward-closed'

    def test_not_meet_closed_rejected(self):
        sys = phi(S(3, [0, 1], [1, 2]))
        bad = SetSystem(3, [m for m in sys if m != 0b010])
        verdict = is_filter(bad)
        assert verdict is not None

    def test_matches_characterization_n3(self):
        # a system is a filter iff it is nonempty, lacks the empty set,
        # and is a fixed point of both psi and phi
        for s in all_systems(3):
            expect = (len(s) > 0 and 0 not in s
                      and psi(s) == s and phi(s) == s)
            assert (is_filter(s) is None) == expect


class TestFilterBase:
    def test_criterion_matches_psi_phi_inclusion_n3(self):
        # base condition iff psi(B) is a subfamily of phi(B)
        for s in all_systems(3):
            if len(s) == 0 or 0 in s:
                continue
            expect = set(psi(s).sets) <= set(phi(s).sets)
            assert (is_filter_base(s) is None) == expect

    def test_generate(self):
        f = generate_filter(S(3, [1], [0, 1]))
        assert f.core() == 0b010
        assert f.members == phi(S(3, [1]))

    def test_empty_member_rejected(self):
        with pytest.raises(FilterBaseViolation):
            generate_filter(S(2, []))

    def test_empty_system_rejected(self):
        with pytest.raises(FilterBaseViolation):
            generate_filter(SetSystem(2))

    def test_unrefined_meet_rejected(self):
        with pytest.raises(FilterBaseViolation):
            generate_filter(S(2, [0], [1]))


class TestCounting:
    def test_filter_count_2n_minus_1(self):
        for n in range(1, 5):
            assert len(enumerate_filters(n)) == (1 << n) - 1

    def test_all_filters_principal_n3(self):
        # every system satisfying the filter axioms equals the superset
        # closure of its core
        for s in all_systems(3):
            if is_filter(s) is None:
                f = Filter(3, s)
                assert f.members == principal_filter(3, f.core()).members

    def test_exactly_n_ultrafilters(self):
        for n in range(1, 5):
            ultras = [f for f in enumerate_filters(n) if f.is_ultrafilter()]
            assert len(ultras) == n
            assert sorted(f.core() for f in ultras) == [1 << x for x in range(n)]

    def test_ultrafilter_complement_criterion(self):
        full = full_mask(3)
        for f in enumerate_filters(3):
            expect = all(a in f.members or (full ^ a) in f.members for a in range(8))
            assert f.is_ultrafilter() == expect


class TestExtension:
    def test_extension_is_finer_maximal_ultrafilter(self):
        for f in enumerate_filters(4):
            u = extend_to_ultrafilter(f.members)
            assert u.is_ultrafilter()
            assert u.is_finer(f)
            # maximality: no strictly finer filter exists
            for g in enumerate_filters(4):
                if g.is_finer(u) and g != u:
                    pytest.fail("found a filter strictly finer than an ultrafilter")

    def test_deterministic_smallest_point(self):
        u = extend_to_ultrafilter(S(3, [1, 2]))
        assert u.core() == 0b010


class TestSupremum:
    def test_two_compatible_bases(self):
        b1 = S(3, [0, 1])
        b2 = S(3, [1, 2])
        sup = generate_filter(supremum_of_filter_bases([b1, b2]))
        assert sup.core() == 0b010

    def test_supremum_is_coarsest_common_refinement(self):
        fs = [principal_filter(3, 0b011), principal_filter(3, 0b110)]
        sup = supremum_filter(fs)
        assert all(sup.is_finer(f) for f in fs)
        for g in enumerate_filters(3):
            if all(g.is_finer(f) for f in fs):
                assert g.is_finer(sup)

    def test_empty_meet(self):
        with pytest.raises(EmptyMeet):
            supremum_of_filter_bases([S(2, [0]), S(2, [1])])

    def test_no_bases(self):
        with pytest.raises(EmptyArgument):
            supremum_of_filter_bases([])


class TestImages:
    def test_image_filter(self):
        f = FiniteMap(3, 2, [0, 0, 1])
        filt = principal_filter(3, 0b010)
        assert image_filter(f, filt).core() == 0b01

    def test_inverse_image_needs_surjectivity(self):
        f = FiniteMap(2, 2, [0, 0])
        with pytest.raises(NotSurjective):
            inverse_image_filter(f, principal_filter(2, 0b01))

    def test_inverse_image_core(self):
        f = FiniteMap(3, 2, [0, 0, 1])
        filt = principal_filter(2, 0b01)
        assert inverse_image_filter(f, filt).core() == 0b011

    def test_image_of_ultrafilter_is_ultrafilter(self):
        f = FiniteMap(3, 3, [2, 2, 0])
        for x in range(3):
            assert image_filter(f, principal_filter(3, 1 << x)).is_ultrafilter()


class TestCores:
    def test_kept_as_core(self):
        assert Filter.__slots__ == ('n', '_core')

    def test_membership_is_membership_in_members_n3(self):
        for n in range(4):
            for f in enumerate_filters(n):
                members = set(f.members.sets)
                assert all((a in f) == (a in members) for a in range(-2, 2 << n))

    def test_core_operations_at_n20_take_no_supersets(self):
        start = time.perf_counter()
        f, g, h = (principal_filter(20, core) for core in (0b111, 0b110, 0b1110))
        assert full_mask(20) in f and 0b110 not in f and 1 << 20 not in f
        assert g.is_finer(f) and not f.is_finer(g)
        assert supremum_filter([f, g, h]).core() == 0b110
        shift = FiniteMap(20, 20, [(x + 1) % 20 for x in range(20)])
        assert image_filter(shift, f).core() == 0b1110
        assert time.perf_counter() - start < 0.1
