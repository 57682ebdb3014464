"""Closure/interior/derived/boundary and the axiomatic operators.

The operators read from byte tables are compared with the per-point
loops over U_x, and the axiom checks, which accept a valid table from
its point values, with the one-pass scans (opens_reference.py)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opens_reference as ref
from conftest import preorders
from fintopo.closure import (SubsetOperator, analyze_subset,
                             check_closure_axioms, check_interior_axioms,
                             closure, closure_operator_of, derived_set,
                             enumerate_closure_operators, interior,
                             interior_operator_of,
                             topology_from_closure_operator,
                             topology_from_interior_operator)
from fintopo.errors import (CapExceeded, InteriorAxiomViolation, KuratowskiViolation,
                            UniverseMismatch)
from fintopo.setops import SetSystem, full_mask
from fintopo.topology import (Topology, closure_table, discrete_topology,
                              enumerate_topologies, indiscrete_topology, sierpinski)


def assert_point_operators_match(t, a):
    """The operators on A equal the per-point loops over U_x."""
    full = full_mask(t.n)
    cl = ref.kernel_closure(t, a)
    co = ref.kernel_closure(t, full ^ a)
    inte = ref.kernel_interior(t, a)
    derived = ref.kernel_derived_set(t, a)
    assert closure(t, a) == cl
    assert interior(t, a) == inte
    assert derived_set(t, a) == derived
    assert analyze_subset(t, a) == {'interior': inte, 'closure': cl, 'derived': derived,
                                    'boundary': cl & co, 'dense': cl == full}


def assert_same_axiom_verdicts(n, table):
    """Both checks, on the table and on its dual, give the verdict and
    the witness of the one-pass scans."""
    op = SubsetOperator(n, table)
    for f in (op, op.dual()):
        assert check_closure_axioms(f) == ref.check_closure_axioms_in_one_pass(f)
        assert check_interior_axioms(f) == ref.check_interior_axioms_in_one_pass(f)


class TestPointSetOperations:
    def test_sierpinski_closed_point(self):
        t = sierpinski()  # {1} open, {0} closed
        assert closure(t, 0b01) == 0b01
        assert closure(t, 0b10) == 0b11
        assert interior(t, 0b10) == 0b10
        assert interior(t, 0b01) == 0b00
        assert analyze_subset(t, 0b10)['boundary'] == 0b01
        assert derived_set(t, 0b10) == 0b01

    def test_discrete_everything_clopen(self):
        t = discrete_topology(3)
        for a in range(8):
            assert closure(t, a) == a == interior(t, a)
            assert analyze_subset(t, a)['boundary'] == 0
            assert derived_set(t, a) == 0

    def test_indiscrete(self):
        t = indiscrete_topology(2)
        assert closure(t, 0b01) == 0b11
        assert interior(t, 0b01) == 0
        assert analyze_subset(t, 0b01)['dense']

    def test_analyze_subset_consistency(self):
        t = sierpinski()
        rep = analyze_subset(t, 0b10)
        assert rep == {'interior': 0b10, 'closure': 0b11, 'derived': 0b01,
                       'boundary': 0b01, 'dense': True}


class TestStructuralLaws:
    def test_pointwise_identities_n3(self):
        full = full_mask(3)
        for t in enumerate_topologies(3):
            for a in range(8):
                ca, ia = closure(t, a), interior(t, a)
                boundary = analyze_subset(t, a)['boundary']
                # closure of complement is complement of interior
                assert closure(t, full ^ a) == full ^ ia
                assert interior(t, full ^ a) == full ^ ca
                # closure = set plus derived set; = interior plus boundary
                assert ca == a | derived_set(t, a)
                assert ca == ia | boundary
                assert boundary == ca & closure(t, full ^ a)
                # idempotence and extensivity
                assert closure(t, ca) == ca
                assert interior(t, ia) == ia
                assert a & ~ca == 0 and ia & ~a == 0
                # open/closed characterizations
                assert t.is_open(a) == (ia == a)
                assert t.is_closed(a) == (ca == a)

    def test_distribution_laws_n3(self):
        for t in enumerate_topologies(3):
            for a in range(8):
                for b in range(8):
                    assert closure(t, a | b) == closure(t, a) | closure(t, b)
                    assert interior(t, a & b) == interior(t, a) & interior(t, b)
                    assert closure(t, a & b) & ~(closure(t, a) & closure(t, b)) == 0
                    assert (interior(t, a) | interior(t, b)) & ~interior(t, a | b) == 0

    def test_strictness_witnesses_exist_within_n3(self):
        # closure does not distribute over intersections in general, nor
        # interior over unions; witnesses are found at this scale
        cap_strict = False
        cup_strict = False
        for t in enumerate_topologies(3):
            for a in range(8):
                for b in range(8):
                    if closure(t, a & b) != closure(t, a) & closure(t, b):
                        cap_strict = True
                    if interior(t, a | b) != interior(t, a) | interior(t, b):
                        cup_strict = True
        assert cap_strict and cup_strict


class TestClosureOperators:
    def test_round_trip_n3(self):
        for t in enumerate_topologies(3):
            op = closure_operator_of(t)
            assert check_closure_axioms(op) is None
            assert topology_from_closure_operator(op) == t

    def test_exactly_29_valid_tables_n3(self):
        ops = enumerate_closure_operators(3)
        assert len(ops) == 29
        assert len(ref.kuratowski_tables(3)) == 29
        recon = {topology_from_closure_operator(op) for op in ops}
        assert recon == set(enumerate_topologies(3))
        # converse: each valid table is the closure table of its topology
        for op in ops:
            assert closure_operator_of(topology_from_closure_operator(op)) == op

    def test_355_valid_tables_n4(self):
        assert len(enumerate_closure_operators(4)) == 355
        assert len(ref.kuratowski_tables(4)) == 355

    def test_axiom_search_finds_the_tables_of_the_topologies(self):
        for n in range(5):
            tables = ref.kuratowski_tables(n)
            assert len(set(tables)) == len(tables)
            assert set(tables) == {op.table for op in enumerate_closure_operators(n)}

    def test_tables_of_the_topologies_n5(self):
        tables = {op.table for op in enumerate_closure_operators(5)}
        assert len(tables) == 6942
        assert tables == {closure_operator_of(t).table for t in enumerate_topologies(5)}

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_closure_operators(6)

    def test_violations(self):
        op = SubsetOperator(1, [0b1, 0b1])
        assert check_closure_axioms(op)[0] == 'empty-fixed'
        with pytest.raises(KuratowskiViolation):
            topology_from_closure_operator(op)
        op = SubsetOperator(1, [0b0, 0b0])
        assert check_closure_axioms(op)[0] == 'extensive'
        # additive extension of {0}->{0,1}, {1}->{1,2}, {2}->{2} is not
        # idempotent: applying it twice to {0} reaches {0,1,2}
        sing = {1: 0b011, 2: 0b110, 4: 0b100}
        table = [0] * 8
        for a in range(1, 8):
            table[a] = sing[a & -a] | table[a & (a - 1)]
        op = SubsetOperator(3, table)
        assert check_closure_axioms(op)[0] == 'idempotent'
        with pytest.raises(KuratowskiViolation):
            topology_from_closure_operator(op)

    def test_additive_violation_has_a_true_witness(self):
        # extensive and idempotent, but cl({0, 1}) = {0, 1, 2} while
        # cl({0}) | cl({1}) = {0, 1}
        table = list(range(8))
        table[0b011] = 0b111
        op = SubsetOperator(3, table)
        axiom, (a, b) = check_closure_axioms(op)
        assert axiom == 'additive'
        assert table[a | b] != table[a] | table[b]
        with pytest.raises(KuratowskiViolation):
            topology_from_closure_operator(op)


class TestInteriorOperators:
    def test_round_trip_n3(self):
        for t in enumerate_topologies(3):
            op = interior_operator_of(t)
            assert check_interior_axioms(op) is None
            assert topology_from_interior_operator(op) == t

    def test_duality(self):
        for t in enumerate_topologies(3):
            cl = closure_operator_of(t)
            inte = interior_operator_of(t)
            assert cl.dual() == inte
            assert inte.dual() == cl
            assert cl.dual().dual() == cl

    def test_violation(self):
        op = SubsetOperator(1, [0, 0])
        assert check_interior_axioms(op)[0] == 'whole-fixed'
        with pytest.raises(InteriorAxiomViolation):
            topology_from_interior_operator(op)

    def test_multiplicative_violation_has_a_true_witness(self):
        # contractive and idempotent, but int({2}) = {} while
        # int({0, 2}) & int({1, 2}) = {2}
        table = list(range(8))
        table[0b100] = 0
        op = SubsetOperator(3, table)
        axiom, (a, b) = check_interior_axioms(op)
        assert axiom == 'multiplicative'
        assert table[a & b] != table[a] & table[b]
        with pytest.raises(InteriorAxiomViolation):
            topology_from_interior_operator(op)

    def test_dual_of_valid_closure_is_valid_interior_n2(self):
        for t in enumerate_topologies(2):
            assert check_interior_axioms(closure_operator_of(t).dual()) is None


class TestByteTables:
    """The operators read from the byte tables of the point closures,
    and the axiom checks that accept from the point values first,
    against the loops they replaced."""

    def test_every_mask_of_every_space_n4(self):
        for n in range(5):
            full = full_mask(n)
            masks = list(range(1 << n)) + [-1, -2, ~full, 1 << n, 1 << 24, full | 1 << 24]
            for t in enumerate_topologies(n):
                for a in masks:
                    assert_point_operators_match(t, a)

    @given(preorders(max_n=20), st.lists(st.integers(-(1 << 25), 1 << 25), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_random_preorders(self, u, masks):
        # a space given by its kernel alone: the point operators read
        # its views, on carriers whose opens are too many to list
        t = Topology.from_kernel(len(u), u)
        full = full_mask(t.n)
        for a in masks + [0, -1, full, 1 << 24, full ^ 1 << t.n - 1]:
            assert_point_operators_match(t, a)
        assert t._opens is None

    def test_random_and_changed_tables_n5(self):
        rng = random.Random(13)
        tops = {n: enumerate_topologies(n) for n in range(6)}
        for _ in range(400):
            n = rng.randint(0, 5)
            size, full = 1 << n, full_mask(n)
            table = list(closure_operator_of(rng.choice(tops[n])).table)
            if rng.random() < 0.5:
                table[rng.randrange(size)] = rng.randrange(size)
            assert_same_axiom_verdicts(n, table)
            # the additive extension of random point values: it passes
            # the table test of the fast path, and may fail the others
            points = [rng.randrange(size) | (1 << x if rng.random() < 0.9 else 0)
                      for x in range(n)]
            assert_same_axiom_verdicts(n, closure_table(points))
            assert_same_axiom_verdicts(n, [0] + [rng.randrange(size) | rng.choice((0, full))
                                                 for _ in range(size - 1)])

    def test_values_off_the_carrier_are_named(self):
        with pytest.raises(UniverseMismatch, match='table value 5 outside'):
            SubsetOperator(2, [0, 1, 5, -1])
        with pytest.raises(UniverseMismatch, match='table value -1 outside'):
            SubsetOperator(2, [0, -1, 5, 3])
        with pytest.raises(UniverseMismatch, match='mask -3 not a subset'):
            SetSystem(2, [5, -3, 9])
        with pytest.raises(UniverseMismatch, match='mask 5 not a subset'):
            SetSystem(2, [9, 3, 5])
