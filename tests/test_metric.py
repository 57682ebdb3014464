"""Exact rational pseudo-metrics, sphere bases, and generated topologies."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import opens_reference as ref
from fintopo.closure import closure, interior
from fintopo.continuity import SpaceMap, is_continuous, map_open_closed
from fintopo.errors import EmptyArgument, InvalidMetric, UniverseMismatch
from fintopo.generated import subspace_topology
from fintopo.metric import (PseudoMetric, bounded_equivalents, default_radius_set,
                            distance_to_set, is_finer_by_spheres, is_isometry,
                            metric_topology, quotient_metric, restrict,
                            sphere_base, sup_pseudometric, validate_pseudometric,
                            zero_distance_rows, zero_distance_set)
from fintopo.setops import FiniteMap, theta
from fintopo.topology import (Topology, compare, discrete_topology, indiscrete_topology,
                              is_topology, kernel_of, sierpinski)


def M(*rows):
    return PseudoMetric([[Fraction(v) for v in row] for row in rows])


def random_pseudometric(rng, n):
    """A random pseudo-metric built as a shortest-path closure of random
    non-negative weights (which guarantees the triangle inequality)."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            v = Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
            d[x][y] = d[y][x] = v
    for k in range(n):
        for x in range(n):
            for y in range(n):
                if d[x][k] + d[k][y] < d[x][y]:
                    d[x][y] = d[x][k] + d[k][y]
    return PseudoMetric(d)


class TestValidation:
    def test_discrete_metric(self):
        m = M([0, 1], [1, 0])
        assert m.is_metric()

    def test_pseudo_but_not_metric(self):
        m = M([0, 0], [0, 0])
        assert m.kind == 'pseudo'

    def test_invalid_reasons(self):
        assert validate_pseudometric([[1]])[1][0] == 'zero-diagonal'
        assert validate_pseudometric([[0, -1], [-1, 0]])[1][0] == 'non-negative'
        assert validate_pseudometric([[0, 1], [2, 0]])[1][0] == 'symmetry'
        bad = [[Fraction(0), Fraction(1), Fraction(5)],
               [Fraction(1), Fraction(0), Fraction(1)],
               [Fraction(5), Fraction(1), Fraction(0)]]
        assert validate_pseudometric(bad)[1][0] == 'triangle'

    @given(st.data())
    @settings(max_examples=400)
    def test_matches_the_fraction_loop(self, data):
        # a shortest-path closure of Fraction or int weights, often left
        # as it is, else with one to three entries changed, which may
        # break any axiom, or with a row cut short
        n = data.draw(st.integers(0, 6))
        ints = data.draw(st.booleans())
        value = (st.integers(-2, 12) if ints
                 else st.builds(Fraction, st.integers(-2, 12), st.integers(1, 6)))
        d = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                d[x][y] = d[y][x] = abs(data.draw(value))
        for k in range(n):
            for x in range(n):
                for y in range(n):
                    d[x][y] = min(d[x][y], d[x][k] + d[k][y])
        kind = data.draw(st.sampled_from(['valid', 'changed', 'symmetric', 'ragged']))
        if n and kind in ('changed', 'symmetric'):
            for _ in range(data.draw(st.integers(1, 3))):
                x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
                d[x][y] = data.draw(value)
                if kind == 'symmetric':
                    d[y][x] = d[x][y]
        elif n and kind == 'ragged':
            d[data.draw(st.integers(0, n - 1))].pop()
        assert validate_pseudometric(d) == ref.validate_pseudometric(d)

    def test_float_entries_are_read_exactly(self):
        # the double nearest 0.1 + 0.2 passes the exact sum of the doubles
        # 0.1 and 0.2, though a float addition rounds that sum to it
        a = 0.1 + 0.2
        d = [[0, 0.1, a], [0.1, 0, 0.2], [a, 0.2, 0]]
        assert validate_pseudometric(d) == ('invalid', ('triangle', (0, 1, 2)))
        assert validate_pseudometric([[0, 0.5], [0.5, 0]]) == ('metric', None)

    def test_constructor_rejects_invalid(self):
        with pytest.raises(InvalidMetric):
            PseudoMetric([[0, 1], [2, 0]])


class TestSpheres:
    def test_open_sphere(self):
        m = M([0, 1, 2], [1, 0, 1], [2, 1, 0])
        assert m.open_sphere(0, Fraction(1)) == 0b001
        assert m.open_sphere(0, Fraction(3, 2)) == 0b011
        assert m.open_sphere(0, Fraction(3)) == 0b111

    def test_closed_sphere_is_closed_set(self):
        rng = random.Random(7)
        for _ in range(20):
            m = random_pseudometric(rng, 4)
            t = metric_topology(m)
            for x in range(4):
                for r in default_radius_set(m):
                    assert t.is_closed(m.closed_sphere(x, r))

    def test_radius_independence(self):
        # adding more radii between the realized distances cannot change
        # the generated topology
        rng = random.Random(11)
        for _ in range(20):
            m = random_pseudometric(rng, 4)
            base_radii = default_radius_set(m)
            denser = sorted(set(base_radii)
                            | {(a + b) / 2 for a in base_radii for b in base_radii}
                            | {r / 3 for r in base_radii})
            spheres = [m.open_sphere(x, r) for x in range(4) for r in denser]
            assert metric_topology(m) == Topology.from_kernel(4, kernel_of(spheres, 4))

    def test_sphere_base_contains_empty(self):
        m = M([0, 1], [1, 0])
        assert 0 in sphere_base(m)


class TestGeneratedTopology:
    def test_metric_gives_discrete(self):
        # any genuine metric on a finite set generates the discrete
        # topology: the smallest positive distance isolates each point
        rng = random.Random(23)
        for _ in range(20):
            m = random_pseudometric(rng, 4)
            if m.is_metric():
                assert metric_topology(m) == discrete_topology(4)

    def test_zero_pseudometric_gives_indiscrete(self):
        m = M([0, 0], [0, 0])
        assert metric_topology(m) == indiscrete_topology(2)

    def test_zero_distance_set_is_closure(self):
        rng = random.Random(31)
        for _ in range(20):
            m = random_pseudometric(rng, 4)
            t = metric_topology(m)
            for a in range(1, 16):
                assert zero_distance_set(m, a) == closure(t, a)

    def test_distance_to_set_examples(self):
        m = M([0, 1, 2], [1, 0, 1], [2, 1, 0])
        assert distance_to_set(m, 0b001) == [0, 1, 2]
        assert distance_to_set(m, 0b101) == [0, 1, 0]

    def test_distance_to_empty_set(self):
        m = M([0, 1], [1, 0])
        with pytest.raises(EmptyArgument):
            distance_to_set(m, 0)

    def test_empty_carrier(self):
        m = PseudoMetric([])
        assert metric_topology(m).n == 0

    def test_radii_that_give_no_base(self):
        # the spheres of radius 3/2 are {0,1}, {0,1,2} and {1,2}; they
        # are no base, since their meet {1} is no union of them, and
        # the topology they generate has {1} open
        m = M([0, 1, 2], [1, 0, 1], [2, 1, 0])
        t = Topology.from_kernel(3, kernel_of([m.open_sphere(x, Fraction(3, 2))
                                               for x in range(3)], 3))
        assert t.opens.sets == (0b000, 0b010, 0b011, 0b110, 0b111)
        assert is_topology(t.opens) is None
        assert interior(t, 0b010) == 0b010

    def test_default_radii_give_the_unions_of_spheres(self):
        rng = random.Random(41)
        for n in range(6):
            for _ in range(10):
                m = random_pseudometric(rng, n)
                assert metric_topology(m).opens == theta(sphere_base(m))


class TestBoundedEquivalents:
    def test_same_topology(self):
        rng = random.Random(43)
        for _ in range(20):
            m = random_pseudometric(rng, 4)
            e, f = bounded_equivalents(m)
            t = metric_topology(m)
            assert metric_topology(e) == t
            assert metric_topology(f) == t

    def test_bounded_by_one(self):
        rng = random.Random(47)
        for _ in range(10):
            m = random_pseudometric(rng, 3)
            e, f = bounded_equivalents(m)
            assert all(v <= 1 for row in e.d for v in row)
            assert all(v < 1 for row in f.d for v in row)

    def test_kind_preserved(self):
        m = M([0, 2], [2, 0])
        e, f = bounded_equivalents(m)
        assert e.is_metric() and f.is_metric()


class TestQuotient:
    def test_collapses_zero_classes(self):
        m = M([0, 0, 1], [0, 0, 1], [1, 1, 0])
        classes, qm, q = quotient_metric(m)
        assert classes == [0b011, 0b100]
        assert qm.is_metric()
        assert qm.d[0][1] == 1
        assert q.images == (0, 0, 1)

    def test_metric_quotient_is_identity_like(self):
        m = M([0, 1], [1, 0])
        classes, qm, q = quotient_metric(m)
        assert len(classes) == 2
        assert qm.d == m.d

    def test_well_definedness_holds_for_shortest_path_metrics(self):
        # the triangle inequality forces representative independence
        rng = random.Random(59)
        for _ in range(30):
            m = random_pseudometric(rng, 4)
            classes, qm, q = quotient_metric(m)
            assert qm.is_metric()

    def test_quotient_topology_matches(self):
        # the metric topology of the quotient equals the quotient of the
        # metric topology
        from fintopo.generated import quotient_topology
        rng = random.Random(61)
        for _ in range(20):
            m = random_pseudometric(rng, 4)
            classes, qm, q = quotient_metric(m)
            qt_direct = metric_topology(qm)
            qt_top, q2, classes2 = quotient_topology(
                metric_topology(m), zero_distance_rows(m))
            assert qt_direct == qt_top


class TestIsometry:
    def test_relabelling_is_isometry(self):
        m = M([0, 1, 2], [1, 0, 1], [2, 1, 0])
        rev = FiniteMap(3, 3, [2, 1, 0])
        assert is_isometry(m, m, rev)

    def test_non_isometry(self):
        m = M([0, 1, 2], [1, 0, 1], [2, 1, 0])
        f = FiniteMap(3, 3, [0, 0, 1])
        assert not is_isometry(m, m, f)

    def test_isometries_are_continuous_and_open(self):
        rng = random.Random(67)
        import itertools
        for _ in range(10):
            m = random_pseudometric(rng, 3)
            t = metric_topology(m)
            for perm in itertools.permutations(range(3)):
                f = FiniteMap(3, 3, perm)
                if is_isometry(m, m, f):
                    sm = SpaceMap(t, t, f)
                    assert is_continuous(sm)
                    assert map_open_closed(sm) == (True, True)

    def test_carrier_mismatch(self):
        with pytest.raises(UniverseMismatch):
            is_isometry(M([0]), M([0, 1], [1, 0]), FiniteMap(2, 2, [0, 1]))


class TestSupMetric:
    def test_example(self):
        m = M([0, 1], [1, 0])
        fns = [(0, 0), (0, 1), (1, 1)]
        sup = sup_pseudometric(m, fns)
        assert sup.d[0][2] == 1
        assert sup.d[0][1] == 1
        assert sup.d[1][1] == 0

    def test_constant_functions_embed_isometrically(self):
        m = M([0, 1, 2], [1, 0, 1], [2, 1, 0])
        fns = [(x, x) for x in range(3)]
        sup = sup_pseudometric(m, fns)
        assert sup.d == m.d

    def test_empty_rejected(self):
        with pytest.raises(EmptyArgument):
            sup_pseudometric(M([0]), [])


class TestRestriction:
    def test_subspace_commutation(self):
        # tau(d restricted to A) equals the subspace topology of tau(d)
        rng = random.Random(71)
        for _ in range(20):
            m = random_pseudometric(rng, 4)
            t = metric_topology(m)
            for a in range(1, 16):
                rm, pts = restrict(m, a)
                sub, pm = subspace_topology(t, a)
                assert list(pts) == list(pm)
                assert metric_topology(rm) == sub

    def test_negative_mask_rejected_at_once(self):
        m = M([0, 1], [1, 0])
        for call in (lambda: subspace_topology(sierpinski(), -1),
                     lambda: restrict(m, -1),
                     lambda: distance_to_set(m, -1)):
            start = time.perf_counter()
            with pytest.raises(UniverseMismatch):
                call()
            assert time.perf_counter() - start < 1.0


class TestFineness:
    def test_sphere_criterion_matches_topology_compare(self):
        rng = random.Random(73)
        for _ in range(30):
            m1 = random_pseudometric(rng, 3)
            m2 = random_pseudometric(rng, 3)
            t1, t2 = metric_topology(m1), metric_topology(m2)
            expect = compare(t1, t2) in ('equal', 'strictly-finer')
            assert is_finer_by_spheres(m1, m2) == expect

    def test_bounded_equivalents_mutually_finer(self):
        rng = random.Random(79)
        for _ in range(10):
            m = random_pseudometric(rng, 3)
            e, f = bounded_equivalents(m)
            assert is_finer_by_spheres(e, f) and is_finer_by_spheres(f, e)
