"""End-to-end acceptance checks.

Each test verifies one headline property of the engine and prints a
single summary line of the form

    [ACCEPTANCE k] PASS -- description

(or FAIL) regardless of pytest's capture settings.
"""

import random
import time
from fractions import Fraction

import opens_reference as ref
from conftest import chain, fence
from fintopo.closure import (check_closure_axioms, closure, closure_operator_of,
                             enumerate_closure_operators,
                             topology_from_closure_operator)
from fintopo.continuity import continuity_characterizations, SpaceMap
from fintopo.convergence import filter_adherence, filter_limits
from fintopo.filters import enumerate_filters, extend_to_ultrafilter, principal_filter
from fintopo.generated import (product_topology, quotient_topology, subspace_topology,
                               direct_image_topology, inverse_image_topology)
from fintopo.metric import (PseudoMetric, bounded_equivalents, metric_topology,
                            quotient_metric, zero_distance_rows, zero_distance_set)
from fintopo.numeric import (Dyadic, DyadicPoly, ONE, ZERO, bisection_invert,
                             cauchy_schwarz_check, geometric_partial_sum, mth_root)
from fintopo.order import interval_topology
from fintopo.setops import FiniteMap, SetSystem, phi, psi, theta
from fintopo.topology import (discrete_topology, enumerate_topologies, is_finer,
                              is_topology, kernel_of, neighborhood_relation,
                              sierpinski)
from fintopo.neighborhoods import check_neighborhood_axioms, topology_from_neighborhoods
from fintopo.setops import PointSetRelation


def report(capsys, k, desc, ok):
    with capsys.disabled():
        print('[ACCEPTANCE %d] %s -- %s' % (k, 'PASS' if ok else 'FAIL', desc))
    assert ok, '[ACCEPTANCE %d] %s' % (k, desc)


def test_acceptance_01_topology_counts(capsys):
    ok = True
    t0 = time.time()
    small = [enumerate_topologies(n, count_only=True) for n in range(5)]
    ok &= small == [1, 1, 4, 29, 355]
    ok &= all([t.opens.sets for t in enumerate_topologies(n)]
              == sorted(ref.topology_families(n)) for n in range(5))
    small_elapsed = time.time() - t0
    ok &= small_elapsed < 10
    t0 = time.time()
    tops5 = enumerate_topologies(5)
    ok &= len({t.opens for t in tops5}) == len(tops5) == 6942
    ok &= all(is_topology(t.opens) is None
              and tuple(kernel_of(t.opens.sets, 5)) == t.minimal_opens for t in tops5)
    big_elapsed = time.time() - t0
    ok &= big_elapsed < 300
    report(capsys, 1,
           'topology counts 1,1,4,29,355 (<10s) and 6942 on n=5 with every '
           'family cross-checked (<5min)', ok)


def test_acceptance_02_operator_laws(capsys):
    ok = True
    systems = []
    for bits in range(1 << 8):
        systems.append(SetSystem(3, [m for m in range(8) if bits >> m & 1]))
    for s in systems:
        for op in (psi, theta, phi):
            if op(op(s)) != op(s):
                ok = False
        if not set(psi(theta(s)).sets) <= set(theta(psi(s)).sets):
            ok = False
        if not set(psi(phi(s)).sets) <= set(phi(psi(s)).sets):
            ok = False
    rng = random.Random(2024)
    for _ in range(500):
        bits_b = rng.randrange(1 << 8)
        bits_a = bits_b & rng.randrange(1 << 8)
        small = SetSystem(3, [m for m in range(8) if bits_a >> m & 1])
        big = SetSystem(3, [m for m in range(8) if bits_b >> m & 1])
        for op in (psi, theta, phi):
            if not set(op(small).sets) <= set(op(big).sets):
                ok = False
    report(capsys, 2,
           'operator projectivity, commutation inclusions, and monotonicity '
           'on all 256 systems (n=3)', ok)


def test_acceptance_03_kuratowski_bijection(capsys):
    ok = True
    for n, expect in ((3, 29), (4, 355)):
        tops = enumerate_topologies(n)
        for t in tops:
            op = closure_operator_of(t)
            if check_closure_axioms(op) is not None:
                ok = False
            if topology_from_closure_operator(op) != t:
                ok = False
        ops = enumerate_closure_operators(n)
        if len(ops) != expect:
            ok = False
        # the count by the axioms alone, with no topology built
        tables = ref.kuratowski_tables(n)
        if len(tables) != expect or set(tables) != {op.table for op in ops}:
            ok = False
        for op in ops:
            if closure_operator_of(topology_from_closure_operator(op)) != op:
                ok = False
    report(capsys, 3,
           'closure tables and topologies in bijection: 29 on n=3, 355 on '
           'n=4, round trips are identities', ok)


def test_acceptance_04_neighborhood_reconstruction(capsys):
    ok = True
    pairs_all = [(x, m) for x in range(2) for m in range(4)]
    valid = []
    for bits in range(1 << len(pairs_all)):
        rel = PointSetRelation(2, [p for i, p in enumerate(pairs_all)
                                   if bits >> i & 1])
        if check_neighborhood_axioms(rel) is None:
            valid.append(rel)
    expected = {neighborhood_relation(t) for t in enumerate_topologies(2)}
    ok &= len(valid) == 4 and set(valid) == expected
    for n in range(4):
        for t in enumerate_topologies(n):
            if topology_from_neighborhoods(neighborhood_relation(t)) != t:
                ok = False
    report(capsys, 4,
           'exactly 4 of 256 two-point relations satisfy the neighborhood '
           'axioms; round trips are identities for n<=3', ok)


def test_acceptance_05_filter_facts(capsys):
    ok = True
    for n in range(1, 5):
        filters = enumerate_filters(n)
        ok &= len(filters) == (1 << n) - 1
        for f in filters:
            if f.members != principal_filter(n, f.core()).members:
                ok = False
        ultras = [f for f in filters if f.is_ultrafilter()]
        ok &= len(ultras) == n
        for f in filters:
            u = extend_to_ultrafilter(f.members)
            if not (u.is_ultrafilter() and u.is_finer(f)):
                ok = False
            for g in filters:
                if g.is_finer(u) and g != u:
                    ok = False
    report(capsys, 5,
           'filters number 2^n-1 (all principal), ultrafilters number n, '
           'extension yields a maximal finer ultrafilter (n<=4)', ok)


def test_acceptance_06_continuity_equivalence(capsys):
    ok = True
    t0 = time.time()
    tops = enumerate_topologies(3)
    maps = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                maps.append(FiniteMap(3, 3, [a, b, c]))
    instances = 0
    for t1 in tops:
        for t2 in tops:
            for f in maps:
                chars = continuity_characterizations(SpaceMap(t1, t2, f))
                instances += 1
                if len(set(chars.values())) != 1:
                    ok = False
    elapsed = time.time() - t0
    ok &= instances == 22707
    ok &= elapsed < 60
    report(capsys, 6,
           'six continuity characterizations agree on all 22707 instances '
           '(29x29 topology pairs, 27 maps, n=3) under 60s', ok)


def test_acceptance_07_convergence_closure(capsys):
    ok = True
    for n in range(1, 4):
        tops = enumerate_topologies(n)
        filters = enumerate_filters(n)
        for t in tops:
            for a in range(1, 1 << n):
                cl = closure(t, a)
                adh = filter_adherence(t, principal_filter(n, a))
                via = 0
                for g in filters:
                    if a in g.members:
                        via |= filter_limits(t, g)
                if not (cl == adh == via):
                    ok = False
        for t1 in tops:
            for t2 in tops:
                transfer = all(
                    filter_limits(t1, f) & ~filter_limits(t2, f) == 0
                    for f in filters)
                if transfer != is_finer(t1, t2):
                    ok = False
    report(capsys, 7,
           'closure = principal-filter adherence = limits of containing '
           'filters; fineness <=> limit transfer (n<=3)', ok)


def test_acceptance_08_generated_topologies(capsys):
    ok = True
    s = sierpinski()
    prod, projs = product_topology([s, s])
    ok &= len(prod.opens) == 6
    # box-closure law on all products of 2- and 3-point spaces
    specimens = [(t1, t2) for t1 in enumerate_topologies(2)
                 for t2 in enumerate_topologies(3)]
    specimens += [(t1, t2) for t1 in enumerate_topologies(3)
                  for t2 in enumerate_topologies(2)][:50]
    for t1, t2 in specimens[:120]:
        pt, _ = product_topology([t1, t2])
        for a in range(1 << t1.n):
            for b in range(1 << t2.n):
                box = 0
                cbox = 0
                ca, cb = closure(t1, a), closure(t2, b)
                for i in range(t1.n):
                    for j in range(t2.n):
                        idx = 1 << i * t2.n + j
                        if a >> i & 1 and b >> j & 1:
                            box |= idx
                        if ca >> i & 1 and cb >> j & 1:
                            cbox |= idx
                if closure(pt, box) != cbox:
                    ok = False
        # subspace-product commutation
        for a in range(1, 1 << t1.n):
            for b in range(1, 1 << t2.n):
                box = 0
                for i in range(t1.n):
                    for j in range(t2.n):
                        if a >> i & 1 and b >> j & 1:
                            box |= 1 << i * t2.n + j
                sub_box, _ = subspace_topology(pt, box)
                pa, _ = subspace_topology(t1, a)
                pb, _ = subspace_topology(t2, b)
                expect, _ = product_topology([pa, pb])
                if sub_box != expect:
                    ok = False
    # universal properties
    f = FiniteMap(3, 2, [0, 1, 1])
    inv = inverse_image_topology(3, [(f, s)])
    ok &= ref.check_universal_property(3, [(f, s)], inv, 'inverse')[0]
    g = FiniteMap(2, 3, [0, 2])
    dir_t = direct_image_topology(3, [(g, s)])
    ok &= ref.check_universal_property(3, [(g, s)], dir_t, 'direct')[0]
    # metric quotient example: d(0,1) = 0, d(.,2) = 1
    m = PseudoMetric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    classes, qm, q = quotient_metric(m)
    qt_metric = metric_topology(qm)
    qt_top, _, _ = quotient_topology(metric_topology(m), zero_distance_rows(m))
    ok &= qt_metric == qt_top
    report(capsys, 8,
           'Sierpinski squared has 6 opens; box-closure and '
           'subspace-product laws hold; universal properties verified; '
           'metric quotient matches quotient topology', ok)


def test_acceptance_09_interval_topology(capsys):
    ok = True
    for n in range(2, 7):
        if interval_topology(chain(n)) != discrete_topology(n):
            ok = False
    specimens = ([chain(k) for k in range(2, 7)]
                 + [chain(k, 'reflexive') for k in range(2, 7)]
                 + [fence(k) for k in range(2, 7)])
    exercised = 0
    for p in specimens:
        t_full = interval_topology(p)
        for y in range(1, 1 << p.n):
            if not ref.is_order_dense(p, y):
                continue
            exercised += 1
            try:
                t_y = ref.interval_topology_from_dense(p, y)
            except Exception:
                continue
            if t_y != t_full:
                ok = False
    ok &= exercised > 0
    report(capsys, 9,
           'chains of length <= 6 give the discrete interval topology; '
           'order-dense-subset generation invariance on chains and fences', ok)


def _random_pseudometric(rng, n):
    d = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            v = Fraction(rng.randrange(0, 7), rng.randrange(1, 5))
            d[x][y] = d[y][x] = v
    for k in range(n):
        for x in range(n):
            for y in range(n):
                if d[x][k] + d[k][y] < d[x][y]:
                    d[x][y] = d[x][k] + d[k][y]
    return PseudoMetric(d)


def test_acceptance_10_pseudometric_suite(capsys):
    ok = True
    rng = random.Random(515)
    for i in range(100):
        n = rng.randrange(2, 6)
        m = _random_pseudometric(rng, n)
        t = metric_topology(m)
        e, f = bounded_equivalents(m)
        if metric_topology(e) != t or metric_topology(f) != t:
            ok = False
        for a in range(1, 1 << n):
            if zero_distance_set(m, a) != closure(t, a):
                ok = False
        classes, qm, q = quotient_metric(m)
        qt_metric = metric_topology(qm)
        qt_top, _, _ = quotient_topology(t, zero_distance_rows(m))
        if qt_metric != qt_top:
            ok = False
    report(capsys, 10,
           '100 random rational pseudo-metrics (n<=5): bounded equivalents '
           'generate the same topology, zero-distance sets are closures, '
           'metric quotient matches quotient topology', ok)


def test_acceptance_11_numerics(capsys):
    ok = True
    ok &= mth_root(Dyadic(2), 2, Dyadic(1, -4)) == Dyadic(11, -3)
    rng = random.Random(4096)
    for i in range(1000):
        # random strictly increasing polynomial: positive coefficients on
        # odd powers plus a constant
        deg = rng.randrange(1, 4)
        coeffs = [Dyadic(rng.randrange(-8, 8), rng.randrange(-3, 1))]
        for k in range(1, deg + 1):
            coeffs.append(Dyadic(rng.randrange(1, 8), rng.randrange(-3, 1)))
        p = DyadicPoly(coeffs)
        a = Dyadic(rng.randrange(-4, 4), -1)
        b = a + Dyadic(rng.randrange(1, 8))
        num = rng.randrange(0, 17)
        w = p(a) + Dyadic(num, -4) * (p(b) - p(a))
        tol = Dyadic(1, -rng.randrange(4, 12))
        trace = []
        r = bisection_invert(p, a, b, w, tol, trace)
        width = b - a
        for step, (x, y, px, py) in enumerate(trace):
            if y - x != Dyadic(width.m, width.e - (step + 1)):
                ok = False
            if not (min(px, py) <= w <= max(px, py)):
                ok = False
        if not (a <= r <= b):
            ok = False
    half = Dyadic(1, -1)
    for m in range(1, 31):
        if abs(geometric_partial_sum(half, m) - Dyadic(2)) != Dyadic(1, -m):
            ok = False
    for i in range(1000):
        k = rng.randrange(1, 9)
        xs = [Dyadic(rng.randrange(-50, 50), rng.randrange(-6, 3))
              for _ in range(k)]
        ys = [Dyadic(rng.randrange(-50, 50), rng.randrange(-6, 3))
              for _ in range(k)]
        if not cauchy_schwarz_check(xs, ys):
            ok = False
    report(capsys, 11,
           'mth_root(2,2,2^-4) = 11/8; bracket and width invariants on 1000 '
           'random bisections; |S_m - 2| = 2^-m for m<=30; Cauchy-Schwarz '
           'exact on 1000 random dyadic pairs', ok)
