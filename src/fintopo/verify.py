"""Invariant suites runnable from the CLI (`topo verify --suite NAME`).

Each suite runs at the n of its range in SUITES and returns pass/fail
counts plus the first counterexample, serialized as a replayable input.
The kuratowski suite checks that int(A) = X minus cl(X minus A).  The
continuity, convergence and metric suites also check the alternative
characterizations of the library against their counterparts:
continuity through preimages of closures and interiors, homeomorphy
against are_homeomorphic, comparison by neighborhoods against compare,
and the lower topologies of product and pulled-back preorders and the
union-closed segment systems against products, inverse images and the
topology axioms; nets and sequences against filters, and each filter's
members against the filter axioms; and the sphere criterion, closed
spheres, the quotient metric, restriction and the supremum metric
against the topologies they generate.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

from . import jsonio
from .closure import (closure, closure_operator_of, enumerate_closure_operators,
                      interior_operator_of, topology_from_closure_operator)
from .continuity import (SpaceMap, are_homeomorphic, continuity_characterizations,
                         continuous_via_preimage_closure, continuous_via_preimage_interior,
                         homeomorphy)
from .convergence import (EventuallyPeriodicSequence, filter_adherence, filter_from_net,
                          filter_limits, net_cluster_points, net_from_filter_base, net_limits,
                          sequence_cluster_points, sequence_filter, sequence_limits)
from .errors import CapExceeded
from .filters import Filter, enumerate_filters, extend_to_ultrafilter, is_filter, principal_filter
from .generated import (inverse_image_topology, product_topology, quotient_topology,
                        subspace_topology)
from .metric import (PseudoMetric, bounded_equivalents, default_radius_set, is_finer_by_spheres,
                     is_isometry, metric_topology, quotient_metric, restrict, sup_pseudometric,
                     zero_distance_rows, zero_distance_set)
from .neighborhoods import (check_neighborhood_axioms, compare_by_neighborhoods, set_map_of,
                            topology_from_neighborhoods, topology_from_set_map)
from .numeric import Dyadic, DyadicPoly, bisection_invert
from .order import (Preorder, one_sided_topology, product_preorder, pullback_preorder,
                    segment_system_is_topology)
from .setops import (MAX_N, FiniteMap, SetSystem, full_mask, identity_map, phi, points_of, psi,
                     theta)
from .topology import compare, enumerate_topologies, is_topology, neighborhood_relation


class _Tally:
    def __init__(self):
        self.total = 0
        self.failed = 0
        self.first = None

    def record(self, ok, counterexample):
        self.total += 1
        if not ok:
            self.failed += 1
            if self.first is None:
                self.first = counterexample() if callable(counterexample) else counterexample


def _systems(n):
    for bits in range(1 << (1 << n)):
        yield SetSystem(n, [m for m in range(1 << n) if bits >> m & 1])


def _suite_operators(n, tally):
    for s in _systems(n):
        ps, ts, fs = psi(s), theta(s), phi(s)
        ok = (psi(ps) == ps and theta(ts) == ts and phi(fs) == fs
              and set(psi(ts).sets) <= set(theta(ps).sets)
              and set(psi(fs).sets) <= set(phi(ps).sets))
        tally.record(ok, lambda: jsonio.system_to_json(s))


def _suite_kuratowski(n, tally):
    tops = enumerate_topologies(n)
    for t in tops:
        cl = closure_operator_of(t)
        ok = topology_from_closure_operator(cl) == t and cl.dual() == interior_operator_of(t)
        tally.record(ok, lambda: jsonio.topology_to_json(t))
    ops = enumerate_closure_operators(n)
    tally.record(len(ops) == len(tops),
                 {'operator-count': len(ops), 'topology-count': len(tops)})


def _suite_neighborhoods(n, tally):
    for t in enumerate_topologies(n):
        rel = neighborhood_relation(t)
        ok = (check_neighborhood_axioms(rel) is None
              and topology_from_neighborhoods(rel) == t
              and topology_from_set_map(set_map_of(t)) == t)
        tally.record(ok, lambda: jsonio.topology_to_json(t))


def _suite_filters(n, tally):
    filters = enumerate_filters(n)
    tally.record(len(filters) == (1 << n) - 1, {'filter-count': len(filters)})
    ultras = [f for f in filters if f.is_ultrafilter()]
    tally.record(len(ultras) == n, {'ultrafilter-count': len(ultras)})
    for f in filters:
        u = extend_to_ultrafilter(f.members)
        ok = u.is_ultrafilter() and u.is_finer(f)
        tally.record(ok, lambda: jsonio.system_to_json(f.members))


def _suite_continuity(n, tally):
    tops = enumerate_topologies(n)
    maps = [FiniteMap(n, n, im) for im in iproduct(range(n), repeat=n)]
    orders = [_specialization(t) for t in tops]
    for t, p in zip(tops, orders):
        # the segments with the empty set and X are union closed iff they
        # satisfy the topology axioms
        for side, segs in (('lower', p.lower_segments()), ('upper', p.upper_segments())):
            axioms = is_topology(SetSystem(n, segs.sets + (full_mask(n),))) is None
            tally.record(segment_system_is_topology(p, side) == axioms,
                         lambda: {'space': jsonio.topology_to_json(t), 'side': side})
        # the lower topology of the preorder pulled back along f is the
        # inverse image of the space
        for f in maps:
            tally.record(one_sided_topology(pullback_preorder(p, f), 'lower')
                         == inverse_image_topology(n, [(f, t)]),
                         lambda: {'space': jsonio.topology_to_json(t),
                                  'map': {'f': list(f.images)}})
    for t1, p1 in zip(tops, orders):
        for t2, p2 in zip(tops, orders):
            # the maps run in lexicographic order of their images, so the
            # first one homeomorphy accepts is are_homeomorphic's witness
            first = None
            for f in maps:
                m = SpaceMap(t1, t2, f)
                ch = continuity_characterizations(m)
                ch['preimage-closure'] = continuous_via_preimage_closure(m)
                ch['preimage-interior'] = continuous_via_preimage_interior(m)
                tally.record(len(set(ch.values())) == 1,
                             lambda: _pair_json(t1, t2, map={'f': list(f.images)},
                                                characterizations=ch))
                if first is None and homeomorphy(m):
                    first = list(f.images)
            found = are_homeomorphic(t1, t2)
            witness = list(found.images) if found else None
            tally.record(witness == first,
                         lambda: _pair_json(t1, t2, homeomorphy=first, are_homeomorphic=witness))
            by_neighborhoods = compare_by_neighborhoods(t1, t2)
            tally.record(by_neighborhoods == compare(t1, t2),
                         lambda: _pair_json(t1, t2, compare_by_neighborhoods=by_neighborhoods))
            # the lower topology of the product order is the product space
            tally.record(one_sided_topology(product_preorder([p1, p2]), 'lower')
                         == product_topology([t1, t2])[0], lambda: _pair_json(t1, t2))


def _specialization(t):
    """The reflexive preorder of the space: x <= y iff x lies in U_y, so
    the lower segment of y is U_y and the lower topology is the space."""
    pairs = [(x, y) for y, u in enumerate(t.minimal_opens) for x in points_of(u)]
    return Preorder(t.n, pairs, 'reflexive')


def _pair_json(t1, t2, **more):
    return dict(src=jsonio.topology_to_json(t1), dst=jsonio.topology_to_json(t2), **more)


def _suite_convergence(n, tally):
    all_filters = enumerate_filters(n)
    # the canonical net of each filter's members and the sequence that
    # cycles through its core: both have the filter as their tail filter;
    # and the members pass the filter axioms and give back the filter
    runs = [(f, net_from_filter_base(f.members),
             EventuallyPeriodicSequence((), points_of(f.core()), n)) for f in all_filters]
    for f, net, seq in runs:
        tally.record(filter_from_net(net) == f == sequence_filter(seq)
                     and is_filter(f.members) is None and Filter(n, f.members) == f,
                     lambda: {'n': n, 'filter-core': points_of(f.core())})
    for t in enumerate_topologies(n):
        for a in range(1, 1 << n):
            cl = closure(t, a)
            via_adherence = filter_adherence(t, principal_filter(n, a))
            via_convergence = 0
            for f in all_filters:
                if a in f:
                    via_convergence |= filter_limits(t, f)
            tally.record(cl == via_adherence == via_convergence,
                         lambda: {'space': jsonio.topology_to_json(t), 'set': a})
        for f, net, seq in runs:
            lim, adh = filter_limits(t, f), filter_adherence(t, f)
            ok = (net_limits(t, net) == sequence_limits(t, seq) == lim
                  and net_cluster_points(t, net) == sequence_cluster_points(t, seq) == adh)
            tally.record(ok, lambda: {'space': jsonio.topology_to_json(t),
                                      'filter-core': points_of(f.core())})


def _suite_metric(n, tally):
    rng = random.Random(101)
    for _ in range(25):
        d = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = Fraction(rng.randint(0, 4), rng.randint(1, 4))
        # closed under shortest paths, the draw stays symmetric with a
        # zero diagonal and meets the triangle inequality
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        m = PseudoMetric(d)
        t = metric_topology(m)
        e, f = bounded_equivalents(m)
        ok = (metric_topology(e) == t and metric_topology(f) == t
              and all(zero_distance_set(m, a) == closure(t, a)
                      for a in range(1, 1 << n))
              and all(t.is_closed(m.closed_sphere(x, r))
                      for x in range(n) for r in default_radius_set(m)))
        # the sphere criterion finds each of m, e and f finer than the
        # others; the quotient by the zero-distance classes and every
        # subspace are the same from the metric as from the topology; and
        # the supremum metric of the constant functions is m again
        ok = (ok and all(is_finer_by_spheres(a, b) for a, b in ((m, e), (e, m), (m, f), (f, m)))
              and _metric_quotient(m) == quotient_topology(t, zero_distance_rows(m))
              and all(_metric_subspace(m, a) == subspace_topology(t, a)
                      for a in range(1, 1 << n)))
        sup = sup_pseudometric(m, [(x,) * n for x in range(n)])
        ok = ok and sup == m and is_isometry(m, sup, identity_map(n))
        tally.record(ok, lambda: jsonio.metric_to_json(m))


def _metric_quotient(m):
    """(topology, class map, classes) of the quotient metric of m."""
    classes, qm, q = quotient_metric(m)
    return metric_topology(qm), q, classes


def _metric_subspace(m, a):
    """(topology, point map) of the metric restricted to A."""
    sub, point_map = restrict(m, a)
    return metric_topology(sub), point_map


def _suite_numeric(n, tally):
    rng = random.Random(404)
    for _ in range(200):
        deg = rng.randint(1, 3)
        lead = [abs(Dyadic(rng.randint(-4, 4), rng.randint(-2, 1))) + Dyadic(1)
                for _ in range(deg)]
        coeffs = [Dyadic(rng.randint(-4, 4), rng.randint(-2, 1))] + lead
        p = DyadicPoly(coeffs)  # positive higher coefficients: increasing on [0, 2]
        a, b = Dyadic(0), Dyadic(2)
        w = p(Dyadic(rng.randint(0, 8), -2))
        tol = Dyadic(1, -rng.randint(2, 10))
        trace = []
        r = bisection_invert(p, a, b, w, tol, trace=trace)
        # each step keeps one half of the interval before it, so the
        # width after step s is (b - a) / 2^s
        ok, x, y = a <= r <= b, a, b
        for nx, ny, _, _ in trace:
            mid = x.half_sum(y)
            ok = ok and (nx, ny) in ((x, mid), (mid, y))
            x, y = nx, ny
        tally.record(ok, lambda: {'poly': [str(c) for c in coeffs], 'a': str(a), 'b': str(b),
                                  'w': str(w), 'tol': str(tol)})


# (suite, least n, greatest n); the numeric suite reads no n
SUITES = {
    'operators': (_suite_operators, 0, 3),
    'kuratowski': (_suite_kuratowski, 0, 4),
    'neighborhoods': (_suite_neighborhoods, 0, 3),
    'filters': (_suite_filters, 0, 4),
    'continuity': (_suite_continuity, 0, 3),
    'convergence': (_suite_convergence, 0, 3),
    'metric': (_suite_metric, 1, 5),
    'numeric': (_suite_numeric, 0, MAX_N),
}


def run_suite(name, n):
    suite, lo, hi = SUITES[name]
    if not lo <= n <= hi:
        raise CapExceeded("suite %s needs %d <= n <= %d" % (name, lo, hi))
    tally = _Tally()
    suite(n, tally)
    return {
        'suite': name,
        'n': n,
        'total': tally.total,
        'passed': tally.total - tally.failed,
        'failed': tally.failed,
        'counterexample': tally.first,
    }
