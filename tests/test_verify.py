"""The verify suites and the cross-checks they run.

The continuity, convergence and metric suites pass.  Each check they
and the kuratowski suite run against an alternative characterization is
live, as are the numeric suite's check that each bisection step keeps a
half, the convergence suite's check of each filter's members and the
neighborhoods suite's round trip through the set map: with one checked
name in verify's namespace (or a method of a class there) made to
answer wrongly, the suite fails, and its counterexample reads back as
input on which the wrong answer and the real one differ, the real one
agreeing with its counterpart.
"""

import json
import time

import pytest

import opens_reference as ref
from fintopo import jsonio, verify
from fintopo.closure import closure_operator_of
from fintopo.continuity import SpaceMap, continuity_characterizations
from fintopo.convergence import EventuallyPeriodicSequence, filter_limits, net_from_filter_base
from fintopo.filters import principal_filter
from fintopo.generated import inverse_image_topology, product_topology, subspace_topology
from fintopo.metric import PseudoMetric, bounded_equivalents, default_radius_set, metric_topology
from fintopo.neighborhoods import topology_from_set_map
from fintopo.numeric import Dyadic
from fintopo.order import Preorder, one_sided_topology
from fintopo.setops import FiniteMap, full_mask, mask_of, points_of
from fintopo.topology import compare, discrete_topology


@pytest.mark.parametrize('suite, n', [('continuity', 3), ('convergence', 3), ('metric', 4)])
def test_suite_passes(suite, n):
    report = verify.run_suite(suite, n)
    assert report['total'] > 0
    assert (report['failed'], report['counterexample']) == (0, None)


def test_metric_suite_at_five_points_in_bounded_time():
    # each draw is closed under shortest paths instead of redrawn until
    # it is a pseudometric: measured 0.17 s, where 28,752 draws took
    # 2.3 s (CPython 3.11, shared 2-CPU host)
    t0 = time.perf_counter()
    report = verify.run_suite('metric', 5)
    assert time.perf_counter() - t0 < 2
    assert (report['total'], report['failed']) == (25, 0)


class TestNumericSuiteCases:
    """The numeric suite draws its cases as integers on the exponent 2^-2;
    they are the cases it drew through the checked Dyadic(m, e)."""

    def test_the_suite_bisects_the_cases_it_drew(self, monkeypatch):
        seen = []
        real = verify.bisection_invert

        def spy(p, a, b, w, tol, trace):
            r = real(p, a, b, w, tol, trace)
            seen.append((p.coeffs, p.ints, p.exp, a, b, w, tol, r, list(trace)))
            return r

        monkeypatch.setattr(verify, 'bisection_invert', spy)
        report = verify.run_suite('numeric', 0)
        want = []
        for p, a, b, w, tol in ref.numeric_suite_cases():
            trace = []
            r = ref.bisection_invert(p, a, b, w, tol, trace)
            want.append((p.coeffs, p.ints, p.exp, a, b, w, tol, r, trace))
        assert (report['total'], report['failed']) == (200, 0)
        # Dyadic equality is that of canonical forms, (m, e)
        assert seen == want
        assert sum(map(len, (case[-1] for case in seen))) == 228

    def test_few_checked_constructor_calls(self, monkeypatch):
        # counted as the benchmark's tracer counts numeric.dyadic_new: a
        # shim on Dyadic.__init__.  The draw through Dyadic(m, e) makes
        # 1,814 such calls.
        calls = []
        real = Dyadic.__init__

        def counted(self, *args):
            calls.append(args)
            real(self, *args)

        monkeypatch.setattr(Dyadic, '__init__', counted)
        ref.numeric_suite_cases()
        assert len(calls) == 1814
        del calls[:]
        verify.run_suite('numeric', 0)
        assert len(calls) <= 200, len(calls)


def spaces(ce):
    return jsonio.topology_from_json(ce['src']), jsonio.topology_from_json(ce['dst'])


def space_map(ce, images):
    src, dst = spaces(ce)
    return SpaceMap(src, dst, FiniteMap(src.n, dst.n, images))


def core_filter(n, ce):
    return principal_filter(n, mask_of(ce['filter-core'], n))


def metric(ce):
    return PseudoMetric(jsonio.matrix_from_json(ce))


def replay_characterization(real, wrong, ce):
    m = space_map(ce, ce['map']['f'])
    return wrong(m) != real(m) == continuity_characterizations(m)['opens']


def replay_homeomorphy(real, wrong, ce):
    m = space_map(ce, ce['are_homeomorphic'])
    return ce['homeomorphy'] is None and real(m) and not wrong(m)


def replay_comparison(real, wrong, ce):
    return wrong(*spaces(ce)) != real(*spaces(ce)) == compare(*spaces(ce))


def replay_net(real, wrong, ce):
    t = jsonio.topology_from_json(ce['space'])
    f = core_filter(t.n, ce)
    net = net_from_filter_base(f.members)
    return wrong(t, net) != real(t, net) == filter_limits(t, f)


def replay_filter_axioms(real, wrong, ce):
    members = core_filter(ce['n'], ce).members
    return wrong(members) is not None and real(members) is None


def replay_filter_members(real, wrong, ce):
    f = core_filter(ce['n'], ce)
    return wrong(ce['n'], f.members) != f == real(ce['n'], f.members)


def replay_sequence(real, wrong, ce):
    seq = EventuallyPeriodicSequence((), ce['filter-core'], ce['n'])
    return wrong(seq) != real(seq) == core_filter(ce['n'], ce)


def replay_spheres(real, wrong, ce):
    m = metric(ce)
    e = bounded_equivalents(m)[0]
    return real(m, e) and not wrong(m, e)


def specialization(t):
    """The reflexive preorder with x <= y iff x lies in U_y."""
    return Preorder(t.n, [(x, y) for y, u in enumerate(t.minimal_opens) for x in points_of(u)],
                    'reflexive')


def lower(p):
    return one_sided_topology(p, 'lower')


def replay_product(real, wrong, ce):
    t1, t2 = spaces(ce)
    ps = [specialization(t1), specialization(t2)]
    return lower(wrong(ps)) != lower(real(ps)) == product_topology([t1, t2])[0]


def replay_pullback(real, wrong, ce):
    t = jsonio.topology_from_json(ce['space'])
    f = jsonio.map_from_json(ce['map'], t.n, t.n)
    p = specialization(t)
    return lower(wrong(p, f)) != lower(real(p, f)) == inverse_image_topology(t.n, [(f, t)])


def replay_segments(real, wrong, ce):
    p = specialization(jsonio.topology_from_json(ce['space']))
    side = ce['side']
    return wrong(p, side) != real(p, side) == ref.segment_system_is_topology(p, side)


def replay_interior(real, wrong, ce):
    t = jsonio.topology_from_json(ce)
    return wrong(t) != real(t) == closure_operator_of(t).dual()


def replay_closed_sphere(real, wrong, ce):
    m = metric(ce)
    t = metric_topology(m)
    return any(ref.closure(t, wrong(m, x, r)) != wrong(m, x, r)
               and ref.closure(t, real(m, x, r)) == real(m, x, r)
               for x in range(m.n) for r in default_radius_set(m))


def replay_restriction(real, wrong, ce):
    m = metric(ce)
    t = metric_topology(m)
    return any(metric_topology(wrong(m, a)[0])
               != subspace_topology(t, a)[0] == metric_topology(real(m, a)[0])
               for a in range(1, 1 << m.n))


def halves(invert, case):
    """Whether each step of the trace of invert on the inversion case
    keeps one half of the interval before it."""
    trace = []
    p, a, b, w, tol = case
    invert(p, a, b, w, tol, trace)
    x, y = a, b
    for nx, ny, _, _ in trace:
        mid = x.half_sum(y)
        if (nx, ny) not in ((x, mid), (mid, y)):
            return False
        x, y = nx, ny
    return True


def replay_bisection(real, wrong, ce):
    case = jsonio.inversion_from_json(ce)
    return halves(real, case) and not halves(wrong, case)


def skip_a_half(real):
    def wrong(p, a, b, w, tol, trace):
        r = real(p, a, b, w, tol, trace)
        del trace[:1]
        return r
    return wrong


def replay_set_map(real, wrong, ce):
    t = jsonio.topology_from_json(ce)
    return topology_from_set_map(wrong(t)) != t == topology_from_set_map(real(t))


# (suite, n, checked name, the wrong answer made from the real one, replay)
FAULTS = [
    ('continuity', 2, 'continuous_via_preimage_interior', lambda real: lambda m: not real(m),
     replay_characterization),
    ('continuity', 2, 'homeomorphy', lambda real: lambda m: False, replay_homeomorphy),
    ('continuity', 2, 'compare_by_neighborhoods', lambda real: lambda t1, t2: 'equal',
     replay_comparison),
    ('convergence', 2, 'net_limits', lambda real: lambda t, net: 0, replay_net),
    ('convergence', 2, 'sequence_filter',
     lambda real: lambda seq: principal_filter(seq.n, full_mask(seq.n)), replay_sequence),
    ('convergence', 2, 'is_filter', lambda real: lambda s: ('upward-closed', 0),
     replay_filter_axioms),
    ('convergence', 2, 'Filter',
     lambda real: lambda n, members: principal_filter(n, full_mask(n)), replay_filter_members),
    ('metric', 3, 'is_finer_by_spheres', lambda real: lambda m1, m2: False, replay_spheres),
    ('metric', 3, 'restrict', lambda real: lambda m, a: real(m, a & -a), replay_restriction),
    ('continuity', 2, 'product_preorder', lambda real: lambda ps: real(ps[::-1]),
     replay_product),
    ('continuity', 2, 'pullback_preorder', lambda real: lambda p, f: p, replay_pullback),
    ('continuity', 2, 'segment_system_is_topology',
     lambda real: lambda p, side: not real(p, side), replay_segments),
    ('metric', 3, 'PseudoMetric.closed_sphere', lambda real: lambda m, x, r: 1 << x,
     replay_closed_sphere),
    ('kuratowski', 2, 'interior_operator_of', lambda real: closure_operator_of,
     replay_interior),
    ('numeric', 0, 'bisection_invert', skip_a_half, replay_bisection),
    ('neighborhoods', 2, 'set_map_of', lambda real: lambda t: real(discrete_topology(t.n)),
     replay_set_map),
]


@pytest.mark.parametrize('suite, n, name, fault, replay', FAULTS,
                         ids=['%s-%s' % (f[0], f[2]) for f in FAULTS])
def test_a_wrong_answer_fails_with_a_counterexample(monkeypatch, suite, n, name, fault,
                                                    replay):
    owner, _, attribute = name.rpartition('.')
    target = getattr(verify, owner) if owner else verify
    real = getattr(target, attribute)
    wrong = fault(real)
    monkeypatch.setattr(target, attribute, wrong)
    report = verify.run_suite(suite, n)
    assert report['failed'] > 0
    assert replay(real, wrong, json.loads(jsonio.dumps(report['counterexample'])))
