"""The verify suites and the cross-checks they run.

The continuity, convergence and metric suites pass.  Each check they
run against an alternative characterization is live: with one checked
name in verify's namespace made to answer wrongly, the suite fails, and
its counterexample reads back as input on which the wrong answer and
the real one differ, the real one agreeing with its counterpart.
"""

import json

import pytest

from fintopo import jsonio, verify
from fintopo.continuity import SpaceMap, continuity_characterizations
from fintopo.convergence import EventuallyPeriodicSequence, filter_limits, net_from_filter_base
from fintopo.filters import principal_filter
from fintopo.generated import subspace_topology
from fintopo.metric import PseudoMetric, bounded_equivalents, metric_topology
from fintopo.setops import FiniteMap, full_mask, mask_of
from fintopo.topology import compare


@pytest.mark.parametrize('suite, n', [('continuity', 3), ('convergence', 3), ('metric', 4)])
def test_suite_passes(suite, n):
    report = verify.run_suite(suite, n)
    assert report['total'] > 0
    assert (report['failed'], report['counterexample']) == (0, None)


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


def replay_sequence(real, wrong, ce):
    seq = EventuallyPeriodicSequence((), ce['filter-core'], ce['n'])
    return wrong(seq) != real(seq) == core_filter(ce['n'], ce)


def replay_spheres(real, wrong, ce):
    m = metric(ce)
    e = bounded_equivalents(m)[0]
    return real(m, e) and not wrong(m, e)


def replay_restriction(real, wrong, ce):
    m = metric(ce)
    t = metric_topology(m)
    return any(metric_topology(wrong(m, a)[0])
               != subspace_topology(t, a)[0] == metric_topology(real(m, a)[0])
               for a in range(1, 1 << m.n))


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
    ('metric', 3, 'is_finer_by_spheres', lambda real: lambda m1, m2: False, replay_spheres),
    ('metric', 3, 'restrict', lambda real: lambda m, a: real(m, a & -a), replay_restriction),
]


@pytest.mark.parametrize('suite, n, name, fault, replay', FAULTS,
                         ids=['%s-%s' % (f[0], f[2]) for f in FAULTS])
def test_a_wrong_answer_fails_with_a_counterexample(monkeypatch, suite, n, name, fault,
                                                    replay):
    real = getattr(verify, name)
    wrong = fault(real)
    monkeypatch.setattr(verify, name, wrong)
    report = verify.run_suite(suite, n)
    assert report['failed'] > 0
    assert replay(real, wrong, json.loads(jsonio.dumps(report['counterexample'])))
