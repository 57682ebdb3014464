"""Self-test of the benchmark, run from the root of a checkout:

    python3 topobench/selftest.py

1. The oracles agree with fintopo on every topology with n <= 4 points.
2. A deliberately wrong result (a flipped bit in a closure table, an
   off-by-one enumeration, a missed homeomorphism, a negated continuity
   verdict, a wrong root) is reported as a failed operation and makes
   the run incorrect, while untouched rounds pass and cli-mix fails
   only its known-fault calls.
3. The tracer restores every name it rebinds, its counts repeat
   exactly, and BENCHMARK.json names exactly the metrics the code prints.
Exits 1 on the first disagreement.
"""

import json
import os
import random
import shutil
import sys
import tempfile
from itertools import product

import oracle
import run
from harness import Library, Ops
from tracing import Tracer, metric_units
from workloads import WORKLOADS


def check(ok, what):
    if not ok:
        print('FAIL ' + what)
        sys.exit(1)


def oracles_agree(lib):
    topo, cl, conv, cont = lib.topology, lib.closure, lib.convergence, lib.continuity
    SetSystem, FiniteMap = lib.setops.SetSystem, lib.setops.FiniteMap
    for n in range(1, 5):
        tops = topo.enumerate_topologies(n)
        uxs = [oracle.minimal_opens(n, t.opens) for t in tops]
        check(len(tops) == oracle.A000798[n], 'topology count n=%d' % n)
        check({tuple(oracle.opens(n, ux)) for ux in oracle.preorders(n)}
              == {tuple(t.opens) for t in tops}, 'preorders are the topologies, n=%d' % n)
        check(sum(len(set(ux)) == n for ux in uxs) == oracle.A001035[n], 'T0 count n=%d' % n)
        forms = {oracle.canonical_form(n, ux) for ux in uxs}
        check(len(forms) == oracle.A001930[n], 'class count n=%d' % n)
        for t, ux in zip(tops, uxs):
            what = 'n=%d opens %r' % (n, list(t.opens))
            check(tuple(oracle.opens(n, ux)) == tuple(t.opens), 'opens ' + what)
            check(tuple(cl.closure_operator_of(t).table) == oracle.closure_table(n, ux), 'closure ' + what)
            check(tuple(cl.interior_operator_of(t).table) == oracle.interior_table(n, ux), 'interior ' + what)
            check(set(topo.minimal_base(t)) == {0} | set(ux), 'minimal base ' + what)
            check(tuple(topo.generate_from_subbase(SetSystem(n, [0, *ux])).opens) == tuple(t.opens),
                  'subbase ' + what)
            for a in range(1 << n):
                check(cl.analyze_subset(t, a) == oracle.analyze(n, ux, a), 'analyze %d %s' % (a, what))
            for core in range(1, 1 << n):
                want = oracle.limits_of_core(ux, core)
                f = lib.filters.principal_filter(n, core)
                seq = conv.EventuallyPeriodicSequence([], oracle.points(core), n)
                check(conv.filter_limits(t, f) == want and conv.sequence_limits(t, seq) == want,
                      'limits of core %d %s' % (core, what))
        rng = random.Random(n)
        for (s, us), (d, ud) in product(zip(tops, uxs), repeat=2):
            if n == 4 and rng.random() > 0.002:  # all pairs for n <= 3, a sample for n = 4
                continue
            for im in product(range(n), repeat=n):
                m = cont.SpaceMap(s, d, FiniteMap(n, n, im))
                check(cont.is_continuous(m) == oracle.is_continuous(us, ud, im)
                      and cont.map_open_closed(m) == (oracle.is_open_map(us, ud, im),
                                                      oracle.is_closed_map(us, ud, im)),
                      'continuity of %r' % (im,))
            w = cont.are_homeomorphic(s, d)
            same = oracle.canonical_form(n, us) == oracle.canonical_form(n, ud)
            check((w is not None) == same and (w is None or oracle.is_homeomorphism(us, ud, w.images)),
                  'homeomorphism n=%d' % n)
        for t, ux in zip(tops, uxs):
            perm = list(range(n))
            rng.shuffle(perm)
            moved = oracle.relabel(ux, perm)
            w = cont.are_homeomorphic(t, topo.Topology(n, oracle.opens(n, moved)))
            check(w is not None and oracle.is_homeomorphism(ux, moved, w.images),
                  'homeomorphism to a relabelling, n=%d' % n)
    print('PASS oracles agree with fintopo on every topology with n <= 4')


def one_round(name, workdir, patch=None, cases=None):
    lib = Library()
    wl = WORKLOADS[name](lib, 7, workdir)
    if cases is not None:
        wl.cases = wl.cases[:cases]
    if patch:
        patch(lib)
    ops = Ops(workdir)
    wl.run_round(ops)
    ops.settle()
    return ops


def faults_are_caught(workdir):
    def flip_closure_bit(lib):
        orig = lib.closure.closure_operator_of

        def wrong(t):
            table = list(orig(t).table)
            table[5] ^= 1
            return lib.closure.SubsetOperator(t.n, table)
        lib.closure.closure_operator_of = wrong

    def drop_one_topology(lib):
        orig = lib.topology.enumerate_topologies
        lib.topology.enumerate_topologies = lambda n, **kw: orig(n, **kw)[:-1] if n == 5 else orig(n, **kw)

    def miss_some_witnesses(lib):
        orig = lib.continuity.are_homeomorphic
        calls = [0]

        def wrong(t1, t2):
            calls[0] += 1
            return None if calls[0] % 1000 == 0 else orig(t1, t2)
        lib.continuity.are_homeomorphic = wrong

    def negate_continuity(lib):
        orig = lib.continuity.is_continuous
        lib.continuity.is_continuous = lambda m: not orig(m)

    def wrong_root(lib):
        orig = lib.cli.mth_root
        lib.cli.mth_root = lambda a, m, tol: orig(a, m, tol) + tol

    for name, patch, cases in (('dense-spaces', flip_closure_bit, None),
                               ('census', drop_one_topology, None),
                               ('census', miss_some_witnesses, None),
                               ('continuity-sweep', negate_continuity, 300),
                               ('cli-mix', wrong_root, None)):
        ops = one_round(name, workdir, patch, cases)
        check(ops.failed >= 1 and ops.wrong, 'injected fault in %s went unnoticed' % name)
        print('PASS %s: injected fault reported (%d of %d operations failed)'
              % (name, ops.failed, ops.attempted))
    ops = one_round('dense-spaces', workdir)
    check(ops.failed == 0 and not ops.wrong, 'clean dense-spaces round failed: %r' % ops.wrong[:3])
    ops = one_round('cli-mix', workdir)
    check(ops.failed * 24 == ops.attempted and not ops.wrong,
          'clean cli-mix round: %d of %d failed, %r' % (ops.failed, ops.attempted, ops.wrong[:3]))
    print('PASS clean rounds: no failures but the known fault in cli-mix')


def tracer_is_clean(workdir):
    def snapshot():
        return {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if name.startswith('fintopo')}

    def traced_counts():
        lib = Library()
        wl = WORKLOADS['cli-mix'](lib, 3, workdir)
        before = snapshot()
        classes = {c: dict(vars(c)) for c in (lib.setops.SetSystem, lib.numeric.Dyadic)}
        tracer = Tracer()
        tracer.install()
        try:
            ops = Ops(workdir)
            wl.run_round(ops)
            ops.settle()
        finally:
            tracer.uninstall()
        after = snapshot()
        check(all(before[m][k] is after[m][k] for m in before for k in before[m]), 'tracer left a shim behind')
        check(all(dict(vars(c)) == v for c, v in classes.items()), 'tracer left a method shim behind')
        metrics = tracer.metrics()
        return {k: v['value'] for k, v in metrics.items() if not k.endswith('.self_s')}

    first, second = traced_counts(), traced_counts()
    check(first == second, 'traced counts differ between two runs')
    check(first['cli.main.calls'] > 0 and first['numeric.half_sum.calls'] > 0, 'tracer saw no calls')
    print('PASS tracer restores every name and its counts repeat')

    with open(os.path.join(run.ROOT, 'BENCHMARK.json')) as fh:
        bench = json.load(fh)
    check({m['name'] for m in bench['per_layer']} == set(metric_units()), 'per_layer names')
    check(all((m['unit'], m['better']) == metric_units()[m['name']] for m in bench['per_layer']),
          'per_layer units')
    check({m['name'] for m in bench['end_to_end']} == set(run.END_TO_END), 'end_to_end names')
    check({w['name'] for w in bench['workloads']} == set(WORKLOADS), 'workload names')
    print('PASS BENCHMARK.json names the metrics and workloads the code prints')


def main():
    sys.path.insert(0, run.SRC)
    workdir = tempfile.mkdtemp(prefix='.topobench-', dir=run.ROOT)
    try:
        oracles_agree(Library())
        faults_are_caught(workdir)
        tracer_is_clean(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == '__main__':
    main()
