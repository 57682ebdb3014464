"""The four workloads.  Each builds its inputs from a seed in __init__
(the timed set-up) and runs one round of operations per call to
run_round.  Every operation is checked against oracle.py."""

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import permutations, product

import oracle

CHARACTERIZATIONS = {'opens', 'subbase', 'closeds', 'neighborhoods', 'filter-transfer', 'closure'}


def _failed(out):
    return isinstance(out, Exception)


class ContinuitySweep:
    """The paper's continuity demonstration: every (source, target, map)
    on 3 points, 29 x 29 x 27 = 22,707 instances, in a seeded order.  One
    round is one pass; an operation is one of the three calls per
    instance."""

    def __init__(self, lib, seed, workdir):
        n = 3
        self.lib = lib
        self.spaces = oracle.preorders(n)
        if len(self.spaces) != oracle.A000798[n]:
            raise RuntimeError('oracle found %d preorders on 3 points' % len(self.spaces))
        tops = [lib.topology.Topology(n, oracle.opens(n, ux)) for ux in self.spaces]
        self.images = list(product(range(n), repeat=n))
        maps = [lib.setops.FiniteMap(n, n, im) for im in self.images]
        cases = list(product(range(len(tops)), range(len(tops)), range(len(maps))))
        random.Random(seed).shuffle(cases)
        space_map = lib.continuity.SpaceMap
        self.cases = [(c, space_map(tops[c[0]], tops[c[1]], maps[c[2]])) for c in cases]
        self.expected = {}

    def run_round(self, ops):
        cont = self.lib.continuity
        chars, is_cont, open_closed = (cont.continuity_characterizations,
                                       cont.is_continuous, cont.map_open_closed)
        for case, m in self.cases:
            ops.call(self._check_chars, case, chars, m)
            ops.call(self._check_continuous, case, is_cont, m)
            ops.call(self._check_open_closed, case, open_closed, m)
            ops.settle()

    def _expect(self, case):
        e = self.expected.get(case)
        if e is None:
            src, dst, im = self.spaces[case[0]], self.spaces[case[1]], self.images[case[2]]
            e = self.expected[case] = (oracle.is_continuous(src, dst, im),
                                       oracle.is_open_map(src, dst, im),
                                       oracle.is_closed_map(src, dst, im))
        return e

    def _check_chars(self, out, case):
        c = self._expect(case)[0]
        return set(out) == CHARACTERIZATIONS and all(v == c for v in out.values())

    def _check_continuous(self, out, case):
        return out == self._expect(case)[0]

    def _check_open_closed(self, out, case):
        return tuple(out) == self._expect(case)[1:]


def _chain(k):
    return [((1 << k) - 1) & ~((1 << i) - 1) for i in range(k)]


def _discrete(k):
    return [1 << i for i in range(k)]


def _indiscrete(k):
    return [(1 << k) - 1] * k


def _fork(k):
    """Point 0 below each of the others, which are incomparable."""
    return [(1 << k) - 1] + [1 << i for i in range(1, k)]


BLOCKS = {'chain': _chain, 'discrete': _discrete, 'indiscrete': _indiscrete, 'fork': _fork}

# One space per carrier size.  A space is a disjoint sum of blocks, so its
# number of opens is the product of the blocks' and does not depend on
# the seed; the seed relabels the points and draws the subbase and the
# queries.  Cost grows with n and with the number of opens, and a fixed
# shape keeps it the same from seed to seed.
DENSE_SLOTS = (
    (('chain', 4), ('chain', 4)),                                       # n=8, 25 opens
    (('discrete', 3), ('chain', 3), ('fork', 3)),                       # n=9, 160 opens
    (('discrete', 6), ('chain', 4)),                                    # n=10, 320 opens
    (('discrete', 8), ('chain', 3)),                                    # n=11, 1024 opens
    (('discrete', 3), ('chain', 4), ('fork', 3), ('indiscrete', 2)),    # n=12, 400 opens
)
DENSE_SUBSETS = 96
DENSE_FILTERS = 4
DENSE_SEQUENCES = 4


class _DenseSpace:
    def __init__(self, lib, rng, blocks):
        ux = []
        for kind, k in blocks:
            ux += [u << len(ux) for u in BLOCKS[kind](k)]
        n = self.n = len(ux)
        perm = list(range(n))
        rng.shuffle(perm)
        ux = oracle.relabel(ux, perm)
        extra = {ux[rng.randrange(n)] | ux[rng.randrange(n)] for _ in range(n // 2)}
        self.members = sorted(set(ux) | extra)
        SetSystem = lib.setops.SetSystem
        self.subbase = SetSystem(n, self.members)
        full = (1 << n) - 1
        self.subsets = [rng.getrandbits(n) for _ in range(DENSE_SUBSETS)]
        self.filters = []
        for _ in range(DENSE_FILTERS):
            core = full & ~oracle.mask_of(rng.sample(range(n), 3))
            self.filters.append((SetSystem(n, [core, core | rng.getrandbits(n) & full]), core))
        self.sequences = []
        for _ in range(DENSE_SEQUENCES):
            pool = oracle.points(ux[rng.randrange(n)])
            cycle = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            pre = [rng.randrange(n) for _ in range(2)]
            seq = lib.convergence.EventuallyPeriodicSequence(pre, cycle, n)
            self.sequences.append((seq, oracle.mask_of(cycle)))
        self._oracle = None

    def expected(self):
        """(U, opens, closure table, interior table) from the subbase alone."""
        if self._oracle is None:
            n = self.n
            ux = oracle.minimal_opens(n, self.members)
            self._oracle = (ux, tuple(oracle.opens(n, ux)),
                            oracle.closure_table(n, ux), oracle.interior_table(n, ux))
        return self._oracle


class DenseSpaces:
    """Seeded random subbases on n = 8..12 and the questions asked of the
    generated spaces.  One round visits each of the five spaces once; an
    operation is one library call."""

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        self.spaces = [_DenseSpace(lib, rng, blocks) for blocks in DENSE_SLOTS]

    def run_round(self, ops):
        topo, cl, conv = self.lib.topology, self.lib.closure, self.lib.convergence
        gen_filter = self.lib.filters.generate_filter
        for sp in self.spaces:
            t = ops.call(_check_opens, sp, topo.generate_from_subbase, sp.subbase)
            if _failed(t):
                ops.settle()
                continue
            c = ops.call(_check_closure_table, sp, cl.closure_operator_of, t)
            ops.call(_check_interior_table, sp, cl.interior_operator_of, t)
            if not _failed(c):
                ops.call(_check_opens, sp, cl.topology_from_closure_operator, c)
            ops.call(_check_minimal_base, sp, topo.minimal_base, t)
            for a in sp.subsets:
                ops.call(_check_analyze, (sp, a), cl.analyze_subset, t, a)
            for base, core in sp.filters:
                f = ops.call(_check_filter, (sp, core), gen_filter, base)
                if not _failed(f):
                    ops.call(_check_limits, (sp, core), conv.filter_limits, t, f)
            for seq, cycle in sp.sequences:
                ops.call(_check_limits, (sp, cycle), conv.sequence_limits, t, seq)
            ops.settle()


def _check_opens(out, sp):
    return out.n == sp.n and tuple(out.opens) == sp.expected()[1]


def _check_closure_table(out, sp):
    return tuple(out.table) == sp.expected()[2]


def _check_interior_table(out, sp):
    return tuple(out.table) == sp.expected()[3]


def _check_minimal_base(out, sp):
    return set(out) == {0} | set(sp.expected()[0])


def _check_analyze(out, ctx):
    sp, a = ctx
    return out == oracle.analyze(sp.n, sp.expected()[0], a)


def _check_filter(out, ctx):
    sp, core = ctx
    return tuple(out.members) == tuple(core | s for s in range(1 << sp.n) if s & core == 0)


def _check_limits(out, ctx):
    sp, core = ctx
    return out == oracle.limits_of_core(sp.expected()[0], core)


def _classify(homeo, t, reps):
    """Looks t up among the representatives reps, calling homeo on each in
    turn until one gives a witness: (index, witness), or (None, None)
    when t starts a new class."""
    for i, r in enumerate(reps):
        w = homeo(t, r)
        if w is not None:
            return i, w
    return None, None


class Census:
    """Enumeration and classification: topologies on n <= 5 points, the
    closure operators on 4 points, then for each of the 6,942 topologies
    on 5 points (in a seeded order) a Kuratowski round trip and a lookup
    of its homeomorphism class among the representatives found so far.
    One round is one such pass.  An operation is one library call, except
    that a lookup, which calls are_homeomorphic against each
    representative until one matches, is one operation: 55 of every 56
    of those calls answer None, nearly all at once on differing
    invariants, and counted alone they would leave the median and the
    99th percentile on the edges of that split."""

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.order = list(range(oracle.A000798[5]))
        random.Random(seed).shuffle(self.order)
        self._verified = {}
        self._closure_tables = None
        self._uxs = {}
        self._classes = {}

    def run_round(self, ops):
        topo, cl = self.lib.topology, self.lib.closure
        homeo = self.lib.continuity.are_homeomorphic
        for n in range(1, 6):  # ts ends as the list for n = 5
            ts = ops.call(self._check_enumeration, n, topo.enumerate_topologies, n)
        ops.call(self._check_closure_operators, 4, cl.enumerate_closure_operators, 4)
        ops.settle()
        if _failed(ts) or len(ts) != len(self.order):
            return
        reps = []
        for i in self.order:
            t = ts[i]
            c = ops.call(self._check_closure_table, t, cl.closure_operator_of, t)
            if not _failed(c):
                ops.call(self._check_round_trip, t, cl.topology_from_closure_operator, c)
            found = ops.call(self._check_lookup, (t, list(reps)), _classify, homeo, t, reps)
            if not _failed(found) and found[0] is None:
                reps.append(t)
            ops.settle()
        ops.expect(len(reps) == oracle.A001930[5],
                   'found %d homeomorphism classes on 5 points' % len(reps))

    def _check_enumeration(self, out, n):
        keys = frozenset(tuple(t.opens) for t in out)
        if len(out) != oracle.A000798[n] or len(keys) != len(out):
            return False
        if self._verified.get(n) == keys:
            return True
        uxs = [oracle.minimal_opens(n, k) for k in keys]
        if any(tuple(oracle.opens(n, ux)) != k for ux, k in zip(uxs, keys)):
            return False
        if sum(len(set(ux)) == n for ux in uxs) != oracle.A001035[n]:
            return False
        self._verified[n] = keys
        return True

    def _check_closure_operators(self, out, n):
        if self._closure_tables is None:
            self._closure_tables = {oracle.closure_table(n, ux) for ux in oracle.preorders(n)}
        tables = [tuple(op.table) for op in out]
        return len(tables) == oracle.A000798[n] and set(tables) == self._closure_tables

    def _ux(self, t):
        """U of t, cached by its opens."""
        key = tuple(t.opens)
        ux = self._uxs.get(key)
        if ux is None:
            ux = self._uxs[key] = tuple(oracle.minimal_opens(t.n, key))
        return ux

    def _class(self, t):
        """Homeomorphism class of t, named by the first U seen in it: the
        orbit of that U under relabelling is filled in on first sight."""
        ux = self._ux(t)
        c = self._classes.get(ux)
        if c is None:
            c = ux
            for perm in permutations(range(t.n)):
                self._classes[oracle.relabel(ux, perm)] = c
        return c

    def _check_closure_table(self, out, t):
        return tuple(out.table) == oracle.closure_table(t.n, self._ux(t))

    def _check_round_trip(self, out, t):
        return out.n == t.n and tuple(out.opens) == tuple(t.opens)

    def _check_lookup(self, out, ctx):
        """The first representative homeomorphic to t, if any, must be
        the one found, with a true witness."""
        t, reps = ctx
        index, w = out
        c = self._class(t)
        want = next((i for i, r in enumerate(reps) if self._class(r) == c), None)
        if index != want:
            return False
        return w is None or oracle.is_homeomorphism(self._ux(t), self._ux(reps[index]),
                                                     list(w.images))


def _invoke(main, argv):
    """One `topo` invocation in-process: (exit status, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _random_preorder(rng, n, p=0.3):
    """U of a random preorder: random relation, transitively closed."""
    up = [1 << x | oracle.mask_of(y for y in range(n) if y != x and rng.random() < p)
          for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            u = up[x]
            for y in oracle.points(up[x]):
                u |= up[y]
            if u != up[x]:
                up[x], changed = u, True
    return tuple(up)


def _system_json(n, sets):
    return {'n': n, 'sets': [oracle.points(s) for s in sorted(set(sets))]}


def _dyadic_text(fr):
    return '%d/%d' % (fr.numerator, fr.denominator)


def _poly(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


# (tolerance exponent, root degree): one of each per round.
ROOTS = ((64, 5), (256, 4), (1024, 3), (2048, 2))
VARIANTS = 8


class CliMix:
    """A seeded mix of `topo` verbs, run in-process through
    fintopo.cli.main on JSON input files.  One round is one invocation
    of each of 24 verbs on each of eight seeded input variants; an
    operation is one invocation.  `series --geom 1/2 --terms -5` is in
    every variant and fails every time: negative --terms exits 0 with
    sum 1*2^0 instead of a typed error.

    Set-up builds the inputs in memory; the files are written before
    the first round, outside any timed span.  Creating them took from
    0.03 to 0.2 s on the reference host, with the host's disk load, and
    would have swamped the import time in setup_s."""

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.files = {}
        rng = random.Random(seed)
        self.variants = [self._variant(rng, os.path.join(workdir, 'v%d' % v))
                         for v in range(VARIANTS)]

    def run_round(self, ops):
        for path, text in self.files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, 'w') as fh:
                fh.write(text)
        self.files.clear()
        main = self.lib.cli.main
        for variant in self.variants:
            for argv, check, ctx, known_fault in variant:
                ops.call(check, ctx, _invoke, main, argv, known_fault=known_fault)
            ops.settle()

    def _variant(self, rng, d):
        def put(name, data):
            path = os.path.join(d, name)
            self.files[path] = json.dumps(data)
            return path

        def space(name, n):
            ux = _random_preorder(rng, n)
            return put(name, _system_json(n, oracle.opens(n, ux))), ux

        cmds = []

        def add(argv, check, ctx, known_fault=False):
            cmds.append((argv, check, ctx, known_fault))

        # generate: base, subbase, closure operator, pseudo-metric, interval, neighborhoods
        for kind in ('base', 'subbase'):
            ux = _random_preorder(rng, 6)
            extra = [ux[rng.randrange(6)] | ux[rng.randrange(6)] for _ in range(2)]
            path = put(kind + '.json', _system_json(6, [0, *ux, *extra]))
            add(['generate', '--' + kind, path], _check_space, ux)
        ux = _random_preorder(rng, 5)
        table = [[oracle.points(a), oracle.points(oracle.closure(ux, a))] for a in range(32)]
        add(['generate', '--closure-op', put('closure_op.json', {'n': 5, 'table': table})],
            _check_space, ux)
        pos = [rng.randrange(4) for _ in range(5)]
        d_rows = [[str(Fraction(abs(a - b), 2)) for b in pos] for a in pos]
        zero = tuple(oracle.mask_of(j for j in range(5) if pos[j] == pos[i]) for i in range(5))
        add(['generate', '--metric', put('metric.json', {'n': 5, 'd': d_rows})], _check_space, zero)
        pairs = _random_strict_order(rng, 5)
        segments = [0] + [oracle.mask_of(j for j in range(5) if (x, j) in pairs) for x in range(5)] \
            + [oracle.mask_of(j for j in range(5) if (j, x) in pairs) for x in range(5)]
        path = put('interval.json', {'n': 5, 'pairs': sorted(map(list, pairs)), 'flavor': 'strict'})
        add(['generate', '--interval', path], _check_space, oracle.minimal_opens(5, segments))

        ux = _random_preorder(rng, 5)
        pairs = [[x, oracle.points(m)] for x in range(5) for m in range(32) if ux[x] & ~m == 0]
        add(['generate', '--neighborhoods', put('neighborhoods.json', {'n': 5, 'pairs': pairs})],
            _check_space, ux)

        path, ux = space('space6.json', 6)
        a = oracle.mask_of(rng.sample(range(6), rng.randint(1, 5)))
        add(['analyze', '--space', path, '--set', ','.join(map(str, oracle.points(a)))],
            _check_analyze_cli, (ux, a))

        core = oracle.mask_of(rng.sample(range(5), rng.randint(1, 3)))
        base = [core] + [core | rng.getrandbits(5) for _ in range(2)]
        add(['filter', '--op', 'generate', '--base', put('fbase.json', _system_json(5, base))],
            _check_filter_cli, core)

        src, ux_src = space('src4.json', 4)
        dst, ux_dst = space('dst4.json', 4)
        images = [rng.randrange(4) for _ in range(4)]
        add(['cont', '--src', src, '--dst', dst, '--map', put('map4.json', {'f': images})],
            _check_cont_cli, (ux_src, ux_dst, images))

        src, ux_h = space('homeo_src.json', 5)
        perm = list(range(5))
        rng.shuffle(perm)
        ux_perm = oracle.relabel(ux_h, perm)
        dst = put('homeo_dst.json', _system_json(5, oracle.opens(5, ux_perm)))
        add(['cont', '--src', src, '--dst', dst, '--homeo'], _check_homeo_cli, (ux_h, ux_perm))

        pa, ux_a = space('prod_a.json', 2)
        pb, ux_b = space('prod_b.json', 3)
        add(['product', pa, pb], _check_product_cli, (ux_a, ux_b))

        path, ux = space('quot.json', 6)
        pts = list(range(6))
        rng.shuffle(pts)
        cuts = sorted(rng.sample(range(1, 6), 2))
        blocks = [sorted(pts[:cuts[0]]), sorted(pts[cuts[0]:cuts[1]]), sorted(pts[cuts[1]:])]
        add(['quotient', '--space', path, '--classes', put('classes.json', blocks)],
            _check_quotient_cli, (ux, blocks))

        path, ux = space('net_space.json', 5)
        up = [u | 1 << 4 for u in _random_preorder(rng, 4)] + [1 << 4]  # 4 is a top: directed
        values = [rng.randrange(5) for _ in range(5)]
        leq = [[i, j] for i in range(5) for j in oracle.points(up[i])]
        net = put('net.json', {'domain': {'n': 5, 'leq': leq}, 'values': values})
        add(['check', '--net', net, '--space', path], _check_net_cli, (ux, up, values))

        coeffs = [Fraction(rng.randint(-8, 8), 4)] + [Fraction(rng.randint(1, 8), 4) for _ in range(3)]
        w = _poly(coeffs, Fraction(rng.randint(0, 2 ** 12), 2 ** 11))
        inv = {'poly': [_dyadic_text(c) for c in coeffs], 'a': '0', 'b': '2',
               'w': _dyadic_text(w), 'tol': '2^-40'}
        add(['check', '--invert', put('invert.json', inv)], _check_invert_cli,
            (coeffs, w, Fraction(1, 2 ** 40)))

        xs = [Fraction(rng.randint(-64, 64), 8) for _ in range(6)]
        ys = [Fraction(rng.randint(-64, 64), 8) for _ in range(6)]
        cs = put('cs.json', {'x': [_dyadic_text(v) for v in xs], 'y': [_dyadic_text(v) for v in ys]})
        add(['check', '--cauchy-schwarz', cs], _check_cs_cli, (xs, ys))

        x = Fraction(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]), 8)
        add(['series', '--geom=' + _dyadic_text(x), '--terms', '60'], _check_series_cli, (x, 60))
        add(['series', '--geom', '1/2', '--terms', '-5'], _check_typed_error, None, known_fault=True)

        for k, m in ROOTS:
            a = Fraction(rng.randint(2 * 1024, 1024 * 1024 - 1), 1024)
            add(['root', '--a', _dyadic_text(a), '--m', str(m), '--tol', '2^-%d' % k],
                _check_root_cli, (a, m, Fraction(1, 2 ** k)))
        add(['verify', '--suite', 'numeric'], _check_verify_cli, None)
        add(['verify', '--suite', 'neighborhoods', '--n', '3'], _check_verify_cli, None)
        add(['verify', '--suite', 'filters', '--n', '4'], _check_verify_cli, None)
        rng.shuffle(cmds)
        return cmds


def _random_strict_order(rng, n):
    """A random strict partial order in which every point is comparable
    to some other point, as a set of pairs (i, j) meaning i < j."""
    rank = list(range(n))
    rng.shuffle(rank)
    pairs = {(i, j) for i in range(n) for j in range(n) if rank[i] < rank[j] and rng.random() < 0.4}
    for x in range(n):
        if not any(x in p for p in pairs):
            y = rng.choice([y for y in range(n) if y != x])
            pairs.add((x, y) if rank[x] < rank[y] else (y, x))
    while True:
        more = {(i, k) for i, j in pairs for j2, k in pairs if j == j2} - pairs
        if not more:
            return pairs
        pairs |= more


def _result(out, status=0):
    code, text = out
    return json.loads(text) if code == status else None


def _check_space(out, ux):
    data = _result(out)
    n = len(ux)
    return data == _system_json(n, oracle.opens(n, ux))


def _check_analyze_cli(out, ctx):
    ux, a = ctx
    data = _result(out)
    want = oracle.analyze(len(ux), ux, a)
    return data == {'set': oracle.points(a), 'dense': want.pop('dense'),
                    **{k: oracle.points(v) for k, v in want.items()}}


def _check_filter_cli(out, core):
    data = _result(out)
    supersets = [core | s for s in range(32) if s & core == 0]
    return data == {'filter': _system_json(5, supersets), 'core': oracle.points(core)}


def _check_cont_cli(out, ctx):
    src, dst, images = ctx
    c = oracle.is_continuous(src, dst, images)
    return _result(out) == {'continuous': c, 'characterizations': dict.fromkeys(CHARACTERIZATIONS, c),
                            'open': oracle.is_open_map(src, dst, images),
                            'closed': oracle.is_closed_map(src, dst, images)}


def _check_homeo_cli(out, ctx):
    src, dst = ctx
    data = _result(out)
    return (data is not None and data['homeomorphic'] is True
            and oracle.canonical_form(5, src) == oracle.canonical_form(5, dst)
            and oracle.is_homeomorphism(src, dst, data['witness']))


def _check_product_cli(out, ctx):
    ux_a, ux_b = ctx
    ux = oracle.product_ux(ux_a, ux_b)
    na, nb = len(ux_a), len(ux_b)
    return _result(out) == {
        'topology': _system_json(na * nb, oracle.opens(na * nb, ux)),
        'projections': [[i for i in range(na) for _ in range(nb)], [j for _ in range(na) for j in range(nb)]]}


def _check_quotient_cli(out, ctx):
    ux, blocks = ctx
    data = _result(out)
    if data is None or sorted(data['classes']) != sorted(blocks):
        return False
    classes = data['classes']
    q = data['class_map']
    if any(q[x] != k for k, block in enumerate(classes) for x in block):
        return False
    k = len(classes)
    opens = [s for s in range(1 << k)
             if oracle.is_open(ux, oracle.mask_of(x for x in range(len(ux)) if s >> q[x] & 1))]
    return data['topology'] == _system_json(k, opens)


def _check_net_cli(out, ctx):
    ux, up, values = ctx
    tails = [oracle.mask_of(values[j] for j in oracle.points(u)) for u in up]
    n = len(ux)
    limits = [x for x in range(n) if any(t & ~ux[x] == 0 for t in tails)]
    cluster = [x for x in range(n) if all(t & ux[x] for t in tails)]
    return _result(out) == {'limits': limits, 'cluster': cluster}


def _check_invert_cli(out, ctx):
    coeffs, w, tol = ctx
    data = _result(out)
    if data is None:
        return False
    r = Fraction(data['fraction'])
    return (oracle.dyadic(data['result']) == r and 0 <= r <= 2
            and _poly(coeffs, r) <= w <= _poly(coeffs, r + tol))


def _check_cs_cli(out, ctx):
    xs, ys = ctx
    data = _result(out)
    diffs = [x - y for x, y in zip(xs, ys)]
    return (data is not None and data['cauchy_schwarz'] is True and data['sandwich'] is True
            and oracle.dyadic(data['dmax_sq']) == max(abs(v) for v in diffs) ** 2
            and oracle.dyadic(data['e_sq']) == sum(v * v for v in diffs))


def _check_series_cli(out, ctx):
    x, m = ctx
    data = _result(out)
    want = (1 - x ** (m + 1)) / (1 - x)
    return (data is not None and Fraction(data['fraction']) == want
            and oracle.dyadic(data['sum']) == want)


def _check_typed_error(out, ctx):
    data = _result(out, status=1)
    return data is not None and isinstance(data.get('error'), str)


def _check_root_cli(out, ctx):
    a, m, tol = ctx
    data = _result(out)
    if data is None:
        return False
    r = Fraction(data['fraction'])
    return oracle.dyadic(data['root']) == r and r ** m <= a < (r + tol) ** m


def _check_verify_cli(out, ctx):
    data = _result(out)
    return data is not None and data['failed'] == 0 and data['passed'] == data['total'] > 0


WORKLOADS = {
    'continuity-sweep': ContinuitySweep,
    'dense-spaces': DenseSpaces,
    'census': Census,
    'cli-mix': CliMix,
}
