"""The `topo` command line tool.

Verbs: enumerate, generate, analyze, filter, cont, product, quotient,
root, series, check, verify.  Output is canonical JSON (default) or a
plain table; exit status is 0 on success, 1 on a typed domain error
(with the error name in the output), 2 on usage or parse errors.
"""

import argparse
import functools
import json
import sys

from . import jsonio, verify
from .closure import analyze_subset
from .continuity import (SpaceMap, are_homeomorphic, continuity_characterizations,
                         filter_continuity_at, is_continuous, is_continuous_at,
                         map_open_closed)
from .convergence import net_limits, net_cluster_points
from .errors import DomainError, EmptyArgument, UniverseMismatch
from .filters import (extend_to_ultrafilter, generate_filter, image_filter,
                      inverse_image_filter, supremum_filter)
from .generated import (direct_image_topology, inverse_image_topology,
                        product_topology, quotient_topology, rows_from_partition)
from .metric import PseudoMetric, distance_to_set, metric_topology, validate_pseudometric
from .neighborhoods import (neighborhood_base_from_topological_base,
                            topology_from_neighborhood_base,
                            topology_from_neighborhoods, topology_from_set_map)
from .closure import topology_from_closure_operator, topology_from_interior_operator
from .numeric import (Dyadic, DyadicPoly, bisection_invert, finite_series,
                      geometric_limit, geometric_partial_sum, metric_compare, mth_root)
from .order import interval_topology, one_sided_topology, relation_properties
from .setops import mask_of, points_of
from .topology import (enumerate_topologies, generate_from_base, generate_from_subbase,
                       topology_from_closed_system)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _parse_set(text):
    text = text.strip()
    if text.startswith('['):
        return json.loads(text)
    if not text:
        return []
    return [int(p) for p in text.split(',')]


def _emit(data, fmt):
    if fmt == 'json':
        print(jsonio.dumps(data))
    else:
        _emit_table(data)


def _emit_table(data, indent=''):
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                print('%s%s:' % (indent, k))
                _emit_table(v, indent + '  ')
            else:
                print('%s%s: %s' % (indent, k, v))
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _emit_table(v, indent + '  ')
            else:
                print('%s- %s' % (indent, v))
    else:
        print('%s%s' % (indent, data))


def cmd_enumerate(args):
    if args.count_only:
        return {'n': args.n, 'count': enumerate_topologies(args.n, count_only=True)}
    tops = enumerate_topologies(args.n)
    return {'n': args.n, 'count': len(tops),
            'topologies': [jsonio.topology_to_json(t) for t in tops]}


def cmd_generate(args):
    if args.side and not args.interval:
        raise UsageError("--side needs --interval")
    if args.direct and not args.family:
        raise UsageError("--direct needs --family")
    if args.base:
        t = generate_from_base(jsonio.system_from_json(_load(args.base)))
    elif args.subbase:
        t = generate_from_subbase(jsonio.system_from_json(_load(args.subbase)))
    elif args.closed:
        t = topology_from_closed_system(jsonio.system_from_json(_load(args.closed)))
    elif args.neighborhoods:
        t = topology_from_neighborhoods(jsonio.relation_from_json(_load(args.neighborhoods)))
    elif args.neighborhood_base:
        t = topology_from_neighborhood_base(jsonio.relation_from_json(_load(args.neighborhood_base)))
    elif args.set_map:
        t = topology_from_set_map(jsonio.set_map_from_json(_load(args.set_map)))
    elif args.closure_op:
        t = topology_from_closure_operator(jsonio.operator_from_json(_load(args.closure_op)))
    elif args.interior_op:
        t = topology_from_interior_operator(jsonio.operator_from_json(_load(args.interior_op)))
    elif args.metric:
        t = metric_topology(PseudoMetric(jsonio.matrix_from_json(_load(args.metric))))
    elif args.interval:
        p = jsonio.preorder_from_json(_load(args.interval))
        t = one_sided_topology(p, args.side) if args.side else interval_topology(p)
    elif args.family:
        data = _load(args.family)
        n = data['n']
        pairs = []
        for member in data['members']:
            t_i = jsonio.topology_from_json(member['space'])
            if args.direct:
                f = jsonio.map_from_json(member['map'], n_src=t_i.n, n_dst=n)
            else:
                f = jsonio.map_from_json(member['map'], n_src=n, n_dst=t_i.n)
            pairs.append((f, t_i))
        if args.direct:
            t = direct_image_topology(n, pairs)
        else:
            t = inverse_image_topology(n, pairs)
    else:
        raise UsageError("generate needs an input option")
    return jsonio.topology_to_json(t)


def cmd_analyze(args):
    if args.preorder and args.set is not None:
        raise UsageError("--set needs --space or --metric")
    if args.preorder:
        p = jsonio.preorder_from_json(_load(args.preorder))
        return {'properties': relation_properties(p)}
    if args.set is None:
        raise UsageError("analyze --%s needs --set" % ('metric' if args.metric else 'space'))
    if args.metric:
        m = PseudoMetric(jsonio.matrix_from_json(_load(args.metric)))
        a = mask_of(_parse_set(args.set), m.n)
        if a == 0:
            raise EmptyArgument("distance to the empty set is undefined")
        return {'distances': [jsonio.fraction_to_str(v) for v in distance_to_set(m, a)]}
    t = jsonio.topology_from_json(_load(args.space))
    a = mask_of(_parse_set(args.set), t.n)
    report = analyze_subset(t, a)
    return {
        'set': points_of(a),
        'interior': points_of(report['interior']),
        'closure': points_of(report['closure']),
        'derived': points_of(report['derived']),
        'boundary': points_of(report['boundary']),
        'dense': report['dense'],
    }


def _filter_json(f):
    return {'filter': jsonio.system_to_json(f.members), 'core': points_of(f.core())}


# the options each filter op reads; all but --target-n are required
FILTER_OPTIONS = {
    'generate': ('base',), 'ultra': ('base',), 'extend': ('base',), 'sup': ('bases',),
    'image': ('base', 'map', 'target_n'), 'inverse-image': ('base', 'map', 'target_n'),
}


def cmd_filter(args):
    reads = FILTER_OPTIONS[args.op]
    for name in ('base', 'bases', 'map', 'target_n'):
        option = '--' + name.replace('_', '-')
        given = getattr(args, name) is not None
        if given and name not in reads:
            raise UsageError("filter --op %s does not read %s" % (args.op, option))
        if not given and name in reads and name != 'target_n':
            raise UsageError("filter --op %s needs %s" % (args.op, option))
    if args.op == 'generate':
        f = generate_filter(jsonio.system_from_json(_load(args.base)))
        return _filter_json(f)
    if args.op == 'ultra':
        f = generate_filter(jsonio.system_from_json(_load(args.base)))
        return {'ultrafilter': f.is_ultrafilter()}
    if args.op == 'extend':
        f = extend_to_ultrafilter(jsonio.system_from_json(_load(args.base)))
        return _filter_json(f)
    if args.op == 'sup':
        bases = [jsonio.system_from_json(d) for d in _load(args.bases)]
        # each base's carrier is checked before the base itself
        filters = []
        for base in bases:
            if base.n != bases[0].n:
                raise UniverseMismatch("filter bases on different carriers")
            filters.append(generate_filter(base))
        return _filter_json(supremum_filter(filters))
    base = jsonio.system_from_json(_load(args.base))
    f0 = generate_filter(base)
    mp = _load(args.map)
    # without --target-n the other carrier is read off the map
    if args.op == 'image':
        n = max(mp['f'], default=-1) + 1 if args.target_n is None else args.target_n
        return _filter_json(image_filter(jsonio.map_from_json(mp, base.n, n), f0))
    n = len(mp['f']) if args.target_n is None else args.target_n
    return _filter_json(inverse_image_filter(jsonio.map_from_json(mp, n, base.n), f0))


def cmd_cont(args):
    if args.homeo and (args.at is not None or args.fx or args.fy):
        raise UsageError("--at, --fx and --fy need --map")
    if args.fx and not args.fy:
        raise UsageError("--fx needs --fy")
    if args.fy and not args.fx:
        raise UsageError("--fy needs --fx")
    src = jsonio.topology_from_json(_load(args.src))
    dst = jsonio.topology_from_json(_load(args.dst))
    if args.homeo:
        witness = are_homeomorphic(src, dst)
        return {'homeomorphic': witness is not None,
                'witness': list(witness.images) if witness else None}
    f = jsonio.map_from_json(_load(args.map), n_src=src.n, n_dst=dst.n)
    m = SpaceMap(src, dst, f)
    if args.fx:
        if args.at is None:
            raise UsageError("--fx and --fy need --at")
        fx = generate_filter(jsonio.system_from_json(_load(args.fx)))
        fy = generate_filter(jsonio.system_from_json(_load(args.fy)))
        return {'filter_continuous_at': filter_continuity_at(fx, fy, m, args.at)}
    if args.at is not None:
        return {'continuous_at': is_continuous_at(m, args.at), 'point': args.at}
    op, cl = map_open_closed(m)
    return {'continuous': is_continuous(m),
            'characterizations': continuity_characterizations(m),
            'open': op, 'closed': cl}


def cmd_product(args):
    tops = [jsonio.topology_from_json(_load(p)) for p in args.spaces]
    t, projs = product_topology(tops)
    return {'topology': jsonio.topology_to_json(t),
            'projections': [list(p.images) for p in projs]}


def cmd_quotient(args):
    t = jsonio.topology_from_json(_load(args.space))
    blocks = _load(args.classes)
    rows = rows_from_partition(t.n, blocks)
    qt, q, classes = quotient_topology(t, rows)
    return {'topology': jsonio.topology_to_json(qt),
            'class_map': list(q.images),
            'classes': [points_of(c) for c in classes]}


def cmd_root(args):
    r = mth_root(Dyadic.parse(args.a), args.m, Dyadic.parse(args.tol))
    return {'root': str(r), 'fraction': jsonio.fraction_to_str(r.to_fraction())}


def cmd_series(args):
    if args.geom is not None:
        if args.start is not None or args.end is not None:
            raise UsageError("--start and --end need --xs")
        x = Dyadic.parse(args.geom)
        if args.limit:
            if args.terms is not None:
                raise UsageError("--limit excludes --terms")
            v = geometric_limit(x)
            return {'limit': str(v)}
        s = geometric_partial_sum(x, 10 if args.terms is None else args.terms)
        return {'sum': str(s), 'fraction': jsonio.fraction_to_str(s.to_fraction())}
    if args.terms is not None or args.limit:
        raise UsageError("--terms and --limit need --geom")
    xs = [jsonio.dyadic_from_json(v) for v in _load(args.xs)]
    s = finite_series(xs, 1 if args.start is None else args.start,
                      1 if args.end is None else args.end)
    return {'sum': str(s), 'fraction': jsonio.fraction_to_str(s.to_fraction())}


def cmd_check(args):
    if args.space and not (args.base or args.net):
        raise UsageError("--space needs --base or --net")
    if args.cauchy_schwarz:
        data = _load(args.cauchy_schwarz)
        xs = [jsonio.dyadic_from_json(v) for v in data['x']]
        ys = [jsonio.dyadic_from_json(v) for v in data['y']]
        rep = metric_compare(xs, ys)
        return {'cauchy_schwarz': rep['cauchy_schwarz'],
                'dmax_sq': str(rep['dmax_sq']), 'e_sq': str(rep['e_sq']),
                'sandwich': rep['lower_ok'] and rep['upper_ok']}
    if args.metric:
        kind, witness = validate_pseudometric(jsonio.matrix_from_json(_load(args.metric)))
        out = {'classification': kind, 'reason': None, 'witness': None}
        if kind == 'invalid':
            out['reason'] = witness[0]
            out['witness'] = list(witness[1]) if isinstance(witness[1], tuple) else witness[1]
        return out
    if args.base and args.space:
        t = jsonio.topology_from_json(_load(args.space))
        base = jsonio.system_from_json(_load(args.base))
        rel = neighborhood_base_from_topological_base(base, t)
        return {'neighborhood_base': jsonio.relation_to_json(rel)}
    if args.net and args.space:
        t = jsonio.topology_from_json(_load(args.space))
        net = jsonio.net_from_json(_load(args.net), t.n)
        return {'limits': points_of(net_limits(t, net)),
                'cluster': points_of(net_cluster_points(t, net))}
    if args.invert:
        data = _load(args.invert)
        p = DyadicPoly([jsonio.dyadic_from_json(c) for c in data['poly']])
        a, b, w, tol = [jsonio.dyadic_from_json(data[k]) for k in ('a', 'b', 'w', 'tol')]
        r = bisection_invert(p, a, b, w, tol)
        return {'result': str(r), 'fraction': jsonio.fraction_to_str(r.to_fraction())}
    raise UsageError("check --base and --net need --space")


def cmd_verify(args):
    return verify.run_suite(args.suite, args.n)


class UsageError(Exception):
    pass


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    main call: parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(prog='topo',
                                 description='exact finite point-set topology engine')
    ap.add_argument('--format', choices=['json', 'table'], default='json')
    sub = ap.add_subparsers(dest='verb', required=True)

    p = sub.add_parser('enumerate', help='enumerate all topologies on n points')
    p.add_argument('--n', type=int, required=True)
    p.add_argument('--count-only', action='store_true')
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser('generate', help='generate a topology from a description')
    source = p.add_mutually_exclusive_group()
    source.add_argument('--base')
    source.add_argument('--subbase')
    source.add_argument('--closed')
    source.add_argument('--neighborhoods')
    source.add_argument('--neighborhood-base')
    source.add_argument('--set-map')
    source.add_argument('--closure-op')
    source.add_argument('--interior-op')
    source.add_argument('--metric')
    source.add_argument('--interval')
    source.add_argument('--family')
    p.add_argument('--side', choices=['lower', 'upper'])
    p.add_argument('--direct', action='store_true')
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser('analyze', help='interior/closure/derived/boundary of a set')
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument('--space')
    source.add_argument('--preorder')
    source.add_argument('--metric')
    p.add_argument('--set')
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser('filter', help='filter operations')
    p.add_argument('--op', required=True, choices=FILTER_OPTIONS)
    p.add_argument('--base')
    p.add_argument('--bases')
    p.add_argument('--map')
    p.add_argument('--target-n', type=int)
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser('cont', help='continuity of a map between spaces')
    p.add_argument('--src', required=True)
    p.add_argument('--dst', required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument('--map')
    source.add_argument('--homeo', action='store_true')
    p.add_argument('--at', type=int)
    p.add_argument('--fx')
    p.add_argument('--fy')
    p.set_defaults(fn=cmd_cont)

    p = sub.add_parser('product', help='product topology of spaces')
    p.add_argument('spaces', nargs='+')
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser('quotient', help='quotient topology by a partition')
    p.add_argument('--space', required=True)
    p.add_argument('--classes', required=True)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser('root', help='dyadic m-th root by bisection')
    p.add_argument('--a', required=True)
    p.add_argument('--m', type=int, required=True)
    p.add_argument('--tol', required=True)
    p.set_defaults(fn=cmd_root)

    p = sub.add_parser('series', help='exact finite and geometric series')
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument('--geom')
    source.add_argument('--xs')
    # --terms defaults to 10, and --start and --end to 1
    p.add_argument('--terms', type=int)
    p.add_argument('--limit', action='store_true')
    p.add_argument('--start', type=int)
    p.add_argument('--end', type=int)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser('check', help='exact numeric and structural checks')
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument('--cauchy-schwarz')
    source.add_argument('--metric')
    source.add_argument('--base')
    source.add_argument('--net')
    source.add_argument('--invert')
    p.add_argument('--space')
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser('verify', help='run a module invariant suite')
    p.add_argument('--suite', required=True, choices=verify.SUITES)
    p.add_argument('--n', type=int, default=3)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        result = args.fn(args)
    except DomainError as exc:
        _emit(exc.payload(), args.format)
        return 1
    except UsageError as exc:
        print('usage error: %s' % exc, file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print('input error: %s' % exc, file=sys.stderr)
        return 2
    _emit(result, args.format)
    if args.verb == 'verify' and result.get('failed'):
        return 1
    return 0


def entry():
    sys.exit(main())


if __name__ == '__main__':
    entry()
