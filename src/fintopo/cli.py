"""The `topo` command line tool.

Verbs: enumerate, generate, analyze, filter, cont, product, quotient,
root, series, check, verify.  Output is canonical JSON (default) or a
plain table.  Exit status is 0 on success, 1 on a typed domain error
(with the error name in the output), and 2 on a usage error or an input
error: a file that cannot be read, is not UTF-8 or is not JSON, or a
value that does not have the shape its jsonio reader states.  Any other
exception is a fault of the program, and is not caught.

The options each input of a verb needs or may read are data, INPUTS and
RULES, and one checker raises every usage error from them.
"""

import argparse
import functools
import sys

from . import jsonio, verify
from .closure import analyze_subset, topology_from_closure_operator, topology_from_interior_operator
from .continuity import (SpaceMap, are_homeomorphic, continuity_characterizations,
                         filter_continuity_at, is_continuous, is_continuous_at, map_open_closed)
from .convergence import net_cluster_points, net_limits
from .errors import DomainError, EmptyArgument, InputError, UniverseMismatch
from .filters import (extend_to_ultrafilter, generate_filter, image_filter, inverse_image_filter,
                      supremum_filter)
from .generated import (direct_image_topology, inverse_image_topology, product_topology,
                        quotient_topology)
from .metric import PseudoMetric, distance_to_set, metric_topology, validate_pseudometric
from .neighborhoods import (neighborhood_base_from_topological_base,
                            topology_from_neighborhood_base, topology_from_neighborhoods,
                            topology_from_set_map)
from .numeric import (Dyadic, bisection_invert, decimal_digits, finite_series, geometric_limit,
                      geometric_partial_sum, metric_compare, mth_root)
from .order import interval_topology, one_sided_topology, relation_properties
from .setops import points_of
from .topology import (enumerate_topologies, generate_from_base, generate_from_subbase,
                       topology_from_closed_system)

# For each verb with a choice of input, what each input needs and what it
# may also read, as 'needs | may read'; it refuses every other option of
# the verb.  An input is the option given from the verb's exclusive
# group, or filter's --op.  Options are named as argparse stores them.
INPUTS = {
    'generate': {'base': '', 'subbase': '', 'closed': '', 'neighborhoods': '',
                 'neighborhood_base': '', 'set_map': '', 'closure_op': '', 'interior_op': '',
                 'metric': '', 'interval': '| side', 'family': '| direct'},
    'analyze': {'space': 'set', 'preorder': '', 'metric': 'set'},
    'filter': {'generate': 'base', 'ultra': 'base', 'extend': 'base', 'sup': 'bases',
               'image': 'base map | target_n', 'inverse-image': 'base map | target_n'},
    'cont': {'map': '| at fx fy', 'homeo': ''},
    'series': {'geom': '| terms limit', 'xs': '| start end'},
    'check': {'cauchy_schwarz': '', 'metric': '', 'base': 'space', 'net': 'space', 'invert': ''},
}

# the options that the inputs of each verb need or may read, in order
OPTIONS = {verb: list(dict.fromkeys(' '.join(inputs.values()).replace('|', ' ').split()))
           for verb, inputs in INPUTS.items()}

# What a given option needs and refuses whatever the input: 'needs | refuses'.
RULES = {'cont': {'fx': 'fy at', 'fy': 'fx at'}, 'series': {'limit': '| terms'}}

# The arguments of INPUTS that are not a file name or a text.  Given means
# not None, so that 0 is a value and a flag is None when absent.
KINDS = {'side': {'choices': ['lower', 'upper']},
         **dict.fromkeys(['at', 'target_n', 'terms', 'start', 'end'], {'type': int}),
         **dict.fromkeys(['homeo', 'direct', 'limit'], {'action': 'store_true', 'default': None})}

# generate's inputs, each a function of its loaded file and the options.
# Every name is looked up at call time, where a tracer may have replaced it.
GENERATE = {
    'base': lambda d, a: generate_from_base(jsonio.system_from_json(d)),
    'subbase': lambda d, a: generate_from_subbase(jsonio.system_from_json(d)),
    'closed': lambda d, a: topology_from_closed_system(jsonio.system_from_json(d)),
    'neighborhoods': lambda d, a: topology_from_neighborhoods(jsonio.relation_from_json(d)),
    'neighborhood_base':
        lambda d, a: topology_from_neighborhood_base(jsonio.relation_from_json(d)),
    'set_map': lambda d, a: topology_from_set_map(jsonio.set_map_from_json(d)),
    'closure_op': lambda d, a: topology_from_closure_operator(jsonio.operator_from_json(d)),
    'interior_op': lambda d, a: topology_from_interior_operator(jsonio.operator_from_json(d)),
    'metric': lambda d, a: metric_topology(PseudoMetric(jsonio.matrix_from_json(d))),
    'interval': lambda d, a: _interval(jsonio.preorder_from_json(d), a.side),
    'family': lambda d, a: (direct_image_topology if a.direct else inverse_image_topology)(
        *jsonio.family_from_json(d, a.direct)),
}


class UsageError(Exception):
    pass


def _flag(name):
    return '--' + name.replace('_', '-')


def _split(spec):
    """The two lists of option names in 'first | second'."""
    first, _, second = spec.partition('|')
    return first.split(), second.split()


def check_options(args):
    """The input of the verb, once every option that the input or a given
    option needs is given and none that it refuses is.  Raises UsageError
    for the first option, in the verb's order, that breaks a rule."""
    inputs = INPUTS.get(args.verb)
    if inputs is None:
        return None
    options = OPTIONS[args.verb]
    given = {o for o in options if getattr(args, o) is not None}
    if args.verb == 'filter':
        source, label = args.op, 'filter --op ' + args.op
    else:
        source = next(k for k in inputs if getattr(args, k) is not None)
        label = '%s %s' % (args.verb, _flag(source))
    needs, reads = _split(inputs[source])
    checks = [(label, needs, [o for o in options if o not in needs + reads])]
    checks += [('%s %s' % (args.verb, _flag(o)), *_split(spec))
               for o, spec in RULES.get(args.verb, {}).items() if o in given]
    for label, needs, refuses in checks:
        for o in options:
            if o in needs and o not in given:
                raise UsageError('%s needs %s' % (label, _flag(o)))
            if o in refuses and o in given:
                raise UsageError('%s does not read %s' % (label, _flag(o)))
    return source


def _load(path):
    with open(path, 'rb') as fh:
        return jsonio.loads(fh.read())


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


def _interval(p, side):
    return one_sided_topology(p, side) if side else interval_topology(p)


def _exact(key, d):
    """d as its dyadic text and as a fraction in lowest terms: m * 2^e
    with m odd (or zero) is the integer m << e for e >= 0, and m / 2^-e
    already in lowest terms otherwise."""
    m, e = d.m, d.e
    fraction = (decimal_digits(m << e) if e >= 0
                else '%s/%s' % (decimal_digits(m), decimal_digits(1 << -e)))
    return {key: str(d), 'fraction': fraction}


def cmd_enumerate(args):
    if args.count_only:
        return {'n': args.n, 'count': enumerate_topologies(args.n, count_only=True)}
    tops = enumerate_topologies(args.n)
    return {'n': args.n, 'count': len(tops),
            'topologies': [jsonio.topology_to_json(t) for t in tops]}


def cmd_generate(args):
    data = _load(getattr(args, args.input))
    return jsonio.topology_to_json(GENERATE[args.input](data, args))


def cmd_analyze(args):
    if args.input == 'preorder':
        return {'properties': relation_properties(jsonio.preorder_from_json(_load(args.preorder)))}
    if args.input == 'metric':
        m = PseudoMetric(jsonio.matrix_from_json(_load(args.metric)))
        a = jsonio.set_from_text(args.set, m.n)
        if a == 0:
            raise EmptyArgument("distance to the empty set is undefined")
        return {'distances': [jsonio.fraction_to_str(v) for v in distance_to_set(m, a)]}
    t = jsonio.topology_from_json(_load(args.space))
    a = jsonio.set_from_text(args.set, t.n)
    report = analyze_subset(t, a)
    return {'set': points_of(a), 'dense': report['dense'],
            **{k: points_of(report[k]) for k in ('interior', 'closure', 'derived', 'boundary')}}


def _filter_json(f):
    return {'filter': jsonio.system_to_json(f.members), 'core': points_of(f.core())}


def cmd_filter(args):
    if args.op == 'sup':
        bases = jsonio.bases_from_json(_load(args.bases))
        # each base's carrier is checked before the base itself
        filters = []
        for base in bases:
            if base.n != bases[0].n:
                raise UniverseMismatch("filter bases on different carriers")
            filters.append(generate_filter(base))
        return _filter_json(supremum_filter(filters))
    base = jsonio.system_from_json(_load(args.base))
    if args.op == 'extend':
        return _filter_json(extend_to_ultrafilter(base))
    f = generate_filter(base)
    if args.op == 'generate':
        return _filter_json(f)
    if args.op == 'ultra':
        return {'ultrafilter': f.is_ultrafilter()}
    # without --target-n the map's other carrier is read off the map
    if args.op == 'image':
        return _filter_json(image_filter(
            jsonio.map_from_json(_load(args.map), base.n, args.target_n), f))
    return _filter_json(inverse_image_filter(
        jsonio.map_from_json(_load(args.map), args.target_n, base.n), f))


def cmd_cont(args):
    src = jsonio.topology_from_json(_load(args.src))
    dst = jsonio.topology_from_json(_load(args.dst))
    if args.homeo:
        witness = are_homeomorphic(src, dst)
        return {'homeomorphic': witness is not None,
                'witness': list(witness.images) if witness else None}
    m = SpaceMap(src, dst, jsonio.map_from_json(_load(args.map), src.n, dst.n))
    if args.fx is not None:
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
    qt, q, classes = quotient_topology(t, jsonio.partition_from_json(_load(args.classes), t.n))
    return {'topology': jsonio.topology_to_json(qt),
            'class_map': list(q.images),
            'classes': [points_of(c) for c in classes]}


def cmd_root(args):
    return _exact('root', mth_root(Dyadic.parse(args.a), args.m, Dyadic.parse(args.tol)))


def cmd_series(args):
    if args.input == 'xs':
        return _exact('sum', finite_series(jsonio.dyadics_from_json(_load(args.xs)),
                                           1 if args.start is None else args.start,
                                           1 if args.end is None else args.end))
    x = Dyadic.parse(args.geom)
    if args.limit:
        return {'limit': str(geometric_limit(x))}
    return _exact('sum', geometric_partial_sum(x, 10 if args.terms is None else args.terms))


def cmd_check(args):
    if args.input == 'cauchy_schwarz':
        rep = metric_compare(*jsonio.vectors_from_json(_load(args.cauchy_schwarz)))
        return {'cauchy_schwarz': rep['cauchy_schwarz'],
                'dmax_sq': str(rep['dmax_sq']), 'e_sq': str(rep['e_sq']),
                'sandwich': rep['lower_ok'] and rep['upper_ok']}
    if args.input == 'metric':
        kind, witness = validate_pseudometric(jsonio.matrix_from_json(_load(args.metric)))
        out = {'classification': kind, 'reason': None, 'witness': None}
        if kind == 'invalid':
            out['reason'] = witness[0]
            out['witness'] = list(witness[1]) if isinstance(witness[1], tuple) else witness[1]
        return out
    if args.input == 'invert':
        return _exact('result', bisection_invert(*jsonio.inversion_from_json(_load(args.invert))))
    t = jsonio.topology_from_json(_load(args.space))
    if args.input == 'base':
        base = jsonio.system_from_json(_load(args.base))
        rel = neighborhood_base_from_topological_base(base, t)
        return {'neighborhood_base': jsonio.relation_to_json(rel)}
    net = jsonio.net_from_json(_load(args.net), t.n)
    return {'limits': points_of(net_limits(t, net)),
            'cluster': points_of(net_cluster_points(t, net))}


def cmd_verify(args):
    return verify.run_suite(args.suite, args.n)


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    main call: parse_args leaves it unchanged.  A verb of INPUTS takes its
    inputs as one required exclusive group, but filter's --op, and then
    the options that they need or read."""
    ap = argparse.ArgumentParser(prog='topo',
                                 description='exact finite point-set topology engine')
    ap.add_argument('--format', choices=['json', 'table'], default='json')
    sub = ap.add_subparsers(dest='verb', required=True)
    verbs = {}
    for verb, fn, text in [
            ('enumerate', cmd_enumerate, 'enumerate all topologies on n points'),
            ('generate', cmd_generate, 'generate a topology from a description'),
            ('analyze', cmd_analyze, 'interior/closure/derived/boundary of a set'),
            ('filter', cmd_filter, 'filter operations'),
            ('cont', cmd_cont, 'continuity of a map between spaces'),
            ('product', cmd_product, 'product topology of spaces'),
            ('quotient', cmd_quotient, 'quotient topology by a partition'),
            ('root', cmd_root, 'dyadic m-th root by bisection'),
            ('series', cmd_series, 'exact finite and geometric series'),
            ('check', cmd_check, 'exact numeric and structural checks'),
            ('verify', cmd_verify, 'run a module invariant suite')]:
        verbs[verb] = sub.add_parser(verb, help=text)
        verbs[verb].set_defaults(fn=fn)

    verbs['enumerate'].add_argument('--n', type=int, required=True)
    verbs['enumerate'].add_argument('--count-only', action='store_true')
    verbs['filter'].add_argument('--op', required=True, choices=INPUTS['filter'])
    verbs['cont'].add_argument('--src', required=True)
    verbs['cont'].add_argument('--dst', required=True)
    for verb, inputs in INPUTS.items():
        if verb != 'filter':
            group = verbs[verb].add_mutually_exclusive_group(required=True)
            for name in inputs:
                group.add_argument(_flag(name), **KINDS.get(name, {}))
        for name in OPTIONS[verb]:
            verbs[verb].add_argument(_flag(name), **KINDS.get(name, {}))
    verbs['product'].add_argument('spaces', nargs='+')
    verbs['quotient'].add_argument('--space', required=True)
    verbs['quotient'].add_argument('--classes', required=True)
    verbs['root'].add_argument('--a', required=True)
    verbs['root'].add_argument('--m', type=int, required=True)
    verbs['root'].add_argument('--tol', required=True)
    verbs['verify'].add_argument('--suite', required=True, choices=verify.SUITES)
    verbs['verify'].add_argument('--n', type=int, default=3)
    ap.verbs = verbs
    return ap


def parse_args(argv):
    """build_parser().parse_args(argv), in one pass of the verb's own
    parser when argv[0] names a verb.  Any other argv goes through the
    top-level parser, and so does one whose errors are the top-level
    parser's: arguments left over, or one starting '--=', an ambiguous
    abbreviation of both its options."""
    ap = build_parser()
    verb = ap.verbs.get(argv[0]) if argv else None
    if verb is not None and not any(a.startswith('--=') for a in argv):
        args, rest = verb.parse_known_args(
            argv[1:], argparse.Namespace(format=ap.get_default('format'), verb=argv[0]))
        if not rest:
            return args
    return ap.parse_args(argv)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        args.input = check_options(args)
        result = args.fn(args)
    except DomainError as exc:
        _emit(exc.payload(), args.format)
        return 1
    except UsageError as exc:
        print('usage error: %s' % exc, file=sys.stderr)
        return 2
    except (OSError, InputError) as exc:
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
