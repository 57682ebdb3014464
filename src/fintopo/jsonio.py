"""Canonical JSON encoding/decoding for all domain objects.

Subsets are sorted point-index arrays; every dump is deterministic
(sorted keys, fixed separators), so identical inputs give byte-identical
output.

The first line of a reader's docstring is the shape of the JSON it
reads, checked before it reads: a departure is an InputError naming the
shape, the path to the value and what was expected there.  A shape is
JSON with, in place of values, int (a JSON integer, not true or false),
number (a JSON number or a string), text (a string) or the name of
another reader's shape.  [x, ...] is a list of x, [x, y] a list of
exactly two, and an object needs the keys shown and may hold others.
Each shape is compiled once per reader, on the reader's first call,
into a nest of checker functions, so a value is not checked by walking
the shape again.
"""

import functools
import json
import re
from fractions import Fraction
from itertools import repeat

from .closure import SubsetOperator
from .convergence import DirectedSet, Net
from .errors import InputError, UniverseMismatch
from .generated import rows_from_partition
from .neighborhoods import SetNeighborhoodMap
from .numeric import Dyadic, DyadicPoly, decimal_digits, decimal_fraction, decimal_int
from .order import Preorder
from .setops import FiniteMap, PointSetRelation, SetSystem, check_carrier, mask_of, points_of
from .topology import Topology

SHAPES = {}  # each reader's shape by name, parsed from its docstring

# the JSON types each leaf of a shape accepts, and its name in a message
LEAVES = {'int': ({int}, 'an integer'), 'number': ({int, float, str}, 'a number or a string'),
          'text': ({str}, 'a string')}


def reads(name):
    """Register the decorated reader's shape under name, and check the
    reader's first argument against it on every call, by a checker
    compiled from the shape on the first call.  An InputError of the
    reader itself, for a value of the right type, names the shape too."""
    def register(reader):
        SHAPES[name] = json.loads(re.sub(  # each bare word and ... quoted
            r'"[^"]*"|(\w+|\.\.\.)', lambda m: '"%s"' % m[1] if m[1] else m[0],
            reader.__doc__.split('\n')[0]))
        check = None

        @functools.wraps(reader)
        def checked(data, *args):
            nonlocal check
            if check is None:
                check = _checker(name)
            found = check(data)
            if found:
                raise InputError('%s: expected %s at $%s' % (name, found[1], found[0]))
            try:
                return reader(data, *args)
            except InputError as exc:
                raise InputError('%s: %s' % (name, exc)) from None
        return checked
    return register


def _checker(shape):
    """A function of a value that returns (path, what the shape expects
    there) where the value first departs from the shape, or None.  A
    missing key reads as null.  A list of leaves is checked in one pass
    over its types."""
    while isinstance(shape, str) and shape in SHAPES:
        shape = SHAPES[shape]
    if isinstance(shape, str):
        types, what = LEAVES[shape]
        return lambda value: None if type(value) in types else ('', what)
    if isinstance(shape, dict):
        keys = [(k, '.' + k, _checker(sub)) for k, sub in shape.items()]

        def check(value):
            if type(value) is not dict:
                return '', 'an object'
            for key, path, sub in keys:
                found = sub(value.get(key))
                if found:
                    return path + found[0], found[1]
            return None
        return check
    many = shape[-1] == '...'
    if many and isinstance(shape[0], str) and shape[0] in LEAVES:
        types, what = LEAVES[shape[0]]

        def check(value):
            if type(value) is not list:
                return '', 'a list'
            if set(map(type, value)) <= types:
                return None
            return '[%d]' % next(i for i, v in enumerate(value) if type(v) not in types), what
        return check
    subs = [_checker(sub) for sub in (shape[:1] if many else shape)]
    expected = 'a list' if many else 'a list of %d' % len(shape)

    def check(value):
        if type(value) is not list or not many and len(value) != len(subs):
            return '', expected
        for i, (v, sub) in enumerate(zip(value, repeat(subs[0]) if many else subs)):
            found = sub(v)
            if found:
                return '[%d]' % i + found[0], found[1]
        return None
    return check


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(',', ':'))


def loads(data):
    """The JSON value of a text, or of bytes read as UTF-8: bytes that are
    not UTF-8 and text that is not JSON are an InputError."""
    try:
        return json.loads(data.decode() if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise InputError(str(exc)) from None


@reads('set')
def points_from_json(data, n):
    """[int, ...]
    The mask of the points on the carrier of size n."""
    return mask_of(data, n)


def set_from_text(text, n):
    """points_from_json of a JSON list, or of points in decimal joined by
    commas ('' for none)."""
    text = text.strip()
    if text.startswith('['):
        return points_from_json(loads(text), n)
    return mask_of([decimal_int(p) for p in text.split(',')] if text else [], n)


def system_to_json(system):
    return {'n': system.n, 'sets': [points_of(m) for m in system]}


def _system(data):
    n = data['n']
    check_carrier(n)
    return SetSystem(n, [mask_of(s, n) for s in data['sets']])


@reads('system')
def system_from_json(data):
    """{"n": int, "sets": [set, ...]}"""
    return _system(data)


def topology_to_json(t):
    return system_to_json(t.opens)


@reads('space')
def topology_from_json(data):
    """system
    The opens."""
    system = _system(data)
    return Topology(system.n, system)


@reads('bases')
def bases_from_json(data):
    """[system, ...]"""
    return [_system(d) for d in data]


def relation_to_json(rel):
    return {'n': rel.n, 'pairs': [[x, points_of(m)] for x, m in rel.pairs]}


@reads('relation')
def relation_from_json(data):
    """{"n": int, "pairs": [[int, set], ...]}
    Point x related to each set."""
    n = data['n']
    check_carrier(n)
    return PointSetRelation(n, [(x, mask_of(s, n)) for x, s in data['pairs']])


def _subset_table(data, read, missing):
    """(n, table) from {"n": n, "table": [[A, value], ...]}: n checked as a
    carrier before the 2^n slots are made, each value read(value, n), and
    a subset left out a UniverseMismatch with the message missing."""
    n = data['n']
    check_carrier(n)
    table = [None] * (1 << n)
    for a_arr, value in data['table']:
        table[mask_of(a_arr, n)] = read(value, n)
    if any(v is None for v in table):
        raise UniverseMismatch(missing)
    return n, table


@reads('set map')
def set_map_from_json(data):
    """{"n": int, "table": [[set, [set, ...]], ...]}
    Every subset A once, with the sets M(A)."""
    return SetNeighborhoodMap(*_subset_table(
        data, lambda sets, n: SetSystem(n, [mask_of(u, n) for u in sets]),
        "set map table must cover every subset"))


@reads('operator')
def operator_from_json(data):
    """{"n": int, "table": [[set, set], ...]}
    Every subset once, with its image."""
    return SubsetOperator(*_subset_table(data, mask_of, "operator table must cover every subset"))


@reads('map')
def map_from_json(data, n_src, n_dst):
    """{"f": [int, ...]}
    The image of each source point.  An n_src of None is the number of
    images, and an n_dst of None one more than the greatest image."""
    images = data['f']
    return FiniteMap(len(images) if n_src is None else n_src,
                     max(images, default=-1) + 1 if n_dst is None else n_dst, images)


@reads('family')
def family_from_json(data, direct):
    """{"n": int, "members": [{"space": space, "map": map}, ...]}
    (n, [(map, space), ...]), each map from its space into the carrier
    of size n if direct, else the other way."""
    n = data['n']
    pairs = []
    for member in data['members']:
        t = topology_from_json(member['space'])
        pairs.append((map_from_json(member['map'], *((t.n, n) if direct else (n, t.n))), t))
    return n, pairs


@reads('classes')
def partition_from_json(data, n):
    """[set, ...]
    The rows of the equivalence on the carrier of size n."""
    return rows_from_partition(n, data)


@reads('net')
def net_from_json(data, n):
    """{"domain": {"n": int, "leq": [[int, int], ...]}, "values": [int, ...]}
    A point of the carrier of size n per domain element, i leq j per
    pair.  The values are counted first: a domain costs no more than they."""
    dom, values = data['domain'], data['values']
    if len(values) != dom['n']:
        raise UniverseMismatch("need one value per domain element")
    return Net(DirectedSet(dom['n'], [tuple(p) for p in dom['leq']]), values, n)


def fraction_to_str(fr):
    fr = Fraction(fr)
    if fr.denominator == 1:
        return decimal_digits(fr.numerator)
    return '%s/%s' % (decimal_digits(fr.numerator), decimal_digits(fr.denominator))


def metric_to_json(m):
    return {'n': m.n, 'd': [[fraction_to_str(v) for v in row] for row in m.d]}


def number_from_json(v):
    """A JSON number, read exactly, or a decimal or fraction string, as a
    Fraction; a zero denominator or an infinite or NaN float is an
    InputError."""
    if isinstance(v, str):
        return decimal_fraction(v)
    try:
        return Fraction(v)
    except (OverflowError, ValueError):
        raise InputError("%r is not a finite number" % (v,)) from None


def dyadic_from_json(v):
    """A JSON number, read exactly, or a string Dyadic.parse reads."""
    return Dyadic.parse(v) if isinstance(v, str) else Dyadic.from_fraction(number_from_json(v))


@reads('dyadics')
def dyadics_from_json(data):
    """[number, ...]
    Each as dyadic_from_json reads it."""
    return [dyadic_from_json(v) for v in data]


@reads('vectors')
def vectors_from_json(data):
    """{"x": dyadics, "y": dyadics}"""
    return dyadics_from_json(data['x']), dyadics_from_json(data['y'])


@reads('inversion')
def inversion_from_json(data):
    """{"poly": dyadics, "a": number, "b": number, "w": number, "tol": number}
    (p, a, b, w, tol) for bisection_invert, p's coefficients in ascending
    degree, each number as dyadic_from_json reads it."""
    return (DyadicPoly(dyadics_from_json(data['poly'])),
            *[dyadic_from_json(data[k]) for k in ('a', 'b', 'w', 'tol')])


@reads('matrix')
def matrix_from_json(data):
    """{"n": int, "d": [[number, ...], ...]}
    The n rows of Fractions, entries as number_from_json reads them,
    unchecked beyond their count."""
    rows = [[number_from_json(v) for v in row] for row in data['d']]
    if len(rows) != data['n']:
        raise UniverseMismatch("matrix size does not match n")
    return rows


@reads('preorder')
def preorder_from_json(data):
    """{"n": int, "pairs": [[int, int], ...], "flavor": text}
    i rel j for each pair [i, j]; the flavor is "strict" or "reflexive"."""
    return Preorder(data['n'], [tuple(q) for q in data['pairs']], data['flavor'])
