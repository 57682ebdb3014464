"""Canonical JSON encoding/decoding for all domain objects.

Subsets are sorted point-index arrays; every dump is deterministic
(sorted keys, fixed separators), so identical inputs give byte-identical
output.
"""

import json
from fractions import Fraction

from .closure import SubsetOperator
from .convergence import DirectedSet, Net
from .errors import UniverseMismatch
from .neighborhoods import SetNeighborhoodMap
from .numeric import Dyadic, decimal_digits, decimal_fraction
from .order import Preorder
from .setops import FiniteMap, PointSetRelation, SetSystem, check_carrier, mask_of, points_of
from .topology import Topology


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(',', ':'))


def system_to_json(system):
    return {'n': system.n, 'sets': [points_of(m) for m in system]}


def system_from_json(data):
    """{"n": n, "sets": [[point, ...], ...]}, each set a list of points."""
    n = data['n']
    return SetSystem(n, [mask_of(s, n) for s in data['sets']])


def topology_to_json(t):
    return system_to_json(t.opens)


def topology_from_json(data):
    """The opens as system_from_json reads them: {"n": n, "sets": [...]}."""
    system = system_from_json(data)
    return Topology(system.n, system)


def relation_to_json(rel):
    return {'n': rel.n, 'pairs': [[x, points_of(m)] for x, m in rel.pairs]}


def relation_from_json(data):
    """{"n": n, "pairs": [[x, [point, ...]], ...]}: point x related to each set."""
    n = data['n']
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


def set_map_from_json(data):
    """{"n": n, "table": [[A, [set, ...]], ...]}, sets as point lists, every subset A once."""
    return SetNeighborhoodMap(*_subset_table(
        data, lambda sets, n: SetSystem(n, [mask_of(u, n) for u in sets]),
        "set map table must cover every subset"))


def operator_from_json(data):
    """{"n": n, "table": [[A, image of A], ...]}, sets as point lists, every subset A once."""
    return SubsetOperator(*_subset_table(data, mask_of, "operator table must cover every subset"))


def map_from_json(data, n_src, n_dst):
    """{"f": [f(0), f(1), ...]}, the image of each source point."""
    return FiniteMap(n_src, n_dst, data['f'])


def net_from_json(data, n):
    """{"domain": {"n": k, "leq": [[i, j], ...]}, "values": [point, ...]}, a point per index."""
    dom = data['domain']
    domain = DirectedSet(dom['n'], [tuple(p) for p in dom['leq']])
    return Net(domain, data['values'], n)


def fraction_to_str(fr):
    fr = Fraction(fr)
    if fr.denominator == 1:
        return decimal_digits(fr.numerator)
    return '%s/%s' % (decimal_digits(fr.numerator), decimal_digits(fr.denominator))


def metric_to_json(m):
    return {'n': m.n, 'd': [[fraction_to_str(v) for v in row] for row in m.d]}


def number_from_json(v):
    """A JSON number, read exactly, or a decimal or fraction string, as a
    Fraction; a zero denominator or an infinite float is a ValueError."""
    try:
        return decimal_fraction(v) if isinstance(v, str) else Fraction(v)
    except (ZeroDivisionError, OverflowError):
        raise ValueError("%r is not a finite number" % (v,)) from None


def dyadic_from_json(v):
    """A JSON number, read exactly, or a string Dyadic.parse reads."""
    return Dyadic.parse(v) if isinstance(v, str) else Dyadic.from_fraction(number_from_json(v))


def matrix_from_json(data):
    """{"n": n, "d": [[d(0, 0), d(0, 1), ...], ...]}, entries as number_from_json reads them:
    the n rows of Fractions, unchecked beyond their count."""
    rows = [[number_from_json(v) for v in row] for row in data['d']]
    if len(rows) != data['n']:
        raise UniverseMismatch("matrix size does not match n")
    return rows


def preorder_from_json(data):
    """{"n": n, "pairs": [[i, j], ...], "flavor": "strict" or "reflexive"}, i rel j."""
    return Preorder(data['n'], [tuple(q) for q in data['pairs']], data['flavor'])
