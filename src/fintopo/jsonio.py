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
from .numeric import decimal_digits, decimal_fraction
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


def set_map_from_json(data):
    """{"n": n, "table": [[A, [set, ...]], ...]}, sets as point lists, every subset A once."""
    n = data['n']
    check_carrier(n)
    table = [None] * (1 << n)
    for a_arr, systems in data['table']:
        table[mask_of(a_arr, n)] = SetSystem(n, [mask_of(u, n) for u in systems])
    if any(v is None for v in table):
        raise UniverseMismatch("set map table must cover every subset")
    return SetNeighborhoodMap(n, table)


def operator_from_json(data):
    """{"n": n, "table": [[A, image of A], ...]}, sets as point lists, every subset A once."""
    n = data['n']
    check_carrier(n)
    table = [None] * (1 << n)
    for a_arr, v_arr in data['table']:
        table[mask_of(a_arr, n)] = mask_of(v_arr, n)
    if any(v is None for v in table):
        raise UniverseMismatch("operator table must cover every subset")
    return SubsetOperator(n, table)


def map_from_json(data, n_src=None, n_dst=None):
    """{"f": [f(0), f(1), ...]}, the image of each source point."""
    images = data['f']
    if n_src is None:
        n_src = len(images)
    if n_dst is None:
        n_dst = (max(images) + 1) if images else 0
    return FiniteMap(n_src, n_dst, images)


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


def matrix_from_json(data):
    """{"n": n, "d": [[d(0, 0), d(0, 1), ...], ...]}, numbers or decimal or fraction strings,
    read exactly: the n rows of Fractions, unchecked beyond their count."""
    rows = [[decimal_fraction(v) if isinstance(v, str) else Fraction(v) for v in row]
            for row in data['d']]
    if len(rows) != data['n']:
        raise UniverseMismatch("matrix size does not match n")
    return rows


def preorder_from_json(data):
    """{"n": n, "pairs": [[i, j], ...], "flavor": "strict" or "reflexive"}, i rel j."""
    return Preorder(data['n'], [tuple(q) for q in data['pairs']], data['flavor'])
