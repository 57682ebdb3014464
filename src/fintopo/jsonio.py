"""Canonical JSON encoding/decoding for all domain objects.

Subsets are sorted point-index arrays; every dump is deterministic
(sorted keys, fixed separators), so identical inputs give byte-identical
output.
"""

import json
from fractions import Fraction

from .closure import SubsetOperator
from .convergence import DirectedSet, EventuallyPeriodicSequence, Net
from .errors import UniverseMismatch
from .metric import PseudoMetric
from .neighborhoods import SetNeighborhoodMap
from .numeric import Dyadic, decimal_digits, decimal_fraction
from .order import Preorder
from .setops import FiniteMap, PointSetRelation, SetSystem, mask_of, points_of
from .topology import Topology


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(',', ':'))


def subset_to_json(mask):
    return points_of(mask)


def subset_from_json(arr, n):
    return mask_of(arr, n)


def system_to_json(system):
    return {'n': system.n, 'sets': [points_of(m) for m in system]}


def system_from_json(data):
    n = data['n']
    return SetSystem(n, [mask_of(s, n) for s in data['sets']])


def topology_to_json(t):
    return system_to_json(t.opens)


def topology_from_json(data):
    system = system_from_json(data)
    return Topology(system.n, system)


def relation_to_json(rel):
    return {'n': rel.n, 'pairs': [[x, points_of(m)] for x, m in rel.pairs]}


def relation_from_json(data):
    n = data['n']
    return PointSetRelation(n, [(x, mask_of(s, n)) for x, s in data['pairs']])


def set_map_to_json(smap):
    return {'n': smap.n,
            'table': [[points_of(a), [points_of(u) for u in smap.table[a]]]
                      for a in range(1 << smap.n)]}


def set_map_from_json(data):
    n = data['n']
    table = [None] * (1 << n)
    for a_arr, systems in data['table']:
        table[mask_of(a_arr, n)] = SetSystem(n, [mask_of(u, n) for u in systems])
    if any(v is None for v in table):
        raise UniverseMismatch("set map table must cover every subset")
    return SetNeighborhoodMap(n, table)


def operator_to_json(op):
    return {'n': op.n,
            'table': [[points_of(a), points_of(op.table[a])]
                      for a in range(1 << op.n)]}


def operator_from_json(data):
    n = data['n']
    table = [None] * (1 << n)
    for a_arr, v_arr in data['table']:
        table[mask_of(a_arr, n)] = mask_of(v_arr, n)
    if any(v is None for v in table):
        raise UniverseMismatch("operator table must cover every subset")
    return SubsetOperator(n, table)


def map_to_json(f):
    return {'f': list(f.images)}


def map_from_json(data, n_src=None, n_dst=None):
    images = data['f']
    if n_src is None:
        n_src = len(images)
    if n_dst is None:
        n_dst = (max(images) + 1) if images else 0
    return FiniteMap(n_src, n_dst, images)


def net_to_json(net):
    leq = [[i, j] for i in range(net.domain.size) for j in range(net.domain.size)
           if net.domain.leq(i, j)]
    return {'domain': {'n': net.domain.size, 'leq': leq},
            'values': list(net.values)}


def net_from_json(data, n):
    dom = data['domain']
    domain = DirectedSet(dom['n'], [tuple(p) for p in dom['leq']])
    return Net(domain, data['values'], n)


def sequence_to_json(seq):
    return {'pre': list(seq.pre), 'cycle': list(seq.cycle)}


def sequence_from_json(data, n):
    return EventuallyPeriodicSequence(data['pre'], data['cycle'], n)


def fraction_to_str(fr):
    fr = Fraction(fr)
    if fr.denominator == 1:
        return decimal_digits(fr.numerator)
    return '%s/%s' % (decimal_digits(fr.numerator), decimal_digits(fr.denominator))


def metric_to_json(m):
    return {'n': m.n, 'd': [[fraction_to_str(v) for v in row] for row in m.d]}


def metric_from_json(data):
    rows = [[decimal_fraction(v) if isinstance(v, str) else Fraction(v) for v in row]
            for row in data['d']]
    if len(rows) != data['n']:
        raise UniverseMismatch("matrix size does not match n")
    return PseudoMetric(rows)


def preorder_to_json(p):
    pairs = [[i, j] for i in range(p.n) for j in range(p.n) if p.rel(i, j)]
    return {'n': p.n, 'pairs': pairs, 'flavor': p.flavor}


def preorder_from_json(data):
    return Preorder(data['n'], [tuple(q) for q in data['pairs']], data['flavor'])


def dyadic_to_json(d):
    return str(d)


def dyadic_from_json(text):
    return Dyadic.parse(str(text))
