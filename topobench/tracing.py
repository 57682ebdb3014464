"""Per-layer tracing: a timing shim around public functions of fintopo.

The modules import each other's functions by name (`from .x import y`),
so a shim is rebound in every fintopo module namespace that holds the
original, and methods are rebound on their class.  Each shim records
calls and self time, where self time is the span minus the spans of the
traced calls made inside it.  `uninstall` puts every original back.
"""

import functools
import sys
import time

# (metric prefix, module, attribute); several attributes may share a prefix.
TIMED = [
    ('setops.psi', 'setops', 'psi'),
    ('setops.theta', 'setops', 'theta'),
    ('setops.phi', 'setops', 'phi'),
    ('setops.contains', 'setops', 'SetSystem.__contains__'),
    ('topology.enumerate_topologies', 'topology', 'enumerate_topologies'),
    ('topology.is_topology', 'topology', 'is_topology'),
    ('topology.generate', 'topology', 'generate_from_base'),
    ('topology.generate', 'topology', 'generate_from_subbase'),
    ('topology.neighborhood_relation', 'topology', 'neighborhood_relation'),
    ('topology.minimal_base', 'topology', 'minimal_base'),
    ('closure.closure', 'closure', 'closure'),
    ('closure.interior', 'closure', 'interior'),
    ('closure.derived_set', 'closure', 'derived_set'),
    ('closure.operator_of', 'closure', 'closure_operator_of'),
    ('closure.operator_of', 'closure', 'interior_operator_of'),
    ('closure.check_axioms', 'closure', 'check_closure_axioms'),
    ('closure.check_axioms', 'closure', 'check_interior_axioms'),
    ('closure.enumerate_closure_operators', 'closure', 'enumerate_closure_operators'),
    ('neighborhoods.check_neighborhood_axioms', 'neighborhoods', 'check_neighborhood_axioms'),
    ('neighborhoods.set_map_of', 'neighborhoods', 'set_map_of'),
    ('neighborhoods.topology_from_neighborhoods', 'neighborhoods', 'topology_from_neighborhoods'),
    ('filters.generate_filter', 'filters', 'generate_filter'),
    ('filters.enumerate_filters', 'filters', 'enumerate_filters'),
    ('convergence.limits', 'convergence', 'filter_limits'),
    ('convergence.limits', 'convergence', 'filter_adherence'),
    ('convergence.limits', 'convergence', 'net_limits'),
    ('convergence.limits', 'convergence', 'net_cluster_points'),
    ('convergence.limits', 'convergence', 'sequence_limits'),
    ('convergence.limits', 'convergence', 'sequence_cluster_points'),
    ('continuity.continuous_via_opens', 'continuity', 'continuous_via_opens'),
    ('continuity.continuous_via_subbase', 'continuity', 'continuous_via_subbase'),
    ('continuity.continuous_via_closeds', 'continuity', 'continuous_via_closeds'),
    ('continuity.continuous_via_neighborhoods', 'continuity', 'continuous_via_neighborhoods'),
    ('continuity.continuous_via_filter_transfer', 'continuity', 'continuous_via_filter_transfer'),
    ('continuity.continuous_via_closure', 'continuity', 'continuous_via_closure'),
    ('continuity.map_open_closed', 'continuity', 'map_open_closed'),
    ('continuity.are_homeomorphic', 'continuity', 'are_homeomorphic'),
    ('generated.product_topology', 'generated', 'product_topology'),
    ('generated.quotient_topology', 'generated', 'quotient_topology'),
    ('generated.subspace_topology', 'generated', 'subspace_topology'),
    ('generated.inverse_image_topology', 'generated', 'inverse_image_topology'),
    ('numeric.bisection_invert', 'numeric', 'bisection_invert'),
    ('numeric.half_sum', 'numeric', 'Dyadic.half_sum'),
    ('jsonio.from_json', 'jsonio', '*_from_json'),
    ('jsonio.dumps', 'jsonio', 'dumps'),
    ('cli.main', 'cli', 'main'),
]

# Counted but not timed: Dyadic.__init__ runs inside every dyadic
# operation, and a timing shim there would swamp what it measures.
COUNTED = [('numeric.dyadic_new', 'numeric', 'Dyadic.__init__')]


def metric_units():
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for prefix, _, _ in TIMED:
        out[prefix + '.calls'] = ('count', 'lower')
        out[prefix + '.self_s'] = ('s', 'lower')
    for prefix, _, _ in COUNTED:
        out[prefix + '.calls'] = ('count', 'lower')
    out['setops.sets_out'] = ('count', 'lower')
    out['continuity.are_homeomorphic.found_ratio'] = ('ratio', 'higher')
    return out


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys([p for p, _, _ in TIMED + COUNTED], 0)
        self.self_ns = dict.fromkeys([p for p, _, _ in TIMED], 0)
        self.sets_out = 0
        self.found = 0
        self._stack = [0]
        self._undo = []

    def _timed(self, prefix, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        clock = time.perf_counter_ns
        post = None
        if prefix in ('setops.psi', 'setops.theta', 'setops.phi'):
            def post(r):
                self.sets_out += len(r)
        elif prefix == 'continuity.are_homeomorphic':
            def post(r):
                self.found += r is not None

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                r = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                stack[-1] += span
                self_ns[prefix] += span - child
                calls[prefix] += 1
            if post is not None:
                post(r)
            return r
        return shim

    def _counted(self, prefix, fn):
        calls = self.calls

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            calls[prefix] += 1
            return fn(*args, **kwargs)
        return shim

    def install(self):
        mods = {name[len('fintopo.'):]: mod for name, mod in sys.modules.items()
                if name.startswith('fintopo.') and mod is not None}
        for wrap, targets in ((self._timed, TIMED), (self._counted, COUNTED)):
            for prefix, modname, attr in targets:
                mod = mods[modname]
                if attr.startswith('*'):
                    names = [k for k in vars(mod) if k.endswith(attr[1:])]
                else:
                    names = [attr]
                for name in names:
                    self._rebind(mod, name, wrap(prefix, _resolve(mod, name)))

    def _rebind(self, mod, name, shim):
        if '.' in name:
            cls_name, meth = name.split('.')
            cls = getattr(mod, cls_name)
            self._undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, shim)
            return
        orig = getattr(mod, name)
        for other_name, other in list(sys.modules.items()):
            if other is None or not (other_name == 'fintopo' or other_name.startswith('fintopo.')):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    self._undo.append((other, key, orig))
                    setattr(other, key, shim)

    def uninstall(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def metrics(self):
        units = metric_units()
        values = {}
        for prefix, n in self.calls.items():
            values[prefix + '.calls'] = n
        for prefix, ns in self.self_ns.items():
            values[prefix + '.self_s'] = ns / 1e9
        values['setops.sets_out'] = self.sets_out
        calls = self.calls['continuity.are_homeomorphic']
        values['continuity.are_homeomorphic.found_ratio'] = self.found / calls if calls else 0.0
        return {k: {'value': v, 'unit': units[k][0]} for k, v in sorted(values.items())}


def _resolve(mod, name):
    obj = mod
    for part in name.split('.'):
        obj = getattr(obj, part)
    return obj
