"""Every name the benchmark's tracer wraps still exists in fintopo.

topobench/tracing.py names (module, attribute) pairs to wrap; a name a
refactor removes would only show when a traced benchmark run fails.
This reads that list and resolves each name the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / 'topobench' / 'tracing.py'


def load_tracing():
    spec = importlib.util.spec_from_file_location('topobench_tracing', TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_names(mod, attr):
    """The names the tracer wraps for one entry: a '*suffix' pattern
    stands for every module name ending with the suffix."""
    if attr.startswith('*'):
        return [k for k in vars(mod) if k.endswith(attr[1:])]
    return [attr]


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for prefix, modname, attr in tracing.TIMED + tracing.COUNTED:
        mod = importlib.import_module('fintopo.' + modname)
        names = traced_names(mod, attr)
        if not names:
            missing.append((prefix, modname, attr))
        for name in names:
            owner, _, last = name.rpartition('.')
            scope = vars(getattr(mod, owner)) if owner else vars(mod)
            if last not in scope:
                missing.append((prefix, modname, name))
    assert missing == []
