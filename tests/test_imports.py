"""Every name a fintopo module imports is read somewhere in that module,
and every function or class it defines at top level is read somewhere.

Each module under src/fintopo is parsed with ast.  A name bound by an
import statement counts as read when the module loads it by that name
anywhere (a Name in Load context, which covers attribute access through
it too).  The package's __init__.py is exempt: its imports are the
public re-exports.

Every import statement sits at module level, and no module imports
itself through its siblings.  No module imports an underscore name from
a sibling module: what one module reads of another is public there.

A top-level def or class counts as read when some file under src/ or
topobench/ loads its name, or an attribute of that name, outside the
definition itself.  The names in __init__.py's __all__ are the public
API and count as read.  The names in TEST_ONLY are read by tests alone,
and only they: a new name that only tests read fails, and so does one
of these once the library or the benchmark reads it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / 'src' / 'fintopo'
MODULES = sorted(p for p in PACKAGE.glob('*.py') if p.name != '__init__.py')
READERS = sorted(p for d in ('src', 'topobench') for p in (ROOT / d).rglob('*.py'))
TESTS = sorted((ROOT / 'tests').rglob('*.py'))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imported_names(tree):
    """(name, line) for each name bound by an import in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.partition('.')[0], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def unused_imports(source):
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, line) for name, line in imported_names(tree) if name not in read]


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {'topology.py', 'cli.py', 'setops.py'} <= names


@pytest.mark.parametrize('path', MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = ('import os\n'
              'from .setops import SetSystem, full_mask\n'
              'from . import jsonio\n'
              'def f(n):\n'
              '    return full_mask(n), jsonio.dumps\n')
    assert unused_imports(source) == [('os', 1), ('SetSystem', 2)]


def function_imports(source):
    """(function, line) for each import statement inside a function."""
    return [(fn.name, node.lineno) for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_imports_are_at_module_level():
    assert [(p.name, fn, line) for p in MODULES
            for fn, line in function_imports(p.read_text())] == []


def test_the_scan_sees_a_function_level_import():
    source = ('import os\n'
              'def f():\n'
              '    from . import jsonio\n'
              '    def g():\n'
              '        import re\n'
              '    return os, jsonio, g\n')
    assert function_imports(source) == [('f', 3), ('f', 5), ('g', 5)]


def sibling_imports(source):
    """The sibling modules that a module's relative imports name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.partition('.')[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def import_cycle(graph):
    """A list of modules that import each other in a ring, or None."""
    done, path = set(), []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        for k in sorted(graph.get(m, ())):
            ring = visit(k)
            if ring:
                return ring
        path.pop()
        done.add(m)
        return None

    for m in sorted(graph):
        ring = visit(m)
        if ring:
            return ring
    return None


def test_no_import_cycle():
    graph = {p.stem: sibling_imports(p.read_text()) for p in MODULES}
    assert import_cycle(graph) is None


def test_the_scan_sees_an_import_cycle():
    graph = {'a': sibling_imports('from .b import f\nfrom . import c\n'),
             'b': sibling_imports('import os\nfrom .c import g\n'),
             'c': sibling_imports('def h():\n    from .a import f\n')}
    assert graph == {'a': {'b', 'c'}, 'b': {'c'}, 'c': {'a'}}
    assert import_cycle(graph) == ['a', 'b', 'c', 'a']
    assert import_cycle({'a': {'b'}, 'b': set()}) is None


def private_imports(source):
    """(name, line) for each underscore name imported from a sibling
    module, by a relative import or through the fintopo package."""
    return [(alias.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or '').partition('.')[0] == 'fintopo')
            for alias in node.names if alias.name.startswith('_')]


def test_no_module_imports_a_private_name():
    assert [(p.name, name, line) for p in PACKAGE.glob('*.py')
            for name, line in private_imports(p.read_text())] == []


def test_the_scan_sees_a_private_import():
    source = ('from ._x import y\n'
              'from .setops import _byte_tables, full_mask\n'
              'from . import _cache\n'
              'from fintopo.topology import _meet_fault\n'
              'from os import _exit\n')
    assert private_imports(source) == [('_byte_tables', 2), ('_cache', 3), ('_meet_fault', 4)]


def names_read(source):
    """Each name the source loads, as a Name or as an attribute, except
    a top-level definition's own name inside that definition."""
    out = set()
    for top in ast.parse(source).body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top)
                 if isinstance(node, ast.Attribute)
                 or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if isinstance(top, DEFINITIONS):
            names.discard(top.name)
        out |= names
    return out


def unused_definitions(modules, readers, allowed):
    """(module, name, line) for each top-level def or class in the
    {module: source} map whose name no reader source reads and that is
    not allowed."""
    read = set(allowed).union(*(names_read(source) for source in readers))
    return [(module, node.name, node.lineno) for module, source in sorted(modules.items())
            for node in ast.parse(source).body
            if isinstance(node, DEFINITIONS) and node.name not in read]


def public_names():
    """The __all__ list of the package's __init__.py."""
    for node in ast.parse((PACKAGE / '__init__.py').read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ['__all__']:
            return ast.literal_eval(node.value)
    return []


# the definitions that only tests read: the alternative constructions
# of products, orders and interval topologies, and the power bounds
TEST_ONLY = {
    'product_directed_set', 'power_exceeds', 'power_vanishes',
    'interval_topology_family', 'pullback_preorder', 'product_preorder',
    'segment_system_is_topology', 'chain', 'fence', 'is_order_dense',
    'product_point_index',
}


def test_every_definition_is_read():
    modules = {p.name: p.read_text() for p in PACKAGE.glob('*.py')}
    readers = [p.read_text() for p in READERS]
    assert 'Topology' in public_names()
    found = [name for _, name, _ in unused_definitions(modules, readers, public_names())]
    assert sorted(found) == sorted(TEST_ONLY)
    read_by_tests = set().union(*(names_read(p.read_text()) for p in TESTS))
    assert TEST_ONLY <= read_by_tests


def test_the_scan_sees_an_unused_definition():
    module = ('def used(n):\n'
              '    return n\n'
              'def recursive(n):\n'
              '    return recursive(n - 1) if n else 0\n'
              'class Public:\n'
              '    pass\n'
              'def by_attribute():\n'
              '    pass\n'
              'def unused():\n'
              '    pass\n'
              'def caller():\n'
              '    return helper()\n'
              'def helper():\n'
              '    return helper\n')
    reader = ('from m import used, unused\n'
              'import m\n'
              'm.by_attribute()\n'
              'used(1), m.caller()\n')
    assert unused_definitions({'m.py': module}, [module, reader], ['Public']) == [
        ('m.py', 'recursive', 3), ('m.py', 'unused', 9)]
