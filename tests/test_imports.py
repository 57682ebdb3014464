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

Nothing in src/ is there for tests alone.  Five scans check that, each
against the files under src/ and topobench/, the readers:
- A top-level def or class counts as read when some reader loads its
  name, or an attribute of that name, outside the definition itself.
  The names in __init__.py's __all__ are the public API and count as
  read.
- A method of a class not in __all__, other than a dunder, counts as
  read when some reader loads an attribute of its name, x.name, outside
  the method itself: a local or a parameter of the same name does not
  read it.  The methods of the classes in __all__ are public API too.
- A parameter with a default counts as set when some call of its
  function's name in a reader passes it: by position, by keyword, or
  through * or **.  A method's positions do not count self or cls, and
  a constructor is called by the name of its class or of a subclass
  that inherits it.
- Conversely, such a parameter's default counts as taken when some
  call of those names may omit the parameter: by the same rule, except
  that a call through * or ** may omit every one.  Functions and classes
  in __all__, with their methods, are exempt.
- A class's __init__ counts as read when some reader calls the class,
  or a subclass that inherits it, by name: a class built only through
  cls.__new__ in a classmethod never runs it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / 'src' / 'fintopo'
MODULES = sorted(p for p in PACKAGE.glob('*.py') if p.name != '__init__.py')
READERS = sorted(p for d in ('src', 'topobench') for p in (ROOT / d).rglob('*.py'))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


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
            if isinstance(fn, FUNCTIONS)
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


def names_read(source, attributes_only=False):
    """Each name the source loads, as a Name or as an attribute (only as
    an attribute with attributes_only), except a def's or class's own
    name inside that definition."""
    out = set()

    def visit(node, own):
        if isinstance(node, DEFINITIONS):
            own = own | {node.name}
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and not attributes_only):
            name = node.id
        else:
            name = None
        if name is not None and name not in own:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), frozenset())
    return out


def unused_definitions(modules, readers, allowed):
    """(module, name, line) for each top-level def or class in the
    {module: source} map whose name no reader source reads and that is
    not allowed."""
    read = set(allowed).union(*(names_read(source) for source in readers))
    return [(module, node.name, node.lineno) for module, source in sorted(modules.items())
            for node in ast.parse(source).body
            if isinstance(node, DEFINITIONS) and node.name not in read]


def is_dunder(name):
    return name.startswith('__') and name.endswith('__')


def unread_methods(modules, readers, public):
    """(module, 'Class.method', line) for each method, other than a
    dunder, of a top-level class not in public whose name no reader
    source reads as an attribute: a local or a parameter of the same
    name is not a read of the method."""
    read = set().union(*(names_read(source, attributes_only=True) for source in readers))
    return [(module, '%s.%s' % (cls.name, fn.name), fn.lineno)
            for module, source in sorted(modules.items())
            for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and cls.name not in public
            for fn in cls.body
            if isinstance(fn, FUNCTIONS) and not is_dunder(fn.name) and fn.name not in read]


def constructor_names(cls, classes):
    """The class's name and those of the subclasses, among the classes,
    that inherit its __init__."""
    names = [cls.name]
    for name in names:
        names += [sub.name for sub in classes if sub.name not in names
                  and any(isinstance(b, ast.Name) and b.id == name for b in sub.bases)
                  and not any(isinstance(fn, FUNCTIONS) and fn.name == '__init__'
                              for fn in sub.body)]
    return names


def defaulted_parameters(source):
    """(function, call names, parameter, position, line) for each
    parameter with a default of a top-level function or method.  A call
    of one of the names passes the parameter as its positional argument
    at position, or by keyword alone when position is None."""
    tree = ast.parse(source)
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    functions = [(fn.name, [fn.name], fn, 0) for fn in tree.body if isinstance(fn, FUNCTIONS)]
    for cls in classes:
        for fn in cls.body:
            if isinstance(fn, FUNCTIONS):
                names = constructor_names(cls, classes) if fn.name == '__init__' else [fn.name]
                bound = not any(isinstance(d, ast.Name) and d.id == 'staticmethod'
                                for d in fn.decorator_list)
                functions.append(('%s.%s' % (cls.name, fn.name), names, fn, bound))
    out = []
    for label, names, fn, bound in functions:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], first):
            out.append((label, names, arg.arg, k - bound, arg.lineno))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((label, names, arg.arg, None, arg.lineno))
    return out


def passes(call, parameter, position, star=True):
    """Whether the call passes the parameter.  A call through * or **
    counts as passing every one, or with star false as passing none."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return star
    return (any(k.arg == parameter for k in call.keywords)
            or position is not None and len(call.args) > position)


def calls_by_name(readers):
    """{name: [call, ...]} for the calls in the reader sources, by the
    name or attribute called."""
    calls = {}
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, 'attr', None)
                calls.setdefault(name, []).append(node)
    return calls


def unset_defaults(modules, readers):
    """(module, function, parameter, line) for each parameter with a
    default in the {module: source} map that no call in the reader
    sources passes."""
    calls = calls_by_name(readers)
    return [(module, label, parameter, line) for module, source in sorted(modules.items())
            for label, names, parameter, position, line in defaulted_parameters(source)
            if not any(passes(call, parameter, position)
                       for name in names for call in calls.get(name, ()))]


def unused_defaults(modules, readers, public):
    """(module, function, parameter, line) for each parameter with a
    default in the {module: source} map that every call in the reader
    sources passes, so that the default is never taken.  A call through
    * or ** may take it.  A function or class in public, and its
    methods, is skipped."""
    calls = calls_by_name(readers)
    return [(module, label, parameter, line) for module, source in sorted(modules.items())
            for label, names, parameter, position, line in defaulted_parameters(source)
            if label.partition('.')[0] not in public
            and all(passes(call, parameter, position, star=False)
                    for name in names for call in calls.get(name, ()))]


def public_names():
    """The __all__ list of the package's __init__.py."""
    for node in ast.parse((PACKAGE / '__init__.py').read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ['__all__']:
            return ast.literal_eval(node.value)
    return []


def sources():
    """The {module: source} map of the package and the reader sources."""
    return ({p.name: p.read_text() for p in PACKAGE.glob('*.py')},
            [p.read_text() for p in READERS])


def test_every_definition_is_read():
    modules, readers = sources()
    assert 'Topology' in public_names()
    assert unused_definitions(modules, readers, public_names()) == []


def test_every_method_is_read():
    modules, readers = sources()
    assert unread_methods(modules, readers, public_names()) == []


def uncalled_constructors(modules, readers):
    """(module, 'Class.__init__', line) for each __init__ of a top-level
    class in the {module: source} map that no call in the reader sources
    makes by the name of the class or of a subclass that inherits it."""
    calls = calls_by_name(readers)
    out = []
    for module, source in sorted(modules.items()):
        classes = [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
        out += [(module, '%s.__init__' % cls.name, fn.lineno) for cls in classes
                for fn in cls.body if isinstance(fn, FUNCTIONS) and fn.name == '__init__'
                and not any(name in calls for name in constructor_names(cls, classes))]
    return out


def test_every_constructor_is_called():
    modules, readers = sources()
    assert uncalled_constructors(modules, readers) == []


def test_every_default_is_set():
    modules, readers = sources()
    assert unset_defaults(modules, readers) == []


def test_every_default_is_taken():
    modules, readers = sources()
    assert unused_defaults(modules, readers, public_names()) == []


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


def test_the_scan_sees_an_unread_method():
    module = ('class Public:\n'
              '    def only_tests(self):\n'
              '        pass\n'
              'class Internal:\n'
              '    def __eq__(self, other):\n'
              '        return True\n'
              '    def used(self):\n'
              '        return self.helper()\n'
              '    def helper(self):\n'
              '        return 0\n'
              '    def recursive(self, k):\n'
              '        return self.recursive(k - 1) if k else 0\n'
              '    def unused(self):\n'
              '        pass\n')
    reader = 'from m import Internal\nInternal().used()\n'
    assert unread_methods({'m.py': module}, [module, reader], ['Public']) == [
        ('m.py', 'Internal.recursive', 11), ('m.py', 'Internal.unused', 13)]


def test_the_scan_sees_an_unset_default():
    module = ('def f(a, b=1, c=2, *, d=3, e=4):\n'
              '    return a\n'
              'def g(a=0):\n'
              '    return a\n'
              'def h(a=0):\n'
              '    return a\n'
              'class Error(Exception):\n'
              '    def __init__(self, reason, witness=None):\n'
              '        pass\n'
              '    def method(self, k=1):\n'
              '        pass\n'
              '    @staticmethod\n'
              '    def static(k=1):\n'
              '        pass\n'
              'class Inherits(Error):\n'
              '    pass\n'
              'class Overrides(Error):\n'
              '    def __init__(self, x=0):\n'
              '        pass\n')
    reader = ('f(0, 1, d=5)\n'
              'g(*[1])\n'
              'h(**{})\n'
              'Inherits(1, 2)\n'
              'Error.static(1)\n'
              'Error(1).method()\n'
              'Overrides()\n')
    assert unset_defaults({'m.py': module}, [module, reader]) == [
        ('m.py', 'f', 'c', 1), ('m.py', 'f', 'e', 1), ('m.py', 'Error.method', 'k', 10),
        ('m.py', 'Overrides.__init__', 'x', 18)]


def test_the_scan_sees_a_default_never_taken():
    module = ('def f(a, b=1, c=2, *, d=3):\n'
              '    return a\n'
              'def g(a=0):\n'
              '    return a\n'
              'def Public(a=0):\n'
              '    return a\n'
              'def starred(a, b=1):\n'
              '    return a\n'
              'class Error(Exception):\n'
              '    def __init__(self, reason, witness=None):\n'
              '        pass\n'
              'class Inherits(Error):\n'
              '    pass\n')
    reader = ('f(0, 1, d=5)\n'
              'f(0, b=2, c=3, d=4)\n'
              'g()\n'
              'Public(1)\n'
              'starred(*[1])\n'
              'Error(1, 2)\n'
              'Inherits(3, witness=4)\n')
    assert unused_defaults({'m.py': module}, [module, reader], ['Public']) == [
        ('m.py', 'f', 'b', 1), ('m.py', 'f', 'd', 1), ('m.py', 'Error.__init__', 'witness', 10)]
    assert unused_defaults({'m.py': module}, [module, reader], ['Public', 'Error']) == [
        ('m.py', 'f', 'b', 1), ('m.py', 'f', 'd', 1)]


def test_the_scan_sees_an_uncalled_constructor():
    module = ('class Called:\n'
              '    def __init__(self, n):\n'
              '        pass\n'
              'class Base:\n'
              '    def __init__(self, n):\n'
              '        pass\n'
              'class Inherits(Base):\n'
              '    pass\n'
              'class Unread:\n'
              '    def __init__(self):\n'
              '        pass\n'
              '    @classmethod\n'
              '    def make(cls):\n'
              '        return cls.__new__(cls)\n'
              'class Overrides(Base):\n'
              '    def __init__(self):\n'
              '        pass\n'
              'class NoInit:\n'
              '    pass\n')
    reader = ('import m\n'
              'm.Called(1)\n'
              'Inherits(2)\n'
              'Unread.make()\n'
              'Overrides, NoInit()\n')
    assert uncalled_constructors({'m.py': module}, [module, reader]) == [
        ('m.py', 'Unread.__init__', 10), ('m.py', 'Overrides.__init__', 16)]


def test_the_scan_sees_a_method_only_a_name_reads():
    module = ('class Internal:\n'
              '    def used(self):\n'
              '        return self.helper()\n'
              '    def helper(self):\n'
              '        return 0\n'
              '    def shadowed(self):\n'
              '        return 0\n'
              'def caller(shadowed):\n'
              '    return shadowed, Internal().used()\n')
    assert unread_methods({'m.py': module}, [module], []) == [
        ('m.py', 'Internal.shadowed', 6)]
