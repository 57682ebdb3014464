"""Every name a fintopo module imports is read somewhere in that module.

Each module under src/fintopo is parsed with ast.  A name bound by an
import statement counts as read when the module loads it by that name
anywhere (a Name in Load context, which covers attribute access through
it too).  The package's __init__.py is exempt: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / 'src' / 'fintopo'
MODULES = sorted(p for p in PACKAGE.glob('*.py') if p.name != '__init__.py')


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
