"""Random JSON through every `topo` verb that reads a file.

Each example takes one call with well-formed input files (n <= 4) and
breaks some of them: a key dropped, a value replaced by junk (true,
false, null, a negative or huge integer, a float, a string, nested
lists and objects), or the whole file replaced by junk.  Every run must
return from main: exit 0, exit 1 with a typed error payload, or exit 2
with a usage error or an input error that names the shape it expected.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fintopo.cli import main
from fintopo.jsonio import SHAPES

# every argv that main parses here is checked against the top-level parser
pytestmark = pytest.mark.usefixtures('top_level_parse_agrees')

SPACE = {'n': 2, 'sets': [[], [1], [0, 1]]}
BASE = {'n': 3, 'sets': [[1], [0, 1]]}
MAP = {'f': [1, 0]}
MATRIX = {'n': 3, 'd': [['0', '1', '2'], ['1', '0', '1'], ['2', '1', '0']]}
PREORDER = {'n': 3, 'pairs': [[0, 1], [1, 2], [0, 2]], 'flavor': 'strict'}
OPERATOR = {'n': 1, 'table': [[[], []], [[0], [0]]]}

# (argv, files): each argument named in files is a file with that JSON
CALLS = [
    (['generate', '--base', 'B'], {'B': SPACE}),
    (['generate', '--subbase', 'B'], {'B': BASE}),
    (['generate', '--closed', 'B'], {'B': SPACE}),
    (['generate', '--neighborhoods', 'R'],
     {'R': {'n': 2, 'pairs': [[0, [0]], [0, [0, 1]], [1, [0, 1]]]}}),
    (['generate', '--neighborhood-base', 'R'], {'R': {'n': 2, 'pairs': [[0, [0]], [1, [0, 1]]]}}),
    (['generate', '--set-map', 'T'],
     {'T': {'n': 1, 'table': [[[], [[], [0]]], [[0], [[0]]]]}}),
    (['generate', '--closure-op', 'T'], {'T': OPERATOR}),
    (['generate', '--interior-op', 'T'], {'T': OPERATOR}),
    (['generate', '--metric', 'M'], {'M': MATRIX}),
    (['generate', '--interval', 'P'], {'P': PREORDER}),
    (['generate', '--interval', 'P', '--side', 'lower'], {'P': PREORDER}),
    (['generate', '--family', 'F'],
     {'F': {'n': 3, 'members': [{'space': SPACE, 'map': {'f': [0, 1, 1]}}]}}),
    (['generate', '--family', 'F', '--direct'],
     {'F': {'n': 3, 'members': [{'space': SPACE, 'map': {'f': [0, 2]}}]}}),
    (['analyze', '--space', 'S', '--set', '1'], {'S': SPACE}),
    (['analyze', '--preorder', 'P'], {'P': PREORDER}),
    (['analyze', '--metric', 'M', '--set', '0'], {'M': MATRIX}),
    (['filter', '--op', 'generate', '--base', 'B'], {'B': BASE}),
    (['filter', '--op', 'ultra', '--base', 'B'], {'B': BASE}),
    (['filter', '--op', 'extend', '--base', 'B'], {'B': BASE}),
    (['filter', '--op', 'sup', '--bases', 'BS'], {'BS': [BASE, BASE]}),
    (['filter', '--op', 'image', '--base', 'B', '--map', 'F'],
     {'B': {'n': 2, 'sets': [[0]]}, 'F': MAP}),
    (['filter', '--op', 'inverse-image', '--base', 'B', '--map', 'F'],
     {'B': {'n': 2, 'sets': [[0]]}, 'F': MAP}),
    (['cont', '--src', 'S', '--dst', 'D', '--map', 'F'], {'S': SPACE, 'D': SPACE, 'F': MAP}),
    (['cont', '--src', 'S', '--dst', 'D', '--map', 'F', '--at', '0'],
     {'S': SPACE, 'D': SPACE, 'F': MAP}),
    (['cont', '--src', 'S', '--dst', 'D', '--map', 'F', '--fx', 'X', '--fy', 'Y', '--at', '0'],
     {'S': SPACE, 'D': SPACE, 'F': MAP, 'X': {'n': 2, 'sets': [[0, 1]]},
      'Y': {'n': 2, 'sets': [[0, 1]]}}),
    (['cont', '--src', 'S', '--dst', 'D', '--homeo'], {'S': SPACE, 'D': SPACE}),
    (['product', 'S', 'D'], {'S': SPACE, 'D': SPACE}),
    (['quotient', '--space', 'S', '--classes', 'C'], {'S': SPACE, 'C': [[0, 1]]}),
    (['series', '--xs', 'XS', '--end', '2'], {'XS': ['1', 0.5, '1/4']}),
    (['check', '--cauchy-schwarz', 'V'], {'V': {'x': ['1', 0.5], 'y': [3, '2']}}),
    (['check', '--metric', 'M'], {'M': MATRIX}),
    (['check', '--base', 'B', '--space', 'S'], {'B': SPACE, 'S': SPACE}),
    (['check', '--net', 'N', '--space', 'S'],
     {'N': {'domain': {'n': 2, 'leq': [[0, 1]]}, 'values': [0, 1]}, 'S': SPACE}),
    (['check', '--invert', 'I'],
     {'I': {'poly': ['0', '1'], 'a': '0', 'b': '1', 'w': '3/8', 'tol': '2^-20'}}),
]

KEYS = sorted({k for _, files in CALLS for v in files.values() for k in re.findall(r'"(\w+)":',
                                                                                  json.dumps(v))})

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 21, 2 ** 31, 10 ** 20])
    | st.floats() | st.text(max_size=4)
    | st.sampled_from(['0', '1/0', '1/3', '2^-3', '-1.5', 'strict', 'reflexive', 'x']),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                 max_size=4),
    max_leaves=10)


def places(value, path=()):
    """The path to every value inside value, value itself first."""
    out = [path]
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, v in items:
        out += places(v, path + (key,))
    return out


@st.composite
def broken(draw, value):
    """value with one place dropped or replaced by junk, or all junk."""
    value = json.loads(json.dumps(value))
    path = draw(st.sampled_from(places(value)))
    if not path:
        return draw(JUNK)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK)
    return value


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


INPUT_ERROR = re.compile(r'input error: (%s): ' % '|'.join(map(re.escape, SHAPES)))


def test_random_json_gives_a_result_or_a_typed_error():
    # measured at about 4 s for the 400 examples (CPython 3.11, a shared
    # 2-CPU host); at the parent, a product read as a space was
    # "input error: 'n'", naming no shape
    with tempfile.TemporaryDirectory() as tmp:

        @settings(max_examples=400, deadline=None, derandomize=True, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(st.data())
        def run(data):
            argv, files = data.draw(st.sampled_from(CALLS))
            broken_names = data.draw(st.sets(st.sampled_from(sorted(files)), min_size=1))
            paths = {}
            for name, value in files.items():
                if name in broken_names:
                    value = data.draw(broken(value))
                paths[name] = os.path.join(tmp, name + '.json')
                with open(paths[name], 'w') as fh:
                    json.dump(value, fh)
            code, out, err = invoke([paths.get(a, a) for a in argv])
            if code == 1:
                assert set(json.loads(out)) == {'error', 'detail'}, (argv, out)
            elif code == 2:
                assert out == '' and (err.startswith('usage error: ')
                                      or INPUT_ERROR.match(err)), (argv, err)
            else:
                assert (code, err) == (0, ''), (argv, code, err)
                json.loads(out)

        t0 = time.perf_counter()
        run()
        assert time.perf_counter() - t0 < 30
