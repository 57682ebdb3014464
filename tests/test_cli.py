"""The `topo` command line tool: outputs, determinism, and exit codes."""

import json
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import opens_reference as ref
from conftest import parsed
from fintopo import cli, jsonio
from fintopo.cli import INPUTS, KINDS, OPTIONS, build_parser, main
from fintopo.errors import DomainError, InputError
from fintopo.filters import generate_filter
from fintopo.numeric import Dyadic
from fintopo.setops import SetSystem, points_of

# every argv that main parses here is checked against the top-level parser
pytestmark = pytest.mark.usefixtures('top_level_parse_agrees')


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


SIERPINSKI = {'n': 2, 'sets': [[], [1], [0, 1]]}


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, err = run(capsys, 'enumerate', '--n', '3', '--count-only')
        assert code == 0
        assert json.loads(out) == {'count': 29, 'n': 3}

    def test_listing(self, capsys):
        code, out, err = run(capsys, 'enumerate', '--n', '2')
        assert code == 0
        data = json.loads(out)
        assert data['count'] == 4
        assert len(data['topologies']) == 4

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, 'enumerate', '--n', '3')
        _, out2, _ = run(capsys, 'enumerate', '--n', '3')
        assert out1 == out2

    def test_cap_is_domain_error(self, capsys):
        code, out, err = run(capsys, 'enumerate', '--n', '9')
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'


class TestParserReuse:
    CALLS = [
        ('enumerate', '--n', '2'),
        ('--format', 'table', 'enumerate', '--n', '2', '--count-only'),
        ('frobnicate',),
        ('series', '--geom', '1/2', '--terms', '3'),
        ('enumerate',),
        ('enumerate', '--n', '3', '--count-only'),
        ('series', '--geom', '1/2'),
        ('root', '--a', '2', '--m', '2', '--tol', '1/8'),
        ('enumerate', '--n', '6'),
    ]

    def test_calls_in_turn_match_calls_alone(self, capsys):
        alone = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            alone.append(run(capsys, *argv)[:2])
        build_parser.cache_clear()
        in_turn = [run(capsys, *argv)[:2] for argv in self.CALLS]
        assert in_turn == alone
        assert [code for code, _ in alone] == [0, 0, 2, 0, 2, 0, 0, 0, 1]
        assert build_parser.cache_info().misses == 1


def _option(name):
    """name's flag with a value its kind accepts: none for a flag."""
    kind = KINDS.get(name, {})
    if kind.get('action') == 'store_true':
        return [cli._flag(name)]
    return [cli._flag(name), {int: '1'}.get(kind.get('type'), 'lower' if 'choices' in kind else 'f')]


def parse_corpus():
    """argvs where the verb's own parser and the top-level parser could
    part: each input of each verb alone, with each option of the verb,
    repeated, with an option missing or unknown; -h; --format on either
    side of the verb; abbreviations; '--'; an unknown verb; no argv."""
    verbs = list(build_parser().verbs)
    argvs = [[], ['-h'], ['frobnicate'], ['--format', 'table'], ['--format=table', 'enumerate'],
             ['--', 'enumerate', '--n', '2'], ['--form', 'table', 'enumerate', '--n', '2'],
             ['series', '--geo', '1/2'], ['series', '--geom=1/2', '--terms', '-5'],
             ['series', '--geom', '1/2', '--terms=-5'], ['series', '--geom', '-1/2'],
             ['enumerate', '--n', '2', '--form', 'table'], ['enumerate', '--n=2', '--count'],
             ['enumerate', '--n', '2', '--', '--count-only'], ['enumerate', '--', '--n', '2'],
             ['enumerate', '--n', '-2'], ['enumerate', '-hx'], ['cont', '--f', 'x'],
             ['root', '--a', '-1/2', '--m', '2', '--tol', '2^-8'], ['product'],
             ['product', 'a', '--', '-b'], ['verify', '--suite', 'num'],
             ['verify', '--suite', 'numeric', '--n', '0', '--n', '1']]
    for verb in verbs:
        argvs += [[verb], [verb, '-h'], [verb, '--help', 'x'], [verb, '--bogus', 'x'],
                  [verb, 'stray'], ['--format', 'table', verb], [verb, '--format', 'table'],
                  [verb, '--form=table'], [verb, '--=x'], [verb, '-=x'], [verb, '--', '-h']]
    for verb, inputs in INPUTS.items():
        for name in inputs:
            argv = ['filter', '--op', name] if verb == 'filter' else [verb] + _option(name)
            argvs += [argv, argv + argv[1:], argv + ['--bogus'], argv + ['-h'],
                      ['--format', 'table'] + argv, argv + ['--format', 'table']]
            argvs += [argv + _option(o) for o in OPTIONS[verb]]
            argvs += [argv + _option(o) * 2 for o in OPTIONS[verb]]
    return argvs


# the tokens of random argvs: every verb, option, value and separator
TOKENS = sorted({t for argv in parse_corpus() for t in argv} | {'--n', '-', '-5', '2', 'x=y'})


class TestParseOnce:
    """main parses with the verb's own parser alone when argv[0] names a
    verb.  Each argv gives the namespace the top-level parser gives, or
    the same exit status, stdout and stderr.  Every argv that main parses
    in this module and in test_cli_fuzz.py is checked so as well, by the
    fixture top_level_parse_agrees."""

    @pytest.mark.parametrize('argv', parse_corpus(), ids=' '.join)
    def test_corpus(self, argv):
        assert parsed(cli.parse_args, argv) == parsed(build_parser().parse_args, argv)

    @given(st.lists(st.sampled_from(TOKENS), max_size=6),
           st.sampled_from(sorted(build_parser().verbs)))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_random_argvs(self, tokens, verb):
        for argv in (tokens, [verb] + tokens):
            assert parsed(cli.parse_args, argv) == parsed(build_parser().parse_args, argv)

    def test_the_corpus_reaches_both_routes(self):
        # a namespace, a usage error of each parser, and help
        outcomes = [parsed(cli.parse_args, argv) for argv in parse_corpus()]
        assert any(type(o) is dict for o in outcomes)
        errors = [o[2] for o in outcomes if type(o) is tuple and o[0] == 2]
        assert any(e.startswith('usage: topo [-h]') for e in errors)
        assert any(e.startswith('usage: topo series') for e in errors)
        assert any(o[:2] == (0, parsed(build_parser().parse_args, ['-h'])[1])
                   for o in outcomes if type(o) is tuple)


class TestGenerate:
    def test_from_base(self, capsys, tmp_path):
        base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[], [1], [0, 1]]})
        code, out, _ = run(capsys, 'generate', '--base', base)
        assert code == 0
        assert json.loads(out) == SIERPINSKI

    def test_from_subbase(self, capsys, tmp_path):
        sub = write(tmp_path, 's.json',
                    {'n': 3, 'sets': [[0, 1], [1, 2], [0, 2]]})
        code, out, _ = run(capsys, 'generate', '--subbase', sub)
        assert code == 0
        assert json.loads(out)['sets'][-1] == [0, 1, 2]
        assert len(json.loads(out)['sets']) == 8

    def test_neighborhood_base_of_the_20_point_chain(self, capsys, tmp_path):
        # each point's members of the chain's minimal base: the stdout the
        # listing of the generated system gave, in 0.22 s at 83 MiB max
        # RSS.  From the base's cores it took 5 ms at 16 MiB (CPython
        # 3.11, shared 2-CPU host)
        base = write(tmp_path, 'b.json', {'n': 20, 'pairs': [
            [x, list(range(y + 1))] for x in range(20) for y in range(x, 20)]})
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'generate', '--neighborhood-base', base)
        seconds = time.perf_counter() - t0
        assert code == 0
        assert out == '{"n":20,"sets":[%s]}\n' % ','.join(
            '[%s]' % ','.join(map(str, range(k))) for k in range(21))
        assert seconds < 0.1

    def test_from_metric(self, capsys, tmp_path):
        m = write(tmp_path, 'm.json',
                  {'n': 2, 'd': [['0', '0'], ['0', '0']]})
        code, out, _ = run(capsys, 'generate', '--metric', m)
        assert code == 0
        assert json.loads(out) == {'n': 2, 'sets': [[], [0, 1]]}

    def test_from_interval(self, capsys, tmp_path):
        p = write(tmp_path, 'p.json',
                  {'n': 2, 'pairs': [[0, 1]], 'flavor': 'strict'})
        code, out, _ = run(capsys, 'generate', '--interval', p)
        assert code == 0
        assert json.loads(out) == {'n': 2, 'sets': [[], [0], [1], [0, 1]]}

    def test_one_sided(self, capsys, tmp_path):
        p = write(tmp_path, 'p.json',
                  {'n': 2, 'pairs': [[0, 0], [1, 1], [1, 0]],
                   'flavor': 'reflexive'})
        code, out, _ = run(capsys, 'generate', '--interval', p, '--side', 'lower')
        assert code == 0
        assert json.loads(out) == SIERPINSKI

    def test_family_inverse(self, capsys, tmp_path):
        fam = write(tmp_path, 'f.json',
                    {'n': 3, 'members': [
                        {'space': SIERPINSKI, 'map': {'f': [0, 1, 1]}}]})
        code, out, _ = run(capsys, 'generate', '--family', fam)
        assert code == 0
        assert json.loads(out) == {'n': 3, 'sets': [[], [1, 2], [0, 1, 2]]}
        # the inverse image is the default; there is no --inverse option
        code, out, err = run(capsys, 'generate', '--family', fam, '--inverse')
        assert code == 2 and out == ''
        assert 'unrecognized arguments: --inverse' in err

    @pytest.mark.parametrize('direct', [False, True])
    @pytest.mark.parametrize('n', [40, 10**9])
    def test_family_past_the_carrier_cap_fails_fast(self, capsys, tmp_path, n, direct):
        fam = write(tmp_path, 'f.json', {'n': n, 'members': []})
        argv = ['generate', '--family', fam] + (['--direct'] if direct else [])
        t0 = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'

    @pytest.mark.parametrize('flag', ['--closure-op', '--interior-op', '--set-map'])
    @pytest.mark.parametrize('n', [-1, 21])
    def test_table_off_the_carrier_is_refused_before_it_is_made(self, capsys, tmp_path,
                                                                 flag, n):
        # n = -1 once exited 2 on a negative shift count, and n = 21 made
        # a 2^21-entry table (16 MB traced) before it was refused; the
        # refusal now traces about 250 kB, argument parsing included
        table = write(tmp_path, 't.json', {'n': n, 'table': []})
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, 'generate', flag, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert json.loads(out) == {'error': 'CapExceeded',
                                   'detail': 'carrier size %d outside 0..20' % n}
        assert peak < 1 << 20

    def test_no_option_is_usage_error(self, capsys):
        code, out, err = run(capsys, 'generate')
        assert code == 2
        assert ('one of the arguments --base --subbase --closed --neighborhoods '
                '--neighborhood-base --set-map --closure-op --interior-op --metric '
                '--interval --family is required') in err

    def test_two_inputs_are_a_usage_error(self, capsys, tmp_path):
        # neither input may be dropped: the base alone gives the
        # Sierpinski space, which this call must not print
        base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[], [1], [0, 1]]})
        sub = write(tmp_path, 's.json', {'n': 2, 'sets': [[0], [1]]})
        code, out, err = run(capsys, 'generate', '--subbase', sub, '--base', base)
        assert code == 2 and out == ''
        assert 'not allowed with argument' in err

    @pytest.mark.parametrize('flag, message', [
        (['--side', 'lower'], 'generate --base does not read --side'),
        (['--direct'], 'generate --base does not read --direct'),
    ], ids=['flag0---interval', 'flag1---family'])
    def test_a_modifier_without_its_input_is_a_usage_error(self, capsys, tmp_path,
                                                           flag, message):
        # both once printed the base's topology and exited 0
        base = write(tmp_path, 'b.json', SIERPINSKI)
        code, out, err = run(capsys, 'generate', '--base', base, *flag)
        assert code == 2 and out == ''
        assert err == 'usage error: %s\n' % message


class TestAnalyze:
    def test_subset_report(self, capsys, tmp_path):
        space = write(tmp_path, 't.json', SIERPINSKI)
        code, out, _ = run(capsys, 'analyze', '--space', space, '--set', '1')
        assert code == 0
        data = json.loads(out)
        assert data == {'set': [1], 'interior': [1], 'closure': [0, 1],
                        'derived': [0], 'boundary': [0], 'dense': True}

    def test_preorder_properties(self, capsys, tmp_path):
        p = write(tmp_path, 'p.json',
                  {'n': 2, 'pairs': [[0, 1]], 'flavor': 'strict'})
        code, out, _ = run(capsys, 'analyze', '--preorder', p)
        assert code == 0
        props = json.loads(out)['properties']
        assert props['connective'] and props['transitive']

    def test_metric_distances(self, capsys, tmp_path):
        m = write(tmp_path, 'm.json',
                  {'n': 3, 'd': [['0', '1', '2'], ['1', '0', '1'], ['2', '1', '0']]})
        code, out, _ = run(capsys, 'analyze', '--metric', m, '--set', '0')
        assert code == 0
        assert json.loads(out)['distances'] == ['0', '1', '2']

    def test_empty_set_distance_is_domain_error(self, capsys, tmp_path):
        m = write(tmp_path, 'm.json', {'n': 2, 'd': [['0', '1'], ['1', '0']]})
        code, out, _ = run(capsys, 'analyze', '--metric', m, '--set', '')
        assert code == 1
        assert json.loads(out)['error'] == 'EmptyArgument'

    def test_preorder_past_the_carrier_cap_fails_fast(self, capsys, tmp_path):
        # a 40-point chain once ran the least-upper-bound scan over its
        # 2^40 subsets
        pairs = [[i, j] for i in range(40) for j in range(i + 1, 40)]
        p = write(tmp_path, 'p.json', {'n': 40, 'pairs': pairs, 'flavor': 'strict'})
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'analyze', '--preorder', p)
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert json.loads(out) == {'error': 'CapExceeded',
                                   'detail': 'carrier size 40 outside 0..20'}

    def test_space_without_a_set_is_a_usage_error(self, capsys, tmp_path):
        # once an uncaught AttributeError
        space = write(tmp_path, 't.json', SIERPINSKI)
        code, out, err = run(capsys, 'analyze', '--space', space)
        assert code == 2 and out == ''
        assert err == 'usage error: analyze --space needs --set\n'

    def test_no_input_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, 'analyze', '--set', '0')
        assert code == 2 and out == ''
        assert 'one of the arguments --space --preorder --metric is required' in err


class TestFilter:
    def test_generate_and_extend(self, capsys, tmp_path):
        base = write(tmp_path, 'b.json', {'n': 3, 'sets': [[1], [0, 1]]})
        code, out, _ = run(capsys, 'filter', '--op', 'generate', '--base', base)
        assert code == 0
        assert json.loads(out)['core'] == [1]
        code, out, _ = run(capsys, 'filter', '--op', 'extend', '--base', base)
        assert code == 0
        assert json.loads(out)['core'] == [1]

    def test_sup_empty_meet_is_domain_error(self, capsys, tmp_path):
        bases = write(tmp_path, 'bs.json',
                      [{'n': 2, 'sets': [[0]]}, {'n': 2, 'sets': [[1]]}])
        code, out, _ = run(capsys, 'filter', '--op', 'sup', '--bases', bases)
        assert code == 1
        assert json.loads(out)['error'] == 'EmptyMeet'

    def test_bad_base_is_domain_error(self, capsys, tmp_path):
        base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[0], [1]]})
        code, out, _ = run(capsys, 'filter', '--op', 'generate', '--base', base)
        assert code == 1
        assert json.loads(out)['error'] == 'FilterBaseViolation'

    def test_sup_answers_as_the_cross_intersections_do(self, capsys, tmp_path):
        # every pair of systems on 1 or 2 points: the filter, or the
        # error, of the filter generated by the cross intersections; so a
        # base on another carrier is named before its own faults
        systems = [SetSystem(n, [m for m in range(1 << n) if bits >> m & 1])
                   for n in (1, 2) for bits in range(1 << (1 << n))]
        for pair in product(systems, repeat=2):
            bases = write(tmp_path, 'bs.json', [jsonio.system_to_json(b) for b in pair])
            code, out, _ = run(capsys, 'filter', '--op', 'sup', '--bases', bases)
            try:
                f = generate_filter(ref.supremum_of_filter_bases(list(pair)))
            except DomainError as exc:
                assert (code, json.loads(out)) == (1, exc.payload())
            else:
                assert (code, json.loads(out)) == (0, {'filter': jsonio.system_to_json(f.members),
                                                       'core': points_of(f.core())})


    @pytest.mark.parametrize('op, detail', [
        ('image', 'image 0 outside carrier of size 0'),
        ('inverse-image', 'expected 0 images, got 1'),
    ])
    def test_target_n_zero_is_read(self, capsys, tmp_path, op, detail):
        # --target-n 0 was dropped as if absent: exit 0 with a filter on 1 point
        base = write(tmp_path, 'b.json', {'n': 1, 'sets': [[0]]})
        mp = write(tmp_path, 'm.json', {'f': [0]})
        code, out, err = run(capsys, 'filter', '--op', op, '--base', base, '--map', mp,
                             '--target-n', '0')
        assert (code, err) == (1, '')
        assert json.loads(out) == {'error': 'UniverseMismatch', 'detail': detail}

    @pytest.mark.parametrize('op, f, n, core', [
        ('image', [2, 0], 3, [2]),
        ('inverse-image', [0, 1, 1], 3, [0]),
    ])
    def test_without_target_n_the_map_gives_the_other_carrier(self, capsys, tmp_path,
                                                              op, f, n, core):
        # image: 1 + the greatest image; inverse-image: the number of images
        base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[0]]})
        mp = write(tmp_path, 'm.json', {'f': f})
        code, out, err = run(capsys, 'filter', '--op', op, '--base', base, '--map', mp)
        assert (code, err) == (0, '')
        assert json.loads(out)['filter']['n'] == n
        assert json.loads(out)['core'] == core

    @pytest.mark.parametrize('argv, message', [
        (['generate'], 'filter --op generate needs --base'),
        (['ultra'], 'filter --op ultra needs --base'),
        (['extend'], 'filter --op extend needs --base'),
        (['sup'], 'filter --op sup needs --bases'),
        (['image', '--map', 'M'], 'filter --op image needs --base'),
        (['image', '--base', 'B'], 'filter --op image needs --map'),
        (['inverse-image', '--base', 'B'], 'filter --op inverse-image needs --map'),
    ])
    def test_an_op_without_its_option_is_a_usage_error(self, capsys, tmp_path, argv, message):
        # each was "input error: expected str, bytes or os.PathLike
        # object, not NoneType"
        files = {'B': {'n': 2, 'sets': [[0, 1]]}, 'M': {'f': [0, 1]}}
        argv = [write(tmp_path, a + '.json', files[a]) if a in files else a for a in argv]
        code, out, err = run(capsys, 'filter', '--op', *argv)
        assert code == 2 and out == ''
        assert err == 'usage error: %s\n' % message

class TestCont:
    def test_continuity_report(self, capsys, tmp_path):
        src = write(tmp_path, 's.json', SIERPINSKI)
        dst = write(tmp_path, 'd.json', SIERPINSKI)
        fmap = write(tmp_path, 'f.json', {'f': [0, 1]})
        code, out, _ = run(capsys, 'cont', '--src', src, '--dst', dst,
                           '--map', fmap)
        assert code == 0
        data = json.loads(out)
        assert data['continuous'] is True
        assert set(data['characterizations'].values()) == {True}
        assert data['open'] and data['closed']

    def test_pointwise(self, capsys, tmp_path):
        src = write(tmp_path, 's.json', SIERPINSKI)
        dst = write(tmp_path, 'd.json', SIERPINSKI)
        fmap = write(tmp_path, 'f.json', {'f': [1, 0]})
        code, out, _ = run(capsys, 'cont', '--src', src, '--dst', dst,
                           '--map', fmap, '--at', '1')
        assert code == 0
        assert json.loads(out) == {'continuous_at': True, 'point': 1}

    def test_homeo(self, capsys, tmp_path):
        src = write(tmp_path, 's.json', SIERPINSKI)
        dst = write(tmp_path, 'd.json', {'n': 2, 'sets': [[], [0], [0, 1]]})
        code, out, _ = run(capsys, 'cont', '--src', src, '--dst', dst, '--homeo')
        assert code == 0
        assert json.loads(out) == {'homeomorphic': True, 'witness': [1, 0]}

    @pytest.mark.parametrize('at', ['2', '-1'])
    @pytest.mark.parametrize('filters', [False, True])
    def test_point_off_the_carrier_is_refused(self, capsys, tmp_path, at, filters):
        # a point past the carrier raised an uncaught IndexError, and -1
        # was read from the end of the kernel and answered with exit 0
        src = write(tmp_path, 's.json', SIERPINSKI)
        fmap = write(tmp_path, 'f.json', {'f': [1, 0]})
        argv = ['cont', '--src', src, '--dst', src, '--map', fmap, '--at', at]
        if filters:
            base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[0, 1]]})
            argv += ['--fx', base, '--fy', base]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)['error'] == 'IndexOutOfRange'

    def test_filters_without_a_point_are_a_usage_error(self, capsys, tmp_path):
        src = write(tmp_path, 's.json', SIERPINSKI)
        fmap = write(tmp_path, 'f.json', {'f': [1, 0]})
        base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[0, 1]]})
        code, out, err = run(capsys, 'cont', '--src', src, '--dst', src, '--map', fmap,
                             '--fx', base, '--fy', base)
        assert code == 2 and out == ''
        assert err == 'usage error: cont --fx needs --at\n'

    def test_neither_map_nor_homeo_is_a_usage_error(self, capsys, tmp_path):
        src = write(tmp_path, 's.json', SIERPINSKI)
        code, out, err = run(capsys, 'cont', '--src', src, '--dst', src)
        assert code == 2 and out == ''
        assert 'one of the arguments --map --homeo is required' in err


class TestProductQuotient:
    def test_product(self, capsys, tmp_path):
        s = write(tmp_path, 's.json', SIERPINSKI)
        code, out, _ = run(capsys, 'product', s, s)
        assert code == 0
        data = json.loads(out)
        assert data['topology']['sets'] == [[], [3], [1, 3], [2, 3],
                                            [1, 2, 3], [0, 1, 2, 3]]
        assert data['projections'] == [[0, 0, 1, 1], [0, 1, 0, 1]]

    def test_quotient(self, capsys, tmp_path):
        s = write(tmp_path, 's.json', SIERPINSKI)
        classes = write(tmp_path, 'c.json', [[0, 1]])
        code, out, _ = run(capsys, 'quotient', '--space', s, '--classes', classes)
        assert code == 0
        data = json.loads(out)
        assert data['topology'] == {'n': 1, 'sets': [[], [0]]}
        assert data['class_map'] == [0, 0]

    def test_bad_partition_is_domain_error(self, capsys, tmp_path):
        s = write(tmp_path, 's.json', SIERPINSKI)
        classes = write(tmp_path, 'c.json', [[0]])
        code, out, _ = run(capsys, 'quotient', '--space', s, '--classes', classes)
        assert code == 1
        assert json.loads(out)['error'] == 'NotEquivalence'


class TestRoundTrip:
    """Each verb's output that holds a space or a filter, fed to the
    matching input option, reads back, or exits 2 with an input error
    that names the shape it expected."""

    READ_SPACE = ['analyze', '--space', 'OUT', '--set', '0']
    READ_BASE = ['filter', '--op', 'generate', '--base', 'OUT']

    @pytest.mark.parametrize('argv, read, shape', [
        (['generate', '--base', 'S'], READ_SPACE, None),
        (['product', 'S', 'S'], READ_SPACE, 'space'),
        (['quotient', '--space', 'S', '--classes', 'C'], READ_SPACE, 'space'),
        (['filter', '--op', 'generate', '--base', 'B'], READ_BASE, 'system'),
        (['filter', '--op', 'extend', '--base', 'B'], READ_BASE, 'system'),
        (['filter', '--op', 'sup', '--bases', 'BS'], READ_BASE, 'system'),
    ], ids=['generate', 'product', 'quotient', 'filter-generate', 'filter-extend', 'filter-sup'])
    def test_output_reads_back_or_names_its_shape(self, capsys, tmp_path, argv, read, shape):
        # a product read as a space was "input error: 'n'"
        files = {'S': SIERPINSKI, 'C': [[0, 1]], 'B': {'n': 2, 'sets': [[1]]},
                 'BS': [{'n': 2, 'sets': [[1]]}, {'n': 2, 'sets': [[1], [0, 1]]}]}
        code, out, _ = run(capsys, *[write(tmp_path, a + '.json', files[a]) if a in files else a
                                     for a in argv])
        assert code == 0
        back = write(tmp_path, 'out.json', json.loads(out))
        code, out, err = run(capsys, *[back if a == 'OUT' else a for a in read])
        if shape is None:
            assert (code, err) == (0, '')
        else:
            assert (code, out) == (2, '')
            assert err == 'input error: %s: expected an integer at $.n\n' % shape

    def test_each_enumerated_space_reads_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, 'enumerate', '--n', '3')
        assert code == 0
        for space in json.loads(out)['topologies']:
            code, _, err = run(capsys, 'analyze', '--space', write(tmp_path, 't.json', space),
                               '--set', '0')
            assert (code, err) == (0, '')


class TestInputShapes:
    @pytest.mark.parametrize('argv, files, message', [
        (['analyze', '--space', 'S', '--set', '0'], {'S': {'n': 2, 'sets': [[True]]}},
         'space: expected an integer at $.sets[0][0]'),
        (['cont', '--src', 'S', '--dst', 'S', '--map', 'F'],
         {'S': SIERPINSKI, 'F': {'f': [0, False]}}, 'map: expected an integer at $.f[1]'),
        (['check', '--net', 'N', '--space', 'S'],
         {'S': SIERPINSKI, 'N': {'domain': {'n': 1, 'leq': [[0, 0, 0]]}, 'values': [0]}},
         'net: expected a list of 2 at $.domain.leq[0]'),
        (['generate', '--family', 'F'],
         {'F': {'n': 2, 'members': [{'space': {'n': 2}, 'map': {'f': [0, 1]}}]}},
         'family: expected a list at $.members[0].space.sets'),
        (['generate', '--interval', 'P'], {'P': {'n': 1, 'pairs': [], 'flavor': 'total'}},
         "preorder: flavor must be 'strict' or 'reflexive'"),
        (['series', '--xs', 'XS'], {'XS': ['1', '3/-4']},
         "dyadics: Invalid literal for Fraction: '3/-4'"),
        (['analyze', '--space', 'S', '--set', '[0.5]'], {'S': SIERPINSKI},
         'set: expected an integer at $[0]'),
    ], ids=['true-as-point', 'false-as-image', 'triple-as-pair', 'nested-missing-key',
            'flavor', 'dyadic-text', 'set-text'])
    def test_a_value_off_its_shape_is_named(self, capsys, tmp_path, argv, files, message):
        # true was read as the point 1; each other case once exited 2 with
        # a message naming no shape
        argv = [write(tmp_path, a + '.json', files[a]) if a in files else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, '')
        assert err == 'input error: %s\n' % message

    def test_a_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path):
        p = tmp_path / 's.json'
        p.write_bytes(b'{"n": 1, "sets": [[], [0]], "name": "\xff"}')
        code, out, err = run(capsys, 'analyze', '--space', str(p), '--set', '0')
        assert (code, out) == (2, '')
        assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff")

    def test_an_integer_past_the_digit_limit_is_an_input_error(self, capsys, tmp_path):
        p = tmp_path / 's.json'
        p.write_text('{"n": %s, "sets": []}' % ('1' * 5000))
        code, out, err = run(capsys, 'analyze', '--space', str(p), '--set', '0')
        assert (code, out) == (2, '')
        assert err.startswith('input error: Exceeds the limit (4300 digits)')

    def test_every_shape_names_only_leaves_and_shapes(self):
        def words(shape):
            if isinstance(shape, dict):
                return set().union(*map(words, shape.values()))
            if isinstance(shape, list):
                return set().union(*(words(s) for s in shape if s != '...'))
            return {shape}
        assert jsonio.SHAPES['space'] == 'system'
        for name, shape in jsonio.SHAPES.items():
            assert words(shape) <= set(jsonio.LEAVES) | set(jsonio.SHAPES), name


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 65) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=6)


def valid(shape):
    """Values of the shape, or of the reader's shape so named, with an
    extra key now and then."""
    while isinstance(shape, str) and shape in jsonio.SHAPES:
        shape = jsonio.SHAPES[shape]
    if isinstance(shape, str):
        return {'int': st.integers(-2, 40), 'text': st.text(max_size=3),
                'number': st.integers(-2, 40) | st.floats() | st.text(max_size=3)}[shape]
    if isinstance(shape, dict):
        return st.fixed_dictionaries({k: valid(v) for k, v in shape.items()},
                                     optional={'extra': JUNK})
    if shape[-1] == '...':
        return st.lists(valid(shape[0]), max_size=4)
    return st.tuples(*map(valid, shape)).map(list)


def places(value, path=()):
    """The path to every value inside value, value itself first."""
    items = value.items() if type(value) is dict else (
        enumerate(value) if type(value) is list else ())
    return [path] + [p for key, v in items for p in places(v, path + (key,))]


@st.composite
def mangled(draw, name):
    """A value of the reader's shape with up to three places broken: a
    key or an item dropped, an item added, or a value replaced by junk."""
    value = draw(valid(name))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(places(value)))
        if not path:
            value = draw(JUNK)
            continue
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(['drop', 'junk', 'add']))
        if how == 'drop':
            del parent[path[-1]]
        elif how == 'junk':
            parent[path[-1]] = draw(JUNK)
        elif type(parent) is list:
            parent.insert(path[-1], draw(JUNK | st.just(parent[path[-1]])))
    return value


class TestCompiledShapes:
    """Each reader checks its input by a checker compiled from its shape
    once, with the verdict of the walk of the shape tree that it replaced
    (opens_reference.shape_mismatch)."""

    @given(st.sampled_from(sorted(jsonio.SHAPES)), st.data())
    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    def test_verdicts_match_the_walk(self, name, data):
        value = data.draw(mangled(name))
        assert jsonio._checker(name)(value) == ref.shape_mismatch(value, name)

    @pytest.mark.parametrize('value, found', [
        ({'n': 2, 'sets': [[0], [1, True]]}, ('.sets[1][1]', 'an integer')),
        ({'n': 2, 'sets': [[0], 'x']}, ('.sets[1]', 'a list')),
        ({'sets': []}, ('.n', 'an integer')),
        ([], ('', 'an object')),
        ({'n': 2, 'sets': []}, None)])
    def test_space_verdicts(self, value, found):
        assert jsonio._checker('space')(value) == found == ref.shape_mismatch(value, 'space')

    def test_each_reader_compiles_its_shape_once(self, monkeypatch):
        monkeypatch.setattr(jsonio, 'SHAPES', dict(jsonio.SHAPES))
        compiled = []
        checker = jsonio._checker
        monkeypatch.setattr(jsonio, '_checker', lambda shape: compiled.append(shape)
                            or checker(shape))

        @jsonio.reads('probe')
        def probe(data):
            """{"a": [int, ...], "b": set}"""
            return data['a']

        assert compiled == []
        assert probe({'a': [1], 'b': [0]}) == [1]
        assert probe({'a': [2], 'b': []}) == [2]
        with pytest.raises(InputError, match=r'probe: expected an integer at \$\.b\[0\]'):
            probe({'a': [], 'b': ['0']})
        assert compiled.count('probe') == 1

    def test_the_opens_of_16_points_read_in_bounded_time(self):
        # the 65,536 opens of the discrete space: measured at 0.14 s
        # in-process, the best of three (CPython 3.11, a shared 2-CPU
        # host), 0.17 to 0.21 s before the shapes were compiled
        data = json.loads(jsonio.dumps({'n': 16, 'sets': [points_of(m) for m in range(1 << 16)]}))
        best = float('inf')
        for _ in range(3):
            t0 = time.perf_counter()
            t = jsonio.topology_from_json(data)
            best = min(best, time.perf_counter() - t0)
        assert t.minimal_opens == tuple(1 << x for x in range(16))
        assert best < 1.0, best


class TestExactText:
    """root, series and check --invert write a Dyadic result's fraction
    from its mantissa and exponent, as the text of its Fraction."""

    @given(st.one_of(st.integers(-2 ** 2048, 2 ** 2048), st.sampled_from([0, 1, -1, 3])),
           st.integers(-2100, 2100))
    @settings(max_examples=300, deadline=None)
    def test_fraction_text(self, m, e):
        d = Dyadic(m, e)
        assert cli._exact('root', d) == {'root': str(d), 'fraction':
                                         jsonio.fraction_to_str(ref.to_fraction(d))}

    @pytest.mark.parametrize('m, e, fraction', [
        (0, 0, '0'), (0, -5, '0'), (3, 0, '3'), (-3, 2, '-12'), (-3, -3, '-3/8'),
        (1, -1, '1/2'), (12, -4, '3/4'), ((1 << 2048) - 1, -2048, None)])
    def test_cases(self, m, e, fraction):
        d = Dyadic(m, e)
        want = jsonio.fraction_to_str(ref.to_fraction(d))
        assert cli._exact('sum', d)['fraction'] == want == (fraction or want)


class TestNumericVerbs:
    def test_root(self, capsys):
        code, out, _ = run(capsys, 'root', '--a', '2', '--m', '2',
                           '--tol', '2^-4')
        assert code == 0
        assert json.loads(out) == {'fraction': '11/8', 'root': '11*2^-3'}

    def test_root_at_the_step_cap(self, capsys):
        # the square root of 2 on [0, 2] to 2^-8191: 8,192 steps at degree 2
        code, out, _ = run(capsys, 'root', '--a', '2', '--m', '2', '--tol', '2^-8191')
        assert code == 0
        r = Fraction(json.loads(out)['fraction'])
        tol = Fraction(1, 2 ** 8191)
        assert r * r <= 2 < (r + tol) * (r + tol)

    def test_root_past_the_step_cap_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'root', '--a', '2', '--m', '2',
                           '--tol', '2^-100000000')
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'

    def test_root_of_a_far_argument_fails_fast(self, capsys):
        # the grid endpoint max(a, 1) would be a 4 * 10^8-bit integer
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'root', '--a', '2^400000000', '--m', '2', '--tol', '1')
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'

    def test_series_geometric(self, capsys):
        code, out, _ = run(capsys, 'series', '--geom', '1/2', '--terms', '10')
        assert code == 0
        assert json.loads(out)['fraction'] == '2047/1024'

    def test_long_geometric_series_fails_fast(self, capsys):
        # 10^7 terms of 3/4 would add about 4 * 10^7 bits, quadratically
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'series', '--geom', '3/4', '--terms', '10000000')
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'

    def test_long_geometric_series_of_zero_is_one(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'series', '--geom', '0', '--terms', '1000000000')
        assert time.perf_counter() - t0 < 1
        assert code == 0
        assert json.loads(out)['fraction'] == '1'

    def test_series_limit_non_dyadic_is_domain_error(self, capsys):
        code, out, _ = run(capsys, 'series', '--geom', '1/4', '--limit')
        assert code == 1
        data = json.loads(out)
        assert data['error'] == 'NonDyadicClosedForm'

    def test_series_limit_long_pair(self, capsys):
        # the pair passes the 4300 digits of int-to-str conversion
        code, out, _ = run(capsys, 'series', '--geom', '2^-20000', '--limit')
        assert code == 1
        data = json.loads(out)
        assert data['error'] == 'NonDyadicClosedForm'
        assert data['detail'] == 'closed form %s/%s is not a dyadic rational' % (
            Decimal(1 << 20000), Decimal((1 << 20000) - 1))

    @pytest.mark.parametrize('geom', ['2^-1000000', '1*2^-40273750'])
    def test_series_limit_far_is_capped(self, capsys, geom):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'series', '--geom=' + geom, '--limit')
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'

    def test_series_limit_dyadic(self, capsys):
        code, out, _ = run(capsys, 'series', '--geom', '1/2', '--limit')
        assert code == 0
        assert json.loads(out) == {'limit': '1*2^1'}

    def test_finite_series(self, capsys, tmp_path):
        xs = write(tmp_path, 'xs.json', ['1', '1/2', '1/4'])
        code, out, _ = run(capsys, 'series', '--xs', xs, '--start', '1',
                           '--end', '3')
        assert code == 0
        assert json.loads(out)['fraction'] == '7/4'

    @pytest.mark.parametrize('top', ['2^1000000', '2^10000000'])
    def test_long_finite_series_fails_fast(self, capsys, tmp_path, top):
        # 2^1000000 + 1 took 1.55 s and printed 301k digits
        xs = write(tmp_path, 'xs.json', [top, '1'])
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'series', '--xs', xs, '--start', '1', '--end', '2')
        assert time.perf_counter() - t0 < 0.1
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'

    def test_check_cauchy_schwarz(self, capsys, tmp_path):
        data = write(tmp_path, 'v.json', {'x': ['1', '1/2'], 'y': ['3', '2']})
        code, out, _ = run(capsys, 'check', '--cauchy-schwarz', data)
        assert code == 0
        rep = json.loads(out)
        assert rep['cauchy_schwarz'] is True and rep['sandwich'] is True

    def test_check_metric_classification(self, capsys, tmp_path):
        m = write(tmp_path, 'm.json', {'n': 2, 'd': [['0', '1'], ['2', '0']]})
        code, out, _ = run(capsys, 'check', '--metric', m)
        assert code == 0
        rep = json.loads(out)
        assert rep['classification'] == 'invalid'
        assert rep['reason'] == 'symmetry'

    def test_check_invert(self, capsys, tmp_path):
        # invert p(x) = x at 3/8 -- the exact preimage comes back
        data = write(tmp_path, 'i.json',
                     {'poly': ['0', '1'], 'a': '0', 'b': '1',
                      'w': '3/8', 'tol': '2^-20'})
        code, out, _ = run(capsys, 'check', '--invert', data)
        assert code == 0
        assert json.loads(out)['fraction'] == '3/8'

    def test_check_invert_past_the_int_digit_limit(self, capsys, tmp_path):
        # 3x = 1 to 2^-15000 on [0, 1]: the left end floor(2^15000 / 3) /
        # 2^15000, with a numerator of 4,515 digits
        data = write(tmp_path, 'i.json',
                     {'poly': ['0', '3'], 'a': '0', 'b': '1',
                      'w': '1', 'tol': '2^-15000'})
        code, out, _ = run(capsys, 'check', '--invert', data)
        assert code == 0
        num = (2 ** 15000 - 1) // 3
        assert json.loads(out) == {'fraction': '%s/%s' % (Decimal(num), Decimal(2 ** 15000)),
                                   'result': '%s*2^-15000' % Decimal(num)}

    def test_check_invert_reads_back_its_exact_result(self, capsys, tmp_path):
        # the 4,515-digit result of 3x = 1 to 2^-15000, given back as the
        # left end, is read exactly and stays the left end
        inv = {'poly': ['0', '3'], 'a': '0', 'b': '1', 'w': '1', 'tol': '2^-15000'}
        code, out, _ = run(capsys, 'check', '--invert', write(tmp_path, 'i.json', inv))
        result = json.loads(out)['result']
        inv['a'] = result
        code, out, _ = run(capsys, 'check', '--invert', write(tmp_path, 'j.json', inv))
        assert code == 0
        assert json.loads(out)['result'] == result

    def test_metric_past_the_int_digit_limit(self, capsys, tmp_path):
        far = '%s/3' % ('7' * 5000)
        data = write(tmp_path, 'm.json', {'n': 2, 'd': [['0', far], [far, '0']]})
        code, out, _ = run(capsys, 'generate', '--metric', data)
        assert code == 0
        assert json.loads(out) == {'n': 2, 'sets': [[], [0], [1], [0, 1]]}
        code, out, _ = run(capsys, 'check', '--metric', data)
        assert code == 0
        assert json.loads(out) == {'classification': 'metric', 'reason': None,
                                   'witness': None}

    def test_check_invert_from_a_far_endpoint_fails_fast(self, capsys, tmp_path):
        data = write(tmp_path, 'i.json',
                     {'poly': ['0', '0', '1'], 'a': '2^-8000000', 'b': '1',
                      'w': '1/2', 'tol': '2^-30'})
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'check', '--invert', data)
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert json.loads(out)['error'] == 'CapExceeded'

    def test_check_invert_bracket_error(self, capsys, tmp_path):
        data = write(tmp_path, 'i.json',
                     {'poly': ['0', '1'], 'a': '0', 'b': '1',
                      'w': '2', 'tol': '2^-4'})
        code, out, _ = run(capsys, 'check', '--invert', data)
        assert code == 1
        assert json.loads(out)['error'] == 'BracketViolation'

    def test_check_net(self, capsys, tmp_path):
        space = write(tmp_path, 't.json', SIERPINSKI)
        net = write(tmp_path, 'n.json',
                    {'domain': {'n': 2, 'leq': [[0, 1]]}, 'values': [0, 1]})
        code, out, _ = run(capsys, 'check', '--net', net, '--space', space)
        assert code == 0
        assert json.loads(out) == {'cluster': [0, 1], 'limits': [0, 1]}

    @pytest.mark.parametrize('leq, answer', [
        ([], {'error': 'NotDirected', 'detail': 'elements 0 and 1 have no upper bound'}),
        ([[i, 8191] for i in range(8191)], {'cluster': [0], 'limits': [0]}),
    ], ids=['no-pairs', 'top-element'])
    def test_check_net_on_a_large_domain_in_bounded_time(self, capsys, tmp_path, leq, answer):
        # 8,192 domain elements, the most a directed set takes: the points
        # of a mask are walked bit by bit, and a domain whose upper cones
        # share a point is directed without a search over its pairs.
        # Measured 0.03 s and 0.08 s, where 8,000 elements took 8.5 s and
        # 61 s before both (CPython 3.11, shared 2-CPU host)
        space = write(tmp_path, 't.json', {'n': 1, 'sets': [[], [0]]})
        net = write(tmp_path, 'n.json',
                    {'domain': {'n': 8192, 'leq': leq}, 'values': [0] * 8192})
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'check', '--net', net, '--space', space)
        assert time.perf_counter() - t0 < 2
        assert (code, json.loads(out)) == (1 if 'error' in answer else 0, answer)

    def test_check_net_past_the_domain_cap_exits_1_at_once(self, capsys, tmp_path):
        # 32,000 elements below one top took 1.0 s at 156 MiB max RSS
        # before the cap, and are refused in 0.08 s at 23 MiB, most of it
        # reading the JSON (CPython 3.11, shared 2-CPU host)
        space = write(tmp_path, 't.json', {'n': 1, 'sets': [[], [0]]})
        net = write(tmp_path, 'n.json',
                    {'domain': {'n': 32000, 'leq': [[i, 31999] for i in range(31999)]},
                     'values': [0] * 32000})
        t0 = time.perf_counter()
        code, out, _ = run(capsys, 'check', '--net', net, '--space', space)
        assert time.perf_counter() - t0 < 0.5
        assert (code, json.loads(out)) == (1, {
            'error': 'CapExceeded', 'detail': 'directed set of 32000 elements, more than 8192'})


class TestVerify:
    def test_operator_suite_passes(self, capsys):
        code, out, _ = run(capsys, 'verify', '--suite', 'operators', '--n', '2')
        assert code == 0
        data = json.loads(out)
        assert data['failed'] == 0 and data['total'] > 0

    def test_all_suites_run_clean(self, capsys):
        from fintopo.verify import SUITES
        for suite in SUITES:
            code, out, _ = run(capsys, 'verify', '--suite', suite, '--n', '2')
            assert code == 0, suite
            assert json.loads(out)['failed'] == 0


    @pytest.mark.parametrize('argv', [
        ['enumerate', '--n', '-1'],
        ['enumerate', '--count-only', '--n', '-1'],
        *(['verify', '--suite', suite, '--n', '-1']
          for suite in ('continuity', 'operators', 'kuratowski', 'filters', 'neighborhoods',
                        'convergence', 'metric', 'numeric')),
        ['verify', '--suite', 'convergence', '--n', '21'],
    ])
    def test_carrier_off_the_range_is_a_cap(self, capsys, argv):
        # a negative n was "input error: negative shift count", exit 2; a
        # suite names its own range
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, '')
        if argv[0] == 'verify':
            detail = 'suite %s needs %d <= n <= %d' % (argv[2], *self.RANGES[argv[2]])
        else:
            detail = 'carrier size %s outside 0..20' % argv[-1]
        assert json.loads(out) == {'error': 'CapExceeded', 'detail': detail}

    RANGES = {'operators': (0, 3), 'kuratowski': (0, 4), 'neighborhoods': (0, 3),
              'filters': (0, 4), 'continuity': (0, 3), 'convergence': (0, 3),
              'metric': (1, 5), 'numeric': (0, 20)}

    @pytest.mark.parametrize('suite', RANGES)
    def test_each_suite_refuses_past_its_range(self, capsys, suite):
        # the seven suites that read n each refused past their greatest n
        # with a message of their own, and the metric suite below its least
        lo, hi = self.RANGES[suite]
        for n in (lo - 1, hi + 1):
            code, out, err = run(capsys, 'verify', '--suite', suite, '--n', str(n))
            assert (code, err) == (1, '')
            assert json.loads(out) == {'error': 'CapExceeded',
                                       'detail': 'suite %s needs %d <= n <= %d' % (suite, lo, hi)}


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, out, err = run(capsys, 'generate', '--base', '/nope/missing.json')
        assert code == 2
        assert 'input error' in err

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        p = tmp_path / 'bad.json'
        p.write_text('{not json')
        code, out, err = run(capsys, 'generate', '--base', str(p))
        assert code == 2

    def test_unknown_verb(self, capsys):
        code, out, err = run(capsys, 'frobnicate')
        assert code == 2

    @pytest.mark.parametrize('verb, first, second', [
        ('check', '--metric', '--invert'),
        ('analyze', '--preorder', '--metric'),
        ('series', '--geom', '--xs'),
    ])
    def test_two_inputs_are_a_usage_error(self, capsys, tmp_path, verb, first, second):
        # each once answered the first input and exited 0
        code, out, err = run(capsys, verb, first, write(tmp_path, 'a.json', {}),
                             second, write(tmp_path, 'b.json', {}))
        assert code == 2 and out == ''
        assert 'not allowed with argument' in err

    # (argv, message, the message before the option table named the
    # ids, or None where it is unchanged)
    DROPPED = [
        (['cont', '--src', 'S', '--dst', 'S', '--homeo', '--at', '0'],
         'cont --homeo does not read --at', '--at, --fx and --fy need --map'),
        (['cont', '--src', 'S', '--dst', 'S', '--homeo', '--fx', 'B'],
         'cont --homeo does not read --fx', '--at, --fx and --fy need --map'),
        (['cont', '--src', 'S', '--dst', 'S', '--homeo', '--fy', 'B'],
         'cont --homeo does not read --fy', '--at, --fx and --fy need --map'),
        (['cont', '--src', 'S', '--dst', 'S', '--map', 'F', '--fx', 'B', '--at', '1'],
         'cont --fx needs --fy', '--fx needs --fy'),
        (['cont', '--src', 'S', '--dst', 'S', '--map', 'F', '--fy', 'B', '--at', '1'],
         'cont --fy needs --fx', '--fy needs --fx'),
        (['analyze', '--preorder', 'P', '--set', '0'], 'analyze --preorder does not read --set',
         '--set needs --space or --metric'),
        (['series', '--geom', '1/2', '--start', '5'], 'series --geom does not read --start',
         '--start and --end need --xs'),
        (['series', '--geom', '1/2', '--end', '5'], 'series --geom does not read --end',
         '--start and --end need --xs'),
        (['series', '--geom', '1/2', '--limit', '--terms', '3'],
         'series --limit does not read --terms', '--limit excludes --terms'),
        (['series', '--xs', 'XS', '--terms', '3'], 'series --xs does not read --terms',
         '--terms and --limit need --geom'),
        (['series', '--xs', 'XS', '--limit'], 'series --xs does not read --limit',
         '--terms and --limit need --geom'),
        (['check', '--cauchy-schwarz', 'V', '--space', 'S'],
         'check --cauchy-schwarz does not read --space', '--space needs --base or --net'),
        (['check', '--metric', 'M', '--space', 'S'], 'check --metric does not read --space',
         '--space needs --base or --net'),
        (['check', '--invert', 'I', '--space', 'S'], 'check --invert does not read --space',
         '--space needs --base or --net'),
        (['filter', '--op', 'generate', '--base', 'B', '--map', 'F'],
         'filter --op generate does not read --map', None),
        (['filter', '--op', 'generate', '--base', 'B', '--bases', 'BS'],
         'filter --op generate does not read --bases', None),
        (['filter', '--op', 'ultra', '--base', 'B', '--target-n', '2'],
         'filter --op ultra does not read --target-n', None),
        (['filter', '--op', 'extend', '--base', 'B', '--map', 'F'],
         'filter --op extend does not read --map', None),
        (['filter', '--op', 'sup', '--bases', 'BS', '--base', 'B'],
         'filter --op sup does not read --base', None),
        (['filter', '--op', 'sup', '--bases', 'BS', '--target-n', '0'],
         'filter --op sup does not read --target-n', None),
        (['filter', '--op', 'image', '--base', 'B', '--map', 'F', '--bases', 'BS'],
         'filter --op image does not read --bases', None),
    ]

    @pytest.mark.parametrize('argv, message', [
        pytest.param(argv, message, id='argv%d-%s' % (i, was or message))
        for i, (argv, message, was) in enumerate(DROPPED)])
    def test_an_option_the_input_drops_is_a_usage_error(self, capsys, tmp_path, argv, message):
        # each once answered its input without the other option, exit 0
        files = {'S': SIERPINSKI, 'F': {'f': [1, 0]}, 'B': {'n': 2, 'sets': [[0, 1]]},
                 'BS': [{'n': 2, 'sets': [[0, 1]]}],
                 'P': {'n': 2, 'pairs': [[0, 1]], 'flavor': 'strict'},
                 'XS': ['1', '1/2', '1/4'], 'V': {'x': ['1', '1/2'], 'y': ['3', '2']},
                 'M': {'n': 2, 'd': [['0', '1'], ['1', '0']]},
                 'I': {'poly': ['0', '1'], 'a': '0', 'b': '1', 'w': '3/8', 'tol': '2^-20'}}
        argv = [write(tmp_path, a + '.json', files[a]) if a in files else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ''
        assert err == 'usage error: %s\n' % message

    @pytest.mark.parametrize('verb, option, data, read_as', [
        ('check', '--invert', {'poly': ['0', 1], 'a': 0, 'b': 1.0, 'w': '3/8', 'tol': 0.0625},
         {'poly': ['0', '1'], 'a': '0', 'b': '1', 'w': '3/8', 'tol': '2^-4'}),
        ('series', '--xs', [1, 0.5, '1/4'], ['1', '1/2', '1/4']),
        ('check', '--cauchy-schwarz', {'x': [1, 0.5], 'y': [3, '2']},
         {'x': ['1', '1/2'], 'y': ['3', '2']}),
    ], ids=['invert', 'series', 'cauchy-schwarz'])
    def test_a_json_number_is_read_exactly(self, capsys, tmp_path, verb, option, data, read_as):
        # each raised AttributeError: 'int' object has no attribute 'strip'
        code, out, _ = run(capsys, verb, option, write(tmp_path, 'a.json', data))
        assert code == 0
        assert (code, out) == run(capsys, verb, option, write(tmp_path, 'b.json', read_as))[:2]

    @pytest.mark.parametrize('argv, files', [
        (['root', '--a', '1/0', '--m', '2', '--tol', '1'], {}),
        (['root', '--a', '2', '--m', '2', '--tol', '0/0'], {}),
        (['generate', '--metric', 'M'], {'M': {'n': 2, 'd': [['0', '1/0'], ['1/0', '0']]}}),
        (['check', '--metric', 'M'], {'M': {'n': 2, 'd': [[0, float('inf')], [1, 0]]}}),
        (['series', '--xs', 'XS'], {'XS': ['1', '3/0']}),
    ], ids=['root-a', 'root-tol', 'generate-metric', 'check-metric-infinity', 'series'])
    def test_a_zero_denominator_is_an_input_error(self, capsys, tmp_path, argv, files):
        # each raised ZeroDivisionError (OverflowError for the infinity)
        argv = [write(tmp_path, a + '.json', files[a]) if a in files else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, '')
        assert err.startswith('input error: ')

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, '--format', 'table', 'enumerate', '--n', '2',
                           '--count-only')
        assert code == 0
        assert 'count: 4' in out


class TestErrorSurface:
    """Each typed error class reachable from the CLI surfaces with its
    name in the JSON payload and exit status 1."""

    def check(self, capsys, expected, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)['error'] == expected

    def test_base_criterion(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json', {'n': 2, 'sets': [[0]]})
        self.check(capsys, 'BaseCriterionViolation', 'generate', '--base', f)

    def test_base_of_a_space_that_is_not_a_topology(self, capsys, tmp_path):
        # the space is refused as it is read, before is_base_of runs
        space = write(tmp_path, 's.json', {'n': 2, 'sets': [[], [0], [1]]})
        base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[], [0], [1]]})
        self.check(capsys, 'BaseCriterionViolation', 'check', '--base', base,
                   '--space', space)

    def test_subbase_criterion(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json', {'n': 2, 'sets': [[0], [0, 1]]})
        self.check(capsys, 'SubbaseCriterionViolation', 'generate', '--subbase', f)

    def test_closed_axioms(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json', {'n': 3, 'sets': [[], [0], [1], [0, 1, 2]]})
        self.check(capsys, 'ClosedAxiomViolation', 'generate', '--closed', f)

    def test_neighborhood_axioms(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json', {'n': 2, 'pairs': [[0, [0]]]})
        self.check(capsys, 'NeighborhoodAxiomViolation', 'generate',
                   '--neighborhoods', f)

    def test_invalid_metric(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json', {'n': 2, 'd': [['0', '1'], ['2', '0']]})
        self.check(capsys, 'InvalidMetric', 'generate', '--metric', f)

    def test_no_full_field(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json', {'n': 2, 'pairs': [], 'flavor': 'strict'})
        self.check(capsys, 'NoFullField', 'generate', '--interval', f)

    def test_missing_full_domain(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json',
                  {'n': 2, 'pairs': [[0, 1]], 'flavor': 'strict'})
        self.check(capsys, 'MissingFullDomain', 'generate', '--interval', f,
                   '--side', 'lower')

    def test_missing_full_range(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json',
                  {'n': 2, 'pairs': [[0, 1]], 'flavor': 'strict'})
        self.check(capsys, 'MissingFullRange', 'generate', '--interval', f,
                   '--side', 'upper')

    def test_not_directed(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json',
                  {'n': 3, 'pairs': [[0, 1], [1, 2]], 'flavor': 'strict'})
        self.check(capsys, 'NotDirected', 'analyze', '--preorder', f)

    def test_not_surjective(self, capsys, tmp_path):
        base = write(tmp_path, 'b.json', {'n': 2, 'sets': [[0]]})
        fmap = write(tmp_path, 'f.json', {'f': [0, 0]})
        self.check(capsys, 'NotSurjective', 'filter', '--op', 'inverse-image',
                   '--base', base, '--map', fmap, '--target-n', '2')

    def test_kuratowski(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json',
                  {'n': 1, 'table': [[[], [0]], [[0], [0]]]})
        self.check(capsys, 'KuratowskiViolation', 'generate', '--closure-op', f)

    def test_interior_axioms(self, capsys, tmp_path):
        f = write(tmp_path, 'x.json',
                  {'n': 1, 'table': [[[], []], [[0], []]]})
        self.check(capsys, 'InteriorAxiomViolation', 'generate',
                   '--interior-op', f)

    def test_cluster_precondition(self, capsys, tmp_path):
        src = write(tmp_path, 's.json', {'n': 2, 'sets': [[], [0], [1], [0, 1]]})
        dst = write(tmp_path, 'd.json', {'n': 2, 'sets': [[], [0], [1], [0, 1]]})
        fmap = write(tmp_path, 'f.json', {'f': [0, 1]})
        fx = write(tmp_path, 'fx.json', {'n': 2, 'sets': [[1]]})
        fy = write(tmp_path, 'fy.json', {'n': 2, 'sets': [[0]]})
        self.check(capsys, 'ClusterPreconditionFailed', 'cont', '--src', src,
                   '--dst', dst, '--map', fmap, '--fx', fx, '--fy', fy,
                   '--at', '0')

    def test_non_dyadic_literal(self, capsys):
        self.check(capsys, 'NonDyadicLiteral', 'root', '--a', '1/3',
                   '--m', '2', '--tol', '2^-4')

    def test_index_out_of_range(self, capsys, tmp_path):
        xs = write(tmp_path, 'xs.json', ['1'])
        self.check(capsys, 'IndexOutOfRange', 'series', '--xs', xs,
                   '--start', '1', '--end', '2')
