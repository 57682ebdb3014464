"""Shared helpers: independent oracles used to cross-check the library,
the random preorders (as U_x kernels) that hypothesis tests draw, and
the chain and fence preorders the order tests build.

The oracles here deliberately use the definition-by-enumeration route
(subfamilies, direct scans) rather than the fixed-point implementations
in the package, so they can serve as independent references.

The fixture top_level_parse_agrees checks each argv that `topo`'s main
parses against the top-level parser alone, the route every argv took
before main parsed with the verb's own parser.
"""

import contextlib
import io
from itertools import combinations

import pytest
from hypothesis import strategies as st

from fintopo import cli
from fintopo.order import Preorder
from fintopo.setops import SetSystem, full_mask, points_of
from fintopo.topology import Topology


def all_systems(n):
    """Every set system on {0..n-1} (2^(2^n) of them)."""
    for bits in range(1 << (1 << n)):
        yield SetSystem(n, [m for m in range(1 << n) if bits >> m & 1])


def psi_oracle(system):
    """Intersections of all nonempty subfamilies, by enumeration."""
    out = set()
    sets = system.sets
    for k in range(1, len(sets) + 1):
        for combo in combinations(sets, k):
            cap = combo[0]
            for m in combo[1:]:
                cap &= m
            out.add(cap)
    return SetSystem(system.n, out)


def theta_oracle(system):
    """Unions of all nonempty subfamilies, by enumeration."""
    out = set()
    sets = system.sets
    for k in range(1, len(sets) + 1):
        for combo in combinations(sets, k):
            cup = 0
            for m in combo:
                cup |= m
            out.add(cup)
    return SetSystem(system.n, out)


def phi_oracle(system):
    """Supersets by direct scan over the whole powerset."""
    out = set()
    for cand in range(1 << system.n):
        if any(m & ~cand == 0 for m in system.sets):
            out.add(cand)
    return SetSystem(system.n, out)


def is_topology_oracle(system):
    """Direct axiom scan, closed under all subfamily unions/intersections."""
    members = set(system.sets)
    if 0 not in members or full_mask(system.n) not in members:
        return False
    t = theta_oracle(system)
    p = psi_oracle(system)
    return set(t.sets) <= members and set(p.sets) <= members


# every view a Topology derives from its kernel and keeps, each a
# cached_property; test_kernel.py checks the list is complete
VIEWS = ('point_closures', 'closure_table', 'closure_bytes', 'derived_bytes', 'minimal_base')


def topology_of_preorder(u):
    """The Alexandrov topology of U: its opens are the up-sets."""
    n = len(u)
    opens = [a for a in range(1 << n) if all(u[x] & ~a == 0 for x in points_of(a))]
    return Topology(n, opens)


@st.composite
def preorders(draw, min_n=1, max_n=6):
    """U of a random preorder on min_n to max_n points: a random
    relation made reflexive and transitive."""
    n = draw(st.integers(min_n, max_n))
    u = [draw(st.integers(0, full_mask(n))) | 1 << x for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            grown = u[x]
            for y in points_of(u[x]):
                grown |= u[y]
            if grown != u[x]:
                u[x], changed = grown, True
    return tuple(u)


def chain(n, flavor='strict'):
    """The total order 0 < 1 < ... < n-1 (or <= in reflexive flavor)."""
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i < j or (flavor == 'reflexive' and i == j)]
    return Preorder(n, pairs, flavor)


def fence(n):
    """A zigzag order: 0 < 1 > 2 < 3 > ...  (strict flavor)."""
    pairs = []
    for i in range(n - 1):
        if i % 2 == 0:
            pairs.append((i, i + 1))
        else:
            pairs.append((i + 1, i))
    # transitive closure is the relation itself for a fence
    return Preorder(n, pairs, 'strict')


def parsed(parse, argv):
    """What parse makes of argv: the namespace's attributes, or the exit
    status and the stdout and stderr of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.fixture
def top_level_parse_agrees(monkeypatch):
    """While a test runs, every argv that cli.main parses is parsed by
    the top-level parser alone too, and must come out the same."""
    parse_args = cli.parse_args

    def checked(argv):
        assert parsed(parse_args, argv) == parsed(cli.build_parser().parse_args, argv), argv
        return parse_args(argv)
    monkeypatch.setattr(cli, 'parse_args', checked)
