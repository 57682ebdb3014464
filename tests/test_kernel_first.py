"""A Topology is kept as its kernel U, and its opens are built only when
something reads them.

Spaces built from a kernel are compared with Topology(n, opens) of the
same space and with the opens-reading readers kept in
opens_reference.py: on every topology with n <= 4, with hypothesis on
random preorders with n <= 8, and pairwise for n <= 3.  On 20-point
kernels the questions that need no opens are asked with the opens
builder made to raise, under a time and a tracemalloc bound.
"""

import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings

import opens_reference as ref
from conftest import VIEWS, all_systems, fence, preorders, topology_of_preorder
from fintopo import topology
from fintopo.closure import (analyze_subset, closure, closure_operator_of, interior,
                             interior_operator_of, topology_from_closure_operator,
                             topology_from_interior_operator)
from fintopo.errors import UniverseMismatch
from fintopo.setops import SetSystem, full_mask
from fintopo.topology import (Topology, compare, discrete_topology, enumerate_topologies,
                              indiscrete_topology, is_base_of, is_finer, minimal_base,
                              sierpinski, topology_from_closed_system)

KERNELS = [t.minimal_opens for n in range(5) for t in enumerate_topologies(n)]


def built(t):
    """Whether the opens of t are built (their slot is filled)."""
    return t._opens is not None


def assert_kernel_space_matches_eager(u):
    """The space built from u answers as Topology(n, opens) of the same
    space does under the opens-reading readers, before and after its
    opens are built, and builds them as the reference union closure."""
    n = len(u)
    lazy, eager = Topology.from_kernel(n, u), topology_of_preorder(u)
    assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
    masks = range(-2, 1 << n + 1)
    is_open = [lazy.is_open(m) for m in masks]
    is_closed = [lazy.is_closed(m) for m in masks]
    assert not built(lazy)
    assert is_open == [ref.is_open(eager, m) for m in masks] == [eager.is_open(m) for m in masks]
    assert is_closed == [ref.is_closed(eager, m) for m in masks] == [eager.is_closed(m)
                                                                    for m in masks]
    assert lazy.opens == ref.union_closure(n, u) == eager.opens
    assert ref.same_topology(lazy, eager)
    assert built(lazy) and lazy.opens is lazy.opens
    assert [lazy.is_open(m) for m in masks] == is_open
    assert [lazy.is_closed(m) for m in masks] == is_closed


class TestAgainstTheEagerReaders:
    def test_every_topology_n4(self):
        for u in KERNELS:
            assert_kernel_space_matches_eager(u)

    @given(preorders(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_random_preorders_n8(self, u):
        assert_kernel_space_matches_eager(u)

    def test_comparisons_on_every_pair_n3(self):
        for n in range(4):
            lazies = [Topology.from_kernel(n, t.minimal_opens) for t in enumerate_topologies(n)]
            eagers = [topology_of_preorder(t.minimal_opens) for t in lazies]
            for (l1, e1), (l2, e2) in product(zip(lazies, eagers), repeat=2):
                assert is_finer(l1, l2) == is_finer(e1, e2) == ref.is_finer(e1, e2)
                assert compare(l1, l2) == compare(e1, l2) == ref.compare(e1, e2)
                assert (l1 == l2) == ref.same_topology(e1, e2)
            assert not any(map(built, lazies))

    def test_base_of_on_every_system_n3(self):
        for n in range(4):
            lazies = [Topology.from_kernel(n, t.minimal_opens) for t in enumerate_topologies(n)]
            for s, t in product(all_systems(n), lazies):
                eager = topology_of_preorder(t.minimal_opens)
                assert is_base_of(s, t) == is_base_of(s, eager) == ref.is_base_of(s, eager)
            assert not any(map(built, lazies))

    def test_finer_needs_one_carrier(self):
        for t1, t2 in ((sierpinski(), discrete_topology(3)),
                       (topology_of_preorder((1, 2)), topology_of_preorder((7, 7, 7)))):
            with pytest.raises(UniverseMismatch) as mine:
                is_finer(t1, t2)
            with pytest.raises(UniverseMismatch) as theirs:
                ref.is_finer(t1, t2)
            assert str(mine.value) == str(theirs.value)


class TestKernelBuilders:
    def test_builders_make_no_opens(self):
        spaces = [Topology.from_kernel(3, (1, 3, 7)), discrete_topology(4),
                  indiscrete_topology(4), sierpinski()]
        for t in enumerate_topologies(4):
            spaces += [topology_from_closed_system(t.closed_sets()),
                       topology_from_closure_operator(closure_operator_of(t)),
                       topology_from_interior_operator(interior_operator_of(t))]
            assert spaces[-3] == spaces[-2] == spaces[-1] == t
        assert not any(map(built, spaces))
        assert discrete_topology(4).opens == ref.union_closure(4, [1, 2, 4, 8])
        assert indiscrete_topology(4).opens.sets == (0, 15)
        assert sierpinski().opens.sets == (0, 2, 3)

    def test_opens_cannot_be_assigned(self):
        t = sierpinski()
        with pytest.raises(AttributeError):
            t.opens = t.opens

    def test_views_hold_no_reference_to_the_space(self):
        t = Topology.from_kernel(3, (1, 3, 7))
        for name in VIEWS:
            getattr(t, name)
        assert sorted(vars(t)) == sorted(VIEWS)
        assert all(value is not t for value in vars(t).values())
        assert not built(t)
        assert t.closed_sets() == SetSystem(3, [7 ^ o for o in t.opens])


def chain_kernel(n):
    """0 < 1 < ... < n-1: U_x holds x and every point below it."""
    return [(2 << x) - 1 for x in range(n)]


def fence_kernel(n):
    """The fence of conftest.fence, 0 < 1 > 2 < 3 > ...: U_x holds x and
    the points below it."""
    p = fence(n)
    return [1 << x | sum(1 << y for y in range(n) if p.rel(y, x)) for x in range(n)]


BIG = {'discrete': [1 << x for x in range(20)], 'chain': chain_kernel(20),
       'fence': fence_kernel(20)}

MASKS_20 = [0, 1, 0b1011, 0x5A5A5, 0xFFFFF, 1 << 19, -1, -2, 1 << 20, ~0xFFFFF]


def ask_without_opens(u):
    """Every question that needs no opens, asked of a 20-point space
    built from u and of a second copy."""
    n = len(u)
    t, again = Topology.from_kernel(n, u), Topology.from_kernel(n, list(u))
    out = [t == again, hash(t) == hash(again), t.shape_key, minimal_base(t),
           is_finer(t, again), is_finer(t, topology.discrete_topology(n))]
    for a in MASKS_20:
        out += [closure(t, a), interior(t, a), t.is_open(a), t.is_closed(a)]
        if 0 <= a <= full_mask(n):
            out.append(analyze_subset(t, a))
    return t, out


class TestTwentyPoints:
    def test_answers_without_the_opens(self, monkeypatch):
        def no_opens(masks, n):
            raise AssertionError('opens built')

        answers = {name: ask_without_opens(u)[1] for name, u in BIG.items()}
        monkeypatch.setattr(topology, 'union_closure', no_opens)
        for name, u in BIG.items():
            t, out = ask_without_opens(u)
            assert out == answers[name]
            assert repr(t) == 'Topology.from_kernel(20, %r)' % list(u)
            assert eval(repr(t), {'Topology': Topology}) == t
            assert not built(t)
            with pytest.raises(AssertionError, match='opens built'):
                t.opens

    def test_answers_match_the_kernel_loops(self):
        for u in BIG.values():
            t, _ = ask_without_opens(u)
            full = full_mask(20)
            for a in MASKS_20:
                assert closure(t, a) == ref.kernel_closure(t, a)
                assert interior(t, a) == ref.kernel_interior(t, a)
                inside = a & full == a
                assert t.is_open(a) == (inside and ref.kernel_interior(t, a) == a)
                assert t.is_closed(a) == (inside and ref.kernel_closure(t, a) == a)
        discrete, chain = (Topology.from_kernel(20, BIG[k]) for k in ('discrete', 'chain'))
        assert compare(discrete, chain) == 'strictly-finer'
        assert minimal_base(chain).sets == (0,) + tuple(chain_kernel(20))

    def test_bounded_time(self):
        # measured: about 0.3 ms per space, against 1.3 s for the
        # discrete space when the opens were built with the space
        # (CPython 3.11, shared 2-CPU host)
        t0 = time.perf_counter()
        for u in BIG.values():
            ask_without_opens(u)
        assert time.perf_counter() - t0 < 0.5

    def test_bounded_memory(self):
        # measured tracemalloc peaks: 21 kB (discrete), 46 kB (chain),
        # 29 kB (fence), against 176 MiB and 3 MB for the discrete space
        # and the fence when the opens were built with the space
        for name, u in BIG.items():
            tracemalloc.start()
            try:
                ask_without_opens(u)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (name, peak)


def test_membership_set_is_built_once():
    # The first is_open and is_closed build neither a membership set nor
    # the closure byte tables: they test the kernel.  Measured: 624 B of
    # tracemalloc peak for the two
    tracemalloc.start()
    try:
        t = Topology(14, range(1 << 14))
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert t.is_open(5) and t.is_closed(5)
        grown = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert grown < 4096
