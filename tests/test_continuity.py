"""Continuity: local/global tests, the equivalent characterizations,
open and closed maps, homeomorphisms, and gluing."""

import os
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opens_reference as ref
from conftest import preorders
from fintopo.continuity import (SpaceMap, are_homeomorphic,
                                continuity_characterizations, continuous_via_closeds,
                                continuous_via_closure, continuous_via_filter_transfer,
                                continuous_via_preimage_closure,
                                continuous_via_preimage_interior,
                                filter_continuity_at, homeomorphy,
                                is_continuous, is_continuous_at, map_open_closed)
from fintopo.errors import (CapExceeded, ClusterPreconditionFailed,
                            UniverseCardinalityMismatch, UniverseMismatch)
from fintopo.filters import enumerate_filters, principal_filter
from fintopo.setops import FiniteMap, SetSystem, identity_map
from fintopo.topology import (Topology, discrete_topology, enumerate_topologies,
                              indiscrete_topology, sierpinski)


TOPOLOGIES = {n: enumerate_topologies(n) for n in range(1, 5)}


def all_maps(n_src, n_dst):
    import itertools
    for images in itertools.product(range(n_dst), repeat=n_src):
        yield FiniteMap(n_src, n_dst, images)


@st.composite
def monotone_images(draw, u1, u2):
    """The images of a continuous map between the preorders with kernels
    u1 and u2: open sets O_1 inside ... inside O_k = X of the source and
    target points y_1 <= ... <= y_k (each y_i in U_y_j for i <= j), and
    x goes to y_i for the least i with x in O_i.  Then f[U_x] lies in
    {y_1, ..., y_i}, inside U_y_i."""
    n1 = len(u1)
    ys = [draw(st.integers(0, len(u2) - 1))]
    for _ in range(draw(st.integers(0, 4))):
        ys.append(draw(st.sampled_from([z for z in range(len(u2)) if u2[ys[-1]] >> z & 1])))
    ys.reverse()
    images, reached = [None] * n1, 0
    for i, y in enumerate(ys):
        if i == len(ys) - 1:
            grown = (1 << n1) - 1
        else:
            grown = reached
            for x in draw(st.lists(st.integers(0, n1 - 1), max_size=n1)):
                grown |= u1[x]
        for x in range(n1):
            if grown >> x & 1 and images[x] is None:
                images[x] = y
        reached = grown
    return images


class TestBasics:
    def test_identity_is_continuous(self):
        for t in enumerate_topologies(3):
            m = SpaceMap(t, t, FiniteMap(3, 3, [0, 1, 2]))
            assert is_continuous(m)
            assert all(is_continuous_at(m, x) for x in range(3))

    def test_from_discrete_always_continuous(self):
        d = discrete_topology(3)
        for t in enumerate_topologies(3):
            for f in all_maps(3, 3):
                assert is_continuous(SpaceMap(d, t, f))

    def test_to_indiscrete_always_continuous(self):
        i = indiscrete_topology(3)
        for t in enumerate_topologies(3):
            for f in all_maps(3, 3):
                assert is_continuous(SpaceMap(t, i, f))

    def test_sierpinski_swap_not_continuous(self):
        s = sierpinski()
        swap = FiniteMap(2, 2, [1, 0])
        m = SpaceMap(s, s, swap)
        assert not is_continuous(m)
        # continuity fails exactly at the point mapped into the open point
        assert not is_continuous_at(m, 0)
        assert is_continuous_at(m, 1)

    def test_composition_preserves_continuity(self):
        s = sierpinski()
        d = discrete_topology(2)
        g = SpaceMap(d, s, FiniteMap(2, 2, [1, 0]))
        h = SpaceMap(s, s, FiniteMap(2, 2, [1, 1]))
        assert is_continuous(g) and is_continuous(h)
        assert is_continuous(SpaceMap(g.source, h.target, h.f.compose(g.f)))

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(UniverseMismatch):
            SpaceMap(sierpinski(), discrete_topology(3), FiniteMap(2, 2, [0, 1]))


class TestCharacterizations:
    def test_all_agree_n2(self):
        tops = enumerate_topologies(2)
        for t1 in tops:
            for t2 in tops:
                for f in all_maps(2, 2):
                    m = SpaceMap(t1, t2, f)
                    chars = continuity_characterizations(m)
                    vals = set(chars.values())
                    assert len(vals) == 1
                    assert vals == {is_continuous(m)}
                    assert continuous_via_preimage_closure(m) == is_continuous(m)
                    assert continuous_via_preimage_interior(m) == is_continuous(m)

    def test_closure_tables_agree_with_per_subset_closures_n3(self):
        tops = enumerate_topologies(3)
        for t1 in tops:
            for t2 in tops:
                for f in all_maps(3, 3):
                    m = SpaceMap(t1, t2, f)
                    expect = all(f.image_mask(ref.closure(t1, a))
                                 & ~ref.closure(t2, f.image_mask(a)) == 0 for a in range(8))
                    assert continuous_via_closure(m) == expect

    def test_every_three_point_map_matches_the_rebuilding_reference(self):
        tops = enumerate_topologies(3)
        maps = list(all_maps(3, 3))
        for t1 in tops:
            for t2 in tops:
                for f in maps:
                    m = SpaceMap(t1, t2, f)
                    c = is_continuous(m)
                    assert c == ref.is_continuous(m)
                    assert continuity_characterizations(m) == ref.continuity_characterizations(m)
                    assert map_open_closed(m) == ref.map_open_closed(m)
                    assert continuous_via_preimage_closure(m) == c
                    assert continuous_via_preimage_interior(m) == c

    def test_preimage_characterizations_read_the_kept_tables(self, monkeypatch):
        import fintopo.closure

        def per_subset(*args):
            raise AssertionError("closure or interior computed per subset")

        monkeypatch.setattr(fintopo.closure, 'closure', per_subset)
        monkeypatch.setattr(fintopo.closure, 'interior', per_subset)
        for t1 in enumerate_topologies(3):
            for t2 in enumerate_topologies(2):
                for f in all_maps(3, 2):
                    m = SpaceMap(t1, t2, f)
                    assert continuous_via_preimage_closure(m) == is_continuous(m)
                    assert continuous_via_preimage_interior(m) == is_continuous(m)
                assert 'closure_table' in vars(t1) and 'closure_table' in vars(t2)

    def test_every_map_on_up_to_three_points_reads_the_kept_tables(self, monkeypatch):
        # each function reads its tables once and looks every mask up
        # inline, with no image_mask, preimage_mask, membership test
        # (SetSystem.__contains__) or is_closed call per mask.  The spaces
        # are fresh, so each function meets a space whose opens are not
        # built yet as well as spaces whose opens it reads from the slot
        tops = [t for n in range(4) for t in enumerate_topologies(n)]
        expected = {}
        for s, t in product(tops, repeat=2):
            for f in all_maps(s.n, t.n):
                m = SpaceMap(Topology.from_kernel(s.n, s.minimal_opens),
                             Topology.from_kernel(t.n, t.minimal_opens), f)
                c = ref.is_continuous(m)
                expected[s, t, f] = (ref.continuity_characterizations(m), c,
                                     ref.map_open_closed(m), c, c)

        def per_mask(*args):
            raise AssertionError("a per-mask method call")

        for cls, name in ((FiniteMap, 'image_mask'), (FiniteMap, 'preimage_mask'),
                          (SetSystem, '__contains__'), (Topology, 'is_closed')):
            monkeypatch.setattr(cls, name, per_mask)
        for (s, t, f), want in expected.items():
            m = SpaceMap(s, t, f)
            assert (continuity_characterizations(m), is_continuous(m), map_open_closed(m),
                    continuous_via_preimage_closure(m),
                    continuous_via_preimage_interior(m)) == want

    @given(preorders(min_n=7, max_n=12), preorders(min_n=7, max_n=12),
           st.sampled_from(['random', 'monotone', 'one-moved', 'identity']), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference_across_the_byte_boundary(self, u1, u2, kind, data):
        # on 9 or more points a mask reaches the second byte table, where
        # a wrong shift or cut shows; on 3 points it cannot
        if kind == 'identity':
            u2 = u1
        n1, n2 = len(u1), len(u2)
        if kind == 'random':
            images = data.draw(st.lists(st.integers(0, n2 - 1), min_size=n1, max_size=n1))
        elif kind == 'identity':
            images = list(range(n1))
        else:
            images = data.draw(monotone_images(u1, u2))
            if kind == 'one-moved':
                # one point moved, past the first byte where there is one
                x = data.draw(st.integers(min(8, n1 - 1), n1 - 1))
                images[x] = data.draw(st.integers(0, n2 - 1))
        m = SpaceMap(Topology.from_kernel(n1, u1), Topology.from_kernel(n2, u2),
                     FiniteMap(n1, n2, images))
        c = ref.is_continuous(m)
        assert is_continuous(m) == c
        assert continuity_characterizations(m) == ref.continuity_characterizations(m)
        assert map_open_closed(m) == ref.map_open_closed(m)
        assert continuous_via_preimage_closure(m) == c
        assert continuous_via_preimage_interior(m) == c

    def test_pointwise_iff_global_n2(self):
        tops = enumerate_topologies(2)
        for t1 in tops:
            for t2 in tops:
                for f in all_maps(2, 2):
                    m = SpaceMap(t1, t2, f)
                    pointwise = all(is_continuous_at(m, x) for x in range(2))
                    assert pointwise == is_continuous(m)


SIX_AT_20 = """
import resource
from fintopo.continuity import SpaceMap, continuity_characterizations
from fintopo.setops import identity_map
from fintopo.topology import discrete_topology
t = discrete_topology(20)
assert set(continuity_characterizations(SpaceMap(t, t, identity_map(20))).values()) == {True}
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestCharacterizationsKeepNoFamily:
    """continuous_via_closeds walks the complements of the opens and
    continuous_via_filter_transfer the supersets of each U_x: neither
    lists a family of sets."""

    def test_the_walks_allocate_nothing_per_set(self):
        # measured on the 16-point discrete identity, with the opens and
        # every byte table built first: 448 B (filter transfer) and
        # 208 B (closeds); with the families kept as views the first
        # calls peaked at 22.3 MB and 5.2 MB.  Bound: 4 KiB each
        t = discrete_topology(16)
        m = SpaceMap(t, t, identity_map(16))
        t.opens, t.closure_bytes, m.f.image_tables, m.f.preimage_tables
        for fn in (continuous_via_filter_transfer, continuous_via_closeds):
            tracemalloc.start()
            try:
                assert fn(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4096, (fn.__name__, peak)

    def test_the_six_at_20_points_fit_in_bounded_memory(self):
        # the six characterizations on the 20-point discrete identity,
        # in a fresh interpreter: 151 MiB max RSS measured (CPython 3.11,
        # x86-64 Linux), against 581 MiB with the closed sets and neighborhoods
        # kept as views.  Bound: 300 MiB
        src = Path(__file__).resolve().parent.parent / 'src'
        proc = subprocess.run([sys.executable, '-c', SIX_AT_20], capture_output=True, text=True,
                              timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout) <= 300 * 1024


class TestOpenClosedMaps:
    def test_constant_map_is_closed_not_always_open(self):
        s = sierpinski()
        const0 = SpaceMap(s, s, FiniteMap(2, 2, [0, 0]))
        is_open, is_closed = map_open_closed(const0)
        assert is_closed and not is_open
        const1 = SpaceMap(s, s, FiniteMap(2, 2, [1, 1]))
        is_open, is_closed = map_open_closed(const1)
        assert is_open and not is_closed

    def test_base_shortcut_agrees_with_image_of_every_open(self):
        tops = [t for n in range(1, 4) for t in enumerate_topologies(n)]
        for t1 in tops:
            for t2 in tops:
                for f in all_maps(t1.n, t2.n):
                    via_all = all(f.image_mask(o) in t2.opens for o in t1.opens)
                    assert map_open_closed(SpaceMap(t1, t2, f))[0] == via_all

    def test_point_closure_shortcut_agrees_with_image_of_every_closed(self):
        tops = [t for n in range(4) for t in enumerate_topologies(n)]
        for t1 in tops:
            for t2 in tops:
                for f in all_maps(t1.n, t2.n):
                    m = SpaceMap(t1, t2, f)
                    assert map_open_closed(m)[1] == ref.map_open_closed(m)[1]

    def test_identity_open_and_closed(self):
        for t in enumerate_topologies(2):
            m = SpaceMap(t, t, FiniteMap(2, 2, [0, 1]))
            assert map_open_closed(m) == (True, True)

    def test_homeomorphism_is_open_closed_continuous(self):
        s = sierpinski()
        other = Topology(2, [0b00, 0b01, 0b11])
        f = are_homeomorphic(s, other)
        m = SpaceMap(s, other, f)
        assert is_continuous(m)
        assert map_open_closed(m) == (True, True)


class TestHomeomorphisms:
    def test_homeomorphy_predicate(self):
        s = sierpinski()
        other = Topology(2, [0b00, 0b01, 0b11])
        assert homeomorphy(SpaceMap(s, other, FiniteMap(2, 2, [1, 0])))
        assert not homeomorphy(SpaceMap(s, other, FiniteMap(2, 2, [0, 1])))
        assert not homeomorphy(SpaceMap(s, other, FiniteMap(2, 2, [0, 0])))

    def test_witness_found_for_relabelled_spaces(self):
        f = are_homeomorphic(sierpinski(), Topology(2, [0b00, 0b01, 0b11]))
        assert f is not None and f.images == (1, 0)

    def test_none_for_distinct_structures(self):
        assert are_homeomorphic(discrete_topology(2), indiscrete_topology(2)) is None
        assert are_homeomorphic(discrete_topology(2), sierpinski()) is None

    def test_reflexive_on_all_n3(self):
        for t in enumerate_topologies(3):
            f = are_homeomorphic(t, t)
            assert f is not None
            assert homeomorphy(SpaceMap(t, t, f))

    def test_cardinality_mismatch(self):
        with pytest.raises(UniverseCardinalityMismatch):
            are_homeomorphic(discrete_topology(2), discrete_topology(3))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            are_homeomorphic(discrete_topology(7), discrete_topology(7))

    def test_kept_keys_keep_the_carrier_errors(self):
        # the kept shape_keys are compared first; the carrier checks
        # still raise when both are kept, the keys equal or not
        two, three = discrete_topology(2), indiscrete_topology(3)
        for t in (two, three):
            t.shape_key
        for a, b in ((two, three), (three, two)):
            with pytest.raises(UniverseCardinalityMismatch):
                are_homeomorphic(a, b)
        seven = discrete_topology(7)
        for other in (discrete_topology(7), indiscrete_topology(7)):
            assert (seven.shape_key == other.shape_key) == (other == seven)
            for a, b in ((seven, other), (other, seven)):
                with pytest.raises(CapExceeded):
                    are_homeomorphic(a, b)

    def test_kept_keys_change_no_answer_n3(self):
        # every pair on 3 points: fresh spaces (no key kept), one key
        # kept, both kept, all give the same witness or None
        kernels = [t.minimal_opens for t in TOPOLOGIES[3]]

        def images(u1, u2, keep):
            t1, t2 = Topology.from_kernel(3, u1), Topology.from_kernel(3, u2)
            for t in (t1, t2)[:keep]:
                t.shape_key
            w = are_homeomorphic(t1, t2)
            return None if w is None else w.images

        for u1 in kernels:
            for u2 in kernels:
                want = images(u1, u2, 0)
                assert images(u1, u2, 1) == images(u1, u2, 2) == want

    def test_partitions_n2_into_classes(self):
        tops = enumerate_topologies(2)
        classes = []
        for t in tops:
            for c in classes:
                if are_homeomorphic(t, c[0]) is not None:
                    c.append(t)
                    break
            else:
                classes.append([t])
        # 4 topologies on two points fall into 3 classes (the two
        # one-open-point spaces are homeomorphic)
        assert sorted(len(c) for c in classes) == [1, 1, 2]

    def test_class_counts_match_oeis(self):
        # OEIS A001930: topologies on n = 0..5 points up to homeomorphism
        for n, want in enumerate((1, 1, 3, 9, 33, 139)):
            reps = []
            for t in enumerate_topologies(n):
                if all(are_homeomorphic(t, r) is None for r in reps):
                    reps.append(t)
            assert len(reps) == want, n

    def test_five_point_census_in_bounded_time_and_memory(self):
        # the lookup of the census benchmark: each space against the
        # representatives found so far until one gives a witness.  On a
        # shared 2-CPU host the lookups took 0.29-0.30 s (0.54-0.56 s
        # when each found witness recomputed the point closures and
        # shapes), and the shape data kept 117-152 bytes a space: the
        # shape_key int (32) and the tuple of 5 closures and 5 shapes
        # (120).  Bounds: 1.5 s and 176 bytes a space
        tops = enumerate_topologies(5)
        reps = []
        start = time.perf_counter()
        for t in tops:
            for r in reps:
                if are_homeomorphic(t, r) is not None:
                    break
            else:
                reps.append(t)
        elapsed = time.perf_counter() - start
        assert len(tops) == 6942 and len(reps) == 139
        assert elapsed < 1.5
        fresh = enumerate_topologies(5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in fresh:
                t.shape_key
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 176 * len(fresh)


class TestFilterContinuityAt:
    def test_image_relation_holds_for_point_filters(self):
        s = sierpinski()
        m = SpaceMap(s, s, FiniteMap(2, 2, [0, 1]))
        fx = principal_filter(2, 0b10)
        fy = principal_filter(2, 0b10)
        assert filter_continuity_at(fx, fy, m, 1)

    def test_fails_when_target_filter_too_fine(self):
        i = indiscrete_topology(2)
        m = SpaceMap(i, i, FiniteMap(2, 2, [0, 1]))
        fx = principal_filter(2, 0b11)
        fy = principal_filter(2, 0b01)  # finer than the image of fx
        assert not filter_continuity_at(fx, fy, m, 0)

    def test_precondition_source(self):
        d = discrete_topology(2)
        m = SpaceMap(d, d, FiniteMap(2, 2, [0, 1]))
        with pytest.raises(ClusterPreconditionFailed):
            filter_continuity_at(principal_filter(2, 0b10), principal_filter(2, 0b01), m, 0)

    def test_precondition_target(self):
        d = discrete_topology(2)
        m = SpaceMap(d, d, FiniteMap(2, 2, [0, 0]))
        with pytest.raises(ClusterPreconditionFailed):
            filter_continuity_at(principal_filter(2, 0b01), principal_filter(2, 0b10), m, 0)


def filter_outcome(check, fx, fy, m, x):
    """The verdict of check, or the type of the error it raises."""
    try:
        return check(fx, fy, m, x)
    except ClusterPreconditionFailed:
        return ClusterPreconditionFailed


class TestFilterContinuityByCores:
    """The core test against the scan over the members of both filters."""

    def test_matches_member_scan_n_le_2(self):
        for n_src, n_dst in product((1, 2), repeat=2):
            filters_src, filters_dst = enumerate_filters(n_src), enumerate_filters(n_dst)
            for s, t in product(TOPOLOGIES[n_src], TOPOLOGIES[n_dst]):
                for f in all_maps(n_src, n_dst):
                    m = SpaceMap(s, t, f)
                    for fx, fy, x in product(filters_src, filters_dst, range(n_src)):
                        assert (filter_outcome(filter_continuity_at, fx, fy, m, x)
                                == filter_outcome(ref.filter_continuity_at, fx, fy, m, x))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_member_scan_n_le_4(self, data):
        n_src, n_dst = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        s = data.draw(st.sampled_from(TOPOLOGIES[n_src]))
        t = data.draw(st.sampled_from(TOPOLOGIES[n_dst]))
        images = data.draw(st.lists(st.integers(0, n_dst - 1), min_size=n_src, max_size=n_src))
        m = SpaceMap(s, t, FiniteMap(n_src, n_dst, images))
        fx = principal_filter(n_src, data.draw(st.integers(1, (1 << n_src) - 1)))
        fy = principal_filter(n_dst, data.draw(st.integers(1, (1 << n_dst) - 1)))
        x = data.draw(st.integers(0, n_src - 1))
        assert (filter_outcome(filter_continuity_at, fx, fy, m, x)
                == filter_outcome(ref.filter_continuity_at, fx, fy, m, x))


class TestGluing:
    def test_matches_global_continuity(self):
        # any closed cover: gluing verdict equals global continuity
        tops = enumerate_topologies(2)
        for t1 in tops:
            for t2 in tops:
                closeds = [c for c in t1.closed_sets() if c]
                pieces_choices = [[c1, c2] for c1 in closeds for c2 in closeds
                                  if c1 | c2 == 0b11]
                for f in all_maps(2, 2):
                    m = SpaceMap(t1, t2, f)
                    for pieces in pieces_choices:
                        assert ref.is_continuous_on_closed_pieces(m, pieces) == is_continuous(m)

    def test_non_closed_piece_rejected(self):
        s = sierpinski()
        m = SpaceMap(s, s, FiniteMap(2, 2, [0, 1]))
        with pytest.raises(UniverseMismatch):
            ref.is_continuous_on_closed_pieces(m, [0b10, 0b11])

    def test_cover_required(self):
        s = sierpinski()
        m = SpaceMap(s, s, FiniteMap(2, 2, [0, 1]))
        with pytest.raises(UniverseMismatch):
            ref.is_continuous_on_closed_pieces(m, [0b01])
