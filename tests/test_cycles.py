import itertools
import json
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramsey_lab import (
    InvariantViolationError,
    LayeredGraph,
    ParameterError,
    ResourceLimitError,
    UnknownVertexError,
    build_hypergraph,
    complete_layered,
    count_cycles_meeting,
    count_family_extensions,
    count_proper_cycles,
    count_restricted_extensions,
    cycles_per_vertex,
    cycles_through_vertex,
    random_coloring,
    trash_family,
    validate_tight_path,
    validate_tight_path_verbose,
)
from ramsey_lab import cycles, reporting
from ramsey_lab.cycles import _closed_walks, _extensions, decode_keys, encode_keys
from ramsey_lab.oracle import brute_force_cycle_keys, brute_force_cycles
from ramsey_lab.seeds import spawn_rng
from ramsey_lab.verifier import check_property_ii, meeting_check, sample_trash_family
from conftest import random_graph, validate_document


def brute_sets(g):
    return [set(c) for c in brute_force_cycles(g)]


def subpaths(c):
    """The k (k-1)-vertex sub-paths of a part-indexed cycle, one per dropped part."""
    k = len(c)
    return [[c[(q + 1 + j) % k] for j in range(k - 1)] for q in range(k)]


LAYOUTS = ("flat", "rows")


def forced(layout):
    """Make ``build_hypergraph`` build the ``layout`` store, whichever is smaller."""
    return mock.patch.object(cycles, "_store_layout", lambda total, rows: layout)


class TestEnumeration:
    def test_complete_3_2_has_8_cycles(self, tiny_complete):
        cycles = [tuple(c) for c in build_hypergraph(tiny_complete).vertex_rows().tolist()]
        assert len(cycles) == 8
        assert cycles[0] == (0, 2, 4)
        assert cycles == sorted(cycles)

    def test_empty_graph_has_none(self):
        assert build_hypergraph(random_graph(3, 5, 0.0, 1)).vertex_rows().tolist() == []

    def test_matches_brute_force_on_100_seeds(self):
        for seed in range(100):
            g = random_graph(3, 6, 0.5, seed)
            assert np.array_equal(build_hypergraph(g).keys(), brute_force_cycle_keys(g))

    def test_matches_brute_force_other_uniformities(self):
        for k in (4, 5):
            for seed in range(20):
                g = random_graph(k, 5, 0.6, seed)
                rows = build_hypergraph(g).vertex_rows().tolist()
                assert [tuple(c) for c in rows] == brute_force_cycles(g)

    # the flat layout forced on two hosts that are rows stores by size (k = 3,
    # m = 200 and k = 4, m = 12) and on a k = 5 host, so both layouts run at
    # k = 3 and k = 4 beyond the drawn sizes too
    @settings(max_examples=120, deadline=None)
    @given(
        k=st.integers(3, 6),
        m=st.integers(1, 7),
        p=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        seed=st.integers(0, 2**32),
        no_closers=st.booleans(),
        empty_middle=st.booleans(),
        layout=st.sampled_from(LAYOUTS),
    )
    @example(k=3, m=200, p=0.5, seed=2, no_closers=False, empty_middle=False, layout="flat")
    @example(k=4, m=12, p=0.9, seed=2, no_closers=False, empty_middle=False, layout="flat")
    @example(k=5, m=8, p=0.7, seed=2, no_closers=False, empty_middle=False, layout="flat")
    def test_matches_brute_force_drawn(self, k, m, p, seed, no_closers, empty_middle, layout):
        blocks = [b.copy() for b in random_graph(k, m, p, seed).blocks]
        if no_closers:  # start vertex seed % m closes no path
            blocks[k - 1][:, seed % m] = False
        if empty_middle:  # one block the middle levels expand through
            blocks[seed % (k - 2)][:] = False
        g = LayeredGraph(k, m, blocks)
        with forced(layout):
            h = build_hypergraph(g)
        assert h.layout == layout
        keys = h.keys()
        assert (keys[1:] > keys[:-1]).all()  # TightHypergraph relies on strict order
        assert np.array_equal(keys, brute_force_cycle_keys(g))

    # {i: d} adds d to the count of the i-th start vertex that has cycles;
    # the last case leaves the total right, so only the per-start check sees it
    @pytest.mark.parametrize(
        "offsets", [{0: -1}, {0: 1}, {0: 1, 1: -1}], ids=["-1", "1", "+1-1"]
    )
    def test_count_mismatch_is_refused(self, monkeypatch, offsets):
        g = random_graph(4, 5, 0.6, 2)
        per_start = _closed_walks(g.blocks, 0)
        starts = np.flatnonzero(per_start)  # starts with cycles, so no count goes negative
        assert starts.size >= 2
        off = np.zeros_like(per_start)
        for i, d in offsets.items():
            off[starts[i]] = d

        def skewed(blocks, part, rows=None, skip=None, **kw):
            return _closed_walks(blocks, part, rows, skip, **kw) + off

        monkeypatch.setattr(cycles, "_closed_walks", skewed)
        skewed_starts = f"^start vertex ({starts[0]}|{starts[1]}): enumerated "
        for layout in LAYOUTS:
            with forced(layout), pytest.raises(InvariantViolationError, match=skewed_starts):
                build_hypergraph(g)

    # both layouts check every start's prefix paths against _prefix_paths;
    # the other starts keep their counts, so the check names this start
    @pytest.mark.parametrize("d", [-1, 1])
    def test_prefix_path_count_mismatch_is_refused(self, monkeypatch, d):
        g = random_graph(4, 5, 0.6, 2)
        prefix_paths = cycles._prefix_paths
        a = int(np.flatnonzero(prefix_paths(g.blocks))[-1])

        def skewed(blocks):
            paths = prefix_paths(blocks)
            paths[a] += d
            return paths

        monkeypatch.setattr(cycles, "_prefix_paths", skewed)
        for layout in LAYOUTS:
            with forced(layout), pytest.raises(
                InvariantViolationError,
                match=rf"^start vertex {a}: enumerated \d+ prefix paths, counted",
            ):
                build_hypergraph(g)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        """The store is filled on the caller's own thread, so an exception
        raised while a start's keys are encoded reaches the caller as raised."""
        g = random_graph(4, 6, 0.6, 3)
        assert cycles_per_vertex(g)[1] > 0  # start 1 has cycles, so it encodes keys
        encode = cycles.encode_keys

        def failing(cols, m):
            if cols[0] == 1:
                raise RuntimeError(f"boom in {threading.current_thread().name}")
            return encode(cols, m)

        monkeypatch.setattr(cycles, "encode_keys", failing)
        # both layouts fill the store on the caller's thread
        for layout in LAYOUTS:
            with forced(layout), pytest.raises(RuntimeError, match="^boom in MainThread$"):
                build_hypergraph(g)

    def test_peak_memory_is_the_key_array(self):
        for k, m, p, size in [
            (3, 200, 0.5, 1_001_036),
            (4, 60, 0.5, 836_893),
            (3, 400, 0.05, 8093),
        ]:
            g = random_graph(k, m, p, 1)
            for layout in LAYOUTS:
                tracemalloc.start()
                try:
                    with forced(layout):
                        h = build_hypergraph(g)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert len(h) == size
                # the store, or the float32 copies and row blocks that the
                # count makes before the store exists, when they are larger
                # (the sparse host, and the rows store at k = 3)
                assert peak < 1.5 * max(h.nbytes, 4 * k * m * m), (k, m, layout)

    @pytest.mark.parametrize(
        "count",
        [
            build_hypergraph,
            count_proper_cycles,
            cycles_per_vertex,
            lambda g: count_cycles_meeting(g, [0, g.m + 1, 2 * g.m + 2]),
        ],
        ids=["cycle_keys", "count_proper_cycles", "cycles_per_vertex", "count_cycles_meeting"],
    )
    def test_counting_leaves_the_graph_unchanged(self, count):
        g = random_graph(4, 6, 0.6, 3)
        before = pickle.dumps(g)
        count(g)
        assert pickle.dumps(g) == before

    def test_key_array_beyond_physical_memory_refused(self, beyond_memory):
        k, m = beyond_memory
        g = random_graph(k, m, 1.0, 0)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="^cycle keys ") as excinfo:
                build_hypergraph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused after counting, before the store is allocated: the smaller
        # layout is a uint64 key and an int64 offset per prefix path
        nbytes = cycles._store_bytes(m**k, m ** (k - 1))
        assert excinfo.value.required == nbytes["rows"] == 16 * m ** (k - 1) + 8
        assert nbytes["flat"] == 8 * m**k > excinfo.value.cap
        assert peak < 50 * 2**20

    def test_32_bit_key_array_beyond_physical_memory_refused(self, monkeypatch):
        k, m = 4, 256  # m**k == 2**32
        # whole uint64 keys take 34 GB and rows 268 MB, which a larger machine
        # could hold: the physical figure is set 8 bytes short of the forced
        # layout, so the test enumerates nothing
        g = random_graph(k, m, 1.0, 0)
        need = {"flat": 8 * m**k, "rows": 16 * m ** (k - 1) + 8}
        for layout in LAYOUTS:
            pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": need[layout] - 8}
            monkeypatch.setattr(os, "sysconf", pages.__getitem__)
            tracemalloc.start()
            try:
                with forced(layout), pytest.raises(ResourceLimitError) as excinfo:
                    build_hypergraph(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # refused after counting, before the store is allocated
            assert str(excinfo.value).startswith("cycle keys "), layout
            assert excinfo.value.required == need[layout], layout
            assert peak < 50 * 2**20

    def test_count_matches_enumeration(self):
        for seed in range(20):
            g = random_graph(4, 4, 0.5, seed)
            assert count_proper_cycles(g) == len(build_hypergraph(g).vertex_rows())


class TestExactness:
    """A count is refused only when an entry of its own chain reaches 2**53."""

    def test_total_beyond_int64(self):
        # per-vertex counts 1449**5 < 2**53, total 1449**6 > 2**63
        total = count_proper_cycles(complete_layered(6, 1449))
        assert total == 1449**6 == 9_255_722_232_902_778_801
        assert total >= 2**63

    def test_total_beyond_2_to_53(self):
        # per-vertex counts 2**48, total 2**54
        assert count_proper_cycles(complete_layered(9, 64)) == 64**9

    @pytest.mark.parametrize(
        "count",
        [
            count_proper_cycles,
            cycles_per_vertex,
            lambda g: cycles_through_vertex(g, 5),
            lambda g: count_cycles_meeting(g, [0, g.m + 1]),
        ],
        ids=["count_proper_cycles", "cycles_per_vertex", "cycles_through_vertex",
             "count_cycles_meeting"],
    )
    def test_vertex_counts_of_2_to_54_refused(self, count):
        # 64**9 = 2**54 cycles through each vertex; the blocks take 40 KB
        with pytest.raises(ResourceLimitError, match="^exact float64 counting range") as excinfo:
            count(complete_layered(10, 64))
        assert excinfo.value.cap == 2**53
        assert excinfo.value.required == 2**54

    @staticmethod
    def chain(first, closing):
        """A k = 3 chain whose prefix row 0 is ``first`` and whose closing block
        is ``closing``: the middle block is the identity."""
        return [np.array([first, [0.0, 0.0]]), np.eye(2), np.array(closing, dtype=np.float64)]

    def test_prefix_entry_of_2_to_53_refused_before_the_close(self):
        # the closing block is zero, so only the prefix check can refuse
        fb = self.chain([2.0**53, 0.0], [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ResourceLimitError) as excinfo:
            _closed_walks(fb, 0)
        assert excinfo.value.required == excinfo.value.cap == 2**53

    def test_closing_entry_of_2_to_53_refused(self):
        # prefix entries 2**52 each; their closing sum reaches 2**53
        fb = self.chain([2.0**52, 2.0**52], [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ResourceLimitError) as excinfo:
            _closed_walks(fb, 0)
        assert excinfo.value.required == excinfo.value.cap == 2**53

    @pytest.mark.parametrize("first", [[2.0**53 - 1, 0.0], [2.0**52, 2.0**52 - 1]])
    def test_entries_below_2_to_53_accepted(self, first):
        fb = self.chain(first, [[1.0, 0.0], [1.0, 0.0]])
        walks = _closed_walks(fb, 0)
        assert walks.dtype == np.int64
        assert walks.tolist() == [2**53 - 1, 0]

    @staticmethod
    def last_row_chain(first, closing):
        """A k = 3 chain over m = _ROW_BLOCK + 1 rows whose only non-zero prefix
        row is the last, in the last pass: ``first`` starts that row, the
        middle block is the identity, and ``closing`` is the last column of
        the closing block."""
        m = cycles._ROW_BLOCK + 1
        fb = [np.zeros((m, m)), np.eye(m), np.zeros((m, m))]
        fb[0][m - 1, : len(first)] = first
        fb[2][: len(closing), m - 1] = closing
        return fb

    def test_prefix_entry_in_a_later_row_block_refused(self):
        fb = self.last_row_chain([2.0**53], [])
        with pytest.raises(ResourceLimitError) as excinfo:
            _closed_walks(fb, 0)
        assert excinfo.value.required == excinfo.value.cap == 2**53

    def test_closing_entry_in_a_later_row_block_refused(self):
        fb = self.last_row_chain([2.0**52, 2.0**52], [1.0, 1.0])
        with pytest.raises(ResourceLimitError) as excinfo:
            _closed_walks(fb, 0)
        assert excinfo.value.required == excinfo.value.cap == 2**53
        # one less stays exact, and the count lands on the last row
        fb = self.last_row_chain([2.0**52, 2.0**52 - 1], [1.0, 1.0])
        walks = _closed_walks(fb, 0)
        assert walks[-1] == 2**53 - 1 and not walks[:-1].any()

    @staticmethod
    def panel_chain(first, closing):
        """A k = 3 chain over m = 6 whose only non-zero prefix row is row 0:
        ``first`` is that row, the middle block is the identity but for a one
        at (4, 5), so prefix entry 5 sums ``first[4] + first[5]``, and
        ``closing`` is the first column of the closing block.  With
        ``_ROW_BLOCK`` at 4 the middle block is cast in panels of two
        columns, and entries 4 and 5 lie in the last of them."""
        m = 6
        fb = [np.zeros((m, m)), np.eye(m), np.zeros((m, m))]
        fb[1][4, 5] = 1.0
        fb[0][0] = first
        fb[2][:, 0] = closing
        return fb

    def test_prefix_entry_in_a_later_panel_refused(self, monkeypatch):
        monkeypatch.setattr(cycles, "_ROW_BLOCK", 4)
        assert cycles._panel_width(6) == 2
        # the closing block is zero, so only the last panel's check can refuse
        fb = self.panel_chain([0.0, 0.0, 0.0, 0.0, 2.0**52, 2.0**52], [0.0] * 6)
        with pytest.raises(ResourceLimitError) as excinfo:
            _closed_walks(fb, 0)
        assert excinfo.value.required == excinfo.value.cap == 2**53

    def test_closing_sum_over_panels_refused(self, monkeypatch):
        monkeypatch.setattr(cycles, "_ROW_BLOCK", 4)
        assert cycles._panel_width(6) == 2
        # 2**52 from the first panel and 2**52 from the last reach 2**53 together only
        closing = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        fb = self.panel_chain([2.0**52, 0.0, 0.0, 0.0, 0.0, 2.0**52], closing)
        with pytest.raises(ResourceLimitError) as excinfo:
            _closed_walks(fb, 0)
        assert excinfo.value.required == excinfo.value.cap == 2**53
        fb = self.panel_chain([2.0**52, 0.0, 0.0, 0.0, 0.0, 2.0**52 - 1], closing)
        assert _closed_walks(fb, 0).tolist() == [2**53 - 1, 0, 0, 0, 0, 0]

    # (count, rows a pass): a chain over a whole part of m = 4 runs passes of
    # two rows, half a block; one over a single vertex, one pass of one row
    @pytest.mark.parametrize(
        "count, rows",
        [
            (count_proper_cycles, 2),
            (cycles_per_vertex, 2),
            (lambda g: cycles_through_vertex(g, 0), 1),
            (lambda g: count_cycles_meeting(g, [0]), 1),
        ],
        ids=["count_proper_cycles", "cycles_per_vertex", "cycles_through_vertex",
             "count_cycles_meeting"],
    )
    def test_float_blocks_beyond_physical_memory_refused(self, monkeypatch, count, rows):
        g = random_graph(3, 4, 0.5, 0)
        m, width = 4, 2  # panels of half the block
        # the chain's working set: a float32 prefix of the pass's rows, one
        # float32 panel of the middle block and its product, and the closing
        # block's columns of those rows as bools; no block is copied whole
        need = 4 * (rows * m + (m + rows) * width) + rows * m
        # physical memory one byte short of it; nothing is allocated for real
        pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": need - 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ResourceLimitError, match="^float panels need more bytes") as excinfo:
            count(g)
        assert (excinfo.value.required, excinfo.value.cap) == (need, need - 1)
        pages["SC_PAGE_SIZE"] = need
        count(g)

    def test_float64_fallback_beyond_physical_memory_refused(self, monkeypatch):
        # K(4, 257) closes at 257**3 >= 2**24, so each chain goes on in
        # float64.  Its working set then holds two float64 prefixes (at k = 4,
        # the prefix and the next) of a pass's rows, one float64 panel and its
        # product, and the closing columns of those rows as bools; passes and
        # panels are 86 wide, a third of the block.  The float32 working set,
        # half that size but for the bools, fits.
        g = complete_layered(4, 257)
        m, rows, width = 257, 86, 86
        need = 8 * (2 * rows * m + (m + rows) * width) + rows * m
        pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": need - 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ResourceLimitError, match="^float64 panels need more bytes") as excinfo:
            cycles_per_vertex(g)
        assert (excinfo.value.required, excinfo.value.cap) == (need, need - 1)
        pages["SC_PAGE_SIZE"] = need
        assert (cycles_per_vertex(g) == 257**3).all()


class TestFloat32:
    """Counts run in float32 while exact, and fall back to float64 past 2**24."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The float64 fallbacks of each closed-walk call, in call order: a
        chain goes on in float64 from the first of its steps that leaves
        float32, and the next call starts in float32 again."""
        per_call = []
        exact, walks = cycles._exact, cycles._closed_walks

        def counted_exact(counts):
            out = exact(counts)
            per_call[-1] += out is None
            return out

        def counted_walks(*args, **kwargs):
            per_call.append(0)
            return walks(*args, **kwargs)

        monkeypatch.setattr(cycles, "_exact", counted_exact)
        monkeypatch.setattr(cycles, "_closed_walks", counted_walks)
        return per_call

    # K(3, 300) stays below 2**24; K(4, 257) closes at 257**3 >= 2**24; in
    # K(5, 257) the second product reaches 257**3, mid-chain.  Passes of at
    # most 100 rows, so a chain that fell back runs its later passes in
    # float64 too.
    @pytest.mark.parametrize("k, m, float64", [(3, 300, False), (4, 257, True), (5, 257, True)])
    def test_closed_forms_on_complete_hosts(self, monkeypatch, fallbacks, k, m, float64):
        monkeypatch.setattr(cycles, "_ROW_BLOCK", 100)
        g = complete_layered(k, m)
        assert count_proper_cycles(g) == m**k
        per_vertex = cycles_per_vertex(g)
        assert per_vertex.dtype == np.int64 and (per_vertex == m ** (k - 1)).all()
        # a part-0 and a part-1 vertex: the cycles avoiding both are (m-1)**2 m**(k-2)
        assert count_cycles_meeting(g, [0, m]) == m**k - (m - 1) ** 2 * m ** (k - 2)
        # 1 + k + 2 chains, each falling back once when it leaves float32, never otherwise
        assert fallbacks == [int(float64)] * (k + 3)

    @pytest.mark.parametrize("k, m, p", [(3, 40, 0.5), (4, 12, 0.6), (5, 8, 0.7)])
    def test_counts_equal_float64_counts(self, monkeypatch, k, m, p):
        kernel = cycles._closed_walks

        def float64_walks(blocks, *args):
            # float64 blocks, so the chain runs in float64 from its first step
            return kernel([b.astype(np.float64) for b in blocks], *args)

        for seed in range(3):
            g = random_graph(k, m, p, seed)
            rng = spawn_rng(seed)
            csets = [rng.choice(k * m, size=size, replace=False) for size in (1, k, k * m // 2)]
            per_vertex = cycles_per_vertex(g)
            meeting = [count_cycles_meeting(g, cset) for cset in csets]
            with monkeypatch.context() as patch:
                patch.setattr(cycles, "_closed_walks", float64_walks)
                assert np.array_equal(per_vertex, cycles_per_vertex(g))
                assert meeting == [count_cycles_meeting(g, cset) for cset in csets]

    # (first prefix row, closing block, walks, float64 fallbacks): the prefix
    # product or the closing sum reaching 2**24 is redone in float64
    @pytest.mark.parametrize(
        "first, closing, walks, copies",
        [
            ([2.0**23, 2.0**23 - 1], [[1.0, 0.0], [1.0, 0.0]], [2**24 - 1, 0], 0),
            ([2.0**23, 2.0**23], [[1.0, 0.0], [1.0, 0.0]], [2**24, 0], 1),
            ([2.0**24, 0.0], [[1.0, 0.0], [0.0, 0.0]], [2**24, 0], 1),
        ],
        ids=["below", "closing", "prefix"],
    )
    def test_entries_of_2_to_24_fall_back(self, fallbacks, first, closing, walks, copies):
        fb = [b.astype(np.float32) for b in TestExactness.chain(first, closing)]
        assert cycles._closed_walks(fb, 0).tolist() == walks
        assert fallbacks == [copies]

    # (first prefix row, closing column, row 0's walks, float64 fallbacks) on
    # panels of two columns: an entry of 2**24 + 1 in the last panel, or a
    # closing sum that reaches it over the first and last panels only, is
    # redone in float64, where float32 would round it to 2**24
    @pytest.mark.parametrize(
        "first, closing, walks, expected",
        [
            ([2.0**23, 0.0, 0.0, 0.0, 0.0, 2.0**23 - 1], [1.0, 0, 0, 0, 0, 1], 2**24 - 1, 0),
            ([2.0**23, 0.0, 0.0, 0.0, 0.0, 2.0**23 + 1], [1.0, 0, 0, 0, 0, 1], 2**24 + 1, 1),
            ([0.0, 0.0, 0.0, 0.0, 2.0**23 + 1, 2.0**23], [0.0, 0, 0, 0, 0, 1], 2**24 + 1, 1),
        ],
        ids=["below", "closing", "prefix"],
    )
    def test_entries_of_2_to_24_in_a_later_panel_fall_back(
        self, monkeypatch, fallbacks, first, closing, walks, expected
    ):
        monkeypatch.setattr(cycles, "_ROW_BLOCK", 4)
        assert cycles._panel_width(6) == 2
        fb = [b.astype(np.float32) for b in TestExactness.panel_chain(first, closing)]
        assert cycles._closed_walks(fb, 0).tolist() == [walks, 0, 0, 0, 0, 0]
        assert fallbacks == [expected]

    def test_one_shot_fallback_holds_only_the_float64_blocks(self):
        # K(4, 257) closes at 257**3 >= 2**24; the chain redoes that step in
        # float64, on float64 row blocks and panels, and copies no block whole
        k, m = 4, 257
        g = complete_layered(k, m)
        tracemalloc.start()
        try:
            assert count_proper_cycles(g) == m**k
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # less than three float64 row blocks: a pass holds two prefixes, one
        # panel and its product, each narrower than the block; float64
        # copies of the k-2 middle blocks alone would take 8 * (k-2) * m**2
        rows = min(cycles._ROW_BLOCK, m)
        assert peak < 3 * 8 * rows * m

    def test_per_vertex_fallback_peaks_below_the_float64_middle_blocks(self):
        # each of K(4, 257)'s k per-vertex chains closes at 257**3 >= 2**24 and
        # goes on in float64, casting one column panel at a time, so the count
        # peaks below float64 copies of its k-2 middle blocks
        k, m = 4, 257
        g = complete_layered(k, m)
        tracemalloc.start()
        try:
            per_vertex = cycles_per_vertex(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(per_vertex) == k * m and (per_vertex == m**3).all()
        assert peak < 8 * (k - 2) * m * m

    def test_shared_blocks_are_widened_once(self, fallbacks):
        # property (ii) runs one chain per part for its per-vertex count and
        # one per part for every trial's meeting counts; on K(4, 257) each
        # chain falls back to float64 at most once, and every per-vertex
        # chain reaches 257**3 >= 2**24
        k, m = 4, 257
        g = complete_layered(k, m)
        tracemalloc.start()
        try:
            report = check_property_ii(g, 2, 3, 5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passes == 5
        assert len(fallbacks) == 2 * k and max(fallbacks) == 1
        assert fallbacks[:k] == [1] * k
        # one shared list of all k blocks, widened in place, peaked at about
        # 4.06 MiB; a chain holds float64 row blocks and one float64 panel,
        # less than three float64 row blocks in all, and copies no block
        rows = min(cycles._ROW_BLOCK, m)
        assert peak < 3 * 8 * rows * m

    def test_held_bytes_cast_no_block(self, monkeypatch):
        """The prefix-path chain casts one row block at a time, never a whole block."""
        monkeypatch.setattr(cycles, "_ROW_BLOCK", 64)
        k, m = 4, 300
        g = random_graph(k, m, 0.5, 0)
        tracemalloc.start()
        try:
            paths = cycles._prefix_paths(g.blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.dtype == np.int64
        expected = g.blocks[0].astype(np.int64) @ g.blocks[1].sum(axis=1)
        assert np.array_equal(paths, expected)
        # one int64 row block and the vectors; a float32 copy of one block
        # would take 4 * m**2
        assert peak < 8 * 64 * m + 8 * 8 * m
        assert peak < 4 * m * m


class TestKernel:
    """The graph's blocks are only read, and the chain's row blocks do not change a count."""

    def test_float_blocks_are_read_only(self):
        # the kernel reads the graph's own blocks, which are read-only, so a
        # chain that wrote into them, its skips included, would raise: the
        # float prefixes and panels it multiplies and the closing columns
        # whose skipped entries it zeroes are its own
        g = random_graph(3, 4, 0.5, 0)
        for b in g.blocks:
            assert b.dtype == bool
            with pytest.raises(ValueError, match="read-only"):
                b[0, 0] = True
        before = [b.tobytes() for b in g.blocks]
        avoid = [np.empty(0, dtype=np.int64), np.array([1, 2]), np.array([0])]
        skip = (np.zeros(4, dtype=np.int64), avoid)  # one owner: its keys are the locals
        expected = [0] * 4
        for c in brute_force_cycles(g):
            if c[1] % 4 not in (1, 2) and c[2] % 4 != 0:
                expected[c[0]] += 1
        assert _closed_walks(g.blocks, 0, None, skip).tolist() == expected
        assert [b.tobytes() for b in g.blocks] == before

    @pytest.mark.parametrize("rows", [None, np.arange(5)], ids=["all-rows", "explicit-rows"])
    def test_skips_drop_walks_and_never_write_into_the_blocks(self, rows):
        # writable blocks, so a kernel that zeroed them itself would go
        # unnoticed but for the byte comparison
        g = random_graph(4, 5, 0.8, 3)
        fb = [b.astype(np.float64) for b in g.blocks]
        before = [b.tobytes() for b in fb]
        avoid = [np.array([0, 1]), np.array([1, 3]), np.array([0]), np.array([2, 4])]
        skip = (np.zeros(5, dtype=np.int64), avoid)  # one owner: its keys are the locals
        expected = [0] * 5
        for c in brute_force_cycles(g):
            local = [v % 5 for v in c]
            if all(local[q] not in avoid[q] for q in (1, 2, 3)):  # part 0's entry is not read
                expected[local[0]] += 1
        assert sum(expected) > 0
        assert _closed_walks(fb, 0, rows, skip).tolist() == expected
        assert [b.tobytes() for b in fb] == before

    # block sizes below m, equal to m, dividing m, and not dividing m; m = 1 too
    @pytest.mark.parametrize(
        "k, m, block",
        [(3, 6, 4), (3, 4, 4), (3, 8, 4), (4, 5, 2), (5, 3, 2), (3, 1, 4), (4, 1, 1)],
    )
    def test_row_blocks_give_the_same_counts(self, monkeypatch, k, m, block):
        monkeypatch.setattr(cycles, "_ROW_BLOCK", block)
        g = random_graph(k, m, 0.8, 5)
        sets = brute_sets(g)
        assert count_proper_cycles(g) == len(sets)
        per_vertex = cycles_per_vertex(g)
        assert per_vertex.tolist() == [sum(1 for s in sets if v in s) for v in range(k * m)]
        # whole parts, so a meeting chain starts from more rows than one block
        for cset in (range(m), range(m, 3 * m), range(k * m)):
            assert count_cycles_meeting(g, cset) == sum(1 for s in sets if s & set(cset))


class TestChainMemory:
    """A count holds a few ``_ROW_BLOCK`` x m row blocks and one panel of a
    block its chain multiplies through, never a float copy of a block."""

    @staticmethod
    def meeting_40_sets(g):
        rng = spawn_rng(3)
        csets = [rng.choice(g.num_vertices, size=(g.k - 1) * 20, replace=False) for _ in range(40)]
        return cycles._meeting_counts(g, csets)

    # passes of at most 64 rows and panels of at most 32 columns: the
    # prefix (and, at k = 4, the next prefix), a panel and its product, the
    # closing columns, and the meeting sets' arrays and skip masks stay
    # below five float32 row blocks of 64 x m, where one float32 copy of a
    # block would take 4 * m**2 (over nine row blocks); the rows
    # store, held once the count is done, is the only other term.  The
    # meeting count releases its stacked sets, their keys, the dedup mask and
    # the vertices (25 bytes a stacked vertex) before its first chain, so its
    # bound is lower by as much.
    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize(
        "count, released",
        [(cycles_per_vertex, 0), (count_proper_cycles, 0), (build_hypergraph, 0),
         (meeting_40_sets, 25 * 40 * 20)],
        ids=["cycles_per_vertex", "count_proper_cycles", "build_hypergraph", "meeting_counts"],
    )
    def test_peak_is_the_middle_blocks_and_row_blocks(self, monkeypatch, k, count, released):
        monkeypatch.setattr(cycles, "_ROW_BLOCK", 64)
        m = 600
        g = random_graph(k, m, 0.02, 1)
        tracemalloc.start()
        try:
            with forced("rows"):
                out = count(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = out.nbytes if isinstance(out, cycles.TightHypergraph) else 0
        assert peak < held + 5 * (4 * 64 * m) - released * (k - 1)


class TestVertexCounts:
    def test_complete_3_2(self, tiny_complete):
        for v in range(6):
            assert cycles_through_vertex(tiny_complete, v) == 4

    def test_empty(self):
        g = random_graph(3, 4, 0.0, 0)
        assert cycles_through_vertex(g, 0) == 0

    @pytest.mark.parametrize(
        "k, m, p", [(3, 6, 0.4), (4, 4, 0.6), (5, 3, 0.8)], ids=["k3", "k4", "k5"]
    )
    def test_matches_brute_filter(self, k, m, p):
        # k > 3 runs the rotated chain through more than one middle block
        g = random_graph(k, m, p, 17)
        sets = brute_sets(g)
        assert sets
        for v in range(g.num_vertices):
            assert cycles_through_vertex(g, v) == sum(1 for s in sets if v in s)

    def test_handshake(self):
        for seed in range(10):
            g = random_graph(4, 5, 0.5, seed)
            assert cycles_per_vertex(g).sum() == 4 * count_proper_cycles(g)

    def test_bounded_by_total(self):
        g = random_graph(3, 6, 0.5, 3)
        total = count_proper_cycles(g)
        assert all(x <= total for x in cycles_per_vertex(g))


class TestExtendPath:
    def test_complete_3_2_two_extensions(self, tiny_complete):
        assert _extensions(tiny_complete, [0, 2])[0].tolist() == [4, 5]

    def test_no_edges_to_missing_part(self):
        g = LayeredGraph.from_edges(3, 2, [(0, 2)])
        ext, keys = _extensions(g, [0, 2])  # returned before any key is encoded
        assert (ext.size, ext.dtype, keys.size, keys.dtype) == (0, np.int64, 0, np.uint64)

    def test_matches_brute_subpath_count(self):
        g = random_graph(3, 6, 0.5, 23)
        sets = brute_sets(g)
        for c in build_hypergraph(g).vertex_rows().tolist():
            for b in subpaths(c):
                expected = sum(1 for s in sets if set(b) <= s)
                assert len(_extensions(g, b)[0]) == expected

    def test_extension_identity(self):
        # every proper cycle extends exactly k sub-(k-1)-paths, and extending
        # each sub-path recovers the dropped vertex
        for k, seed in ((3, 5), (4, 6)):
            g = random_graph(k, 4, 0.7, seed)
            for c in build_hypergraph(g).vertex_rows().tolist():
                subs = subpaths(c)
                assert len({frozenset(b) for b in subs}) == k
                for b in subs:
                    (dropped,) = set(c) - set(b)
                    assert dropped in _extensions(g, b)[0]

    def test_rejects_short_path(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            build_hypergraph(complete_layered(4, 2)).extension_ids([0, 2])

    @pytest.mark.parametrize("k, m, p, seed", [(3, 6, 0.5, 1), (3, 5, 0.8, 2), (4, 4, 0.7, 3), (5, 3, 0.8, 4)])
    def test_extensions_match_brute_force(self, k, m, p, seed):
        # every (k-1)-subpath of every cycle extends to exactly the brute-force
        # cycles containing it, by exactly their remaining vertices
        g = random_graph(k, m, p, seed)
        brute = list(zip(brute_force_cycle_keys(g).tolist(), brute_force_cycles(g)))
        assert brute
        for _, c in brute:
            for b in subpaths(c):
                ext, keys = _extensions(g, b)
                expected = {
                    key: (set(d) - set(b)).pop()
                    for key, d in brute
                    if set(b) <= set(d)
                }
                assert dict(zip(keys.tolist(), ext.tolist())) == expected
                assert list(ext) == sorted(expected.values())


class TestProperPath:
    """One-row families: trash_family is the one path validator."""

    def test_normalization_orientation(self, tiny_complete):
        forward = trash_family(tiny_complete, [[0, 2]]).rows
        backward = trash_family(tiny_complete, [[2, 0]]).rows
        assert np.array_equal(forward, backward)
        assert tiny_complete.part_of(int(forward[0, 0])) == 0

    def test_wraparound_arc_normalized(self, tiny_complete):
        # arc {part 2, part 0}: first stored vertex must sit in part 0
        assert trash_family(tiny_complete, [[4, 0]]).rows.tolist() == [[0, 4]]

    def test_wraparound_arc_in_part_order(self):
        # k=4, the path misses part 1: its arc runs 2 -> 3 -> 0 and is stored
        # from the part-0 end, so reports list it as parts (0, 3, 2)
        g = complete_layered(4, 2)
        for seq in ([4, 6, 0], [0, 6, 4]):
            (row,) = trash_family(g, [seq]).rows.tolist()
            assert row == [0, 6, 4]
            assert [g.part_of(v) for v in row] == [0, 3, 2]

    def test_rejects_repeated_vertex(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            trash_family(tiny_complete, [[0, 0]])

    def test_rejects_nonadjacent(self):
        g = LayeredGraph.from_edges(3, 2, [(0, 2)])
        with pytest.raises(InvariantViolationError):
            trash_family(g, [[1, 2]])

    def test_rejects_same_part(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            trash_family(tiny_complete, [[0, 1]])

    def test_rejects_too_long(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            trash_family(tiny_complete, [[0, 2, 4]])


class TestTrashFamily:
    def test_rejects_overlap(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            trash_family(tiny_complete, [[0, 2], [2, 4]])

    def test_rejects_wrong_length(self):
        g = complete_layered(4, 3)
        with pytest.raises(InvariantViolationError):
            trash_family(g, [[0, 3]])

    def test_rejects_ragged_rows(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            trash_family(tiny_complete, [[0, 2], [1]])

    def test_vertex_set(self, tiny_complete):
        fam = trash_family(tiny_complete, [[0, 2], [1, 3]])
        assert fam.rows.tolist() == [[0, 2], [1, 3]]
        assert len(fam) == 2

    def test_rows_are_read_only_int64(self, tiny_complete):
        for paths in ([[0, 2], [1, 3]], []):
            rows = trash_family(tiny_complete, paths).rows
            assert rows.dtype == np.int64
            assert rows.shape == (len(paths), 2)
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[...] = 0


class TestFamilyCounts:
    def test_empty_family(self, tiny_complete):
        fam = trash_family(tiny_complete, [])
        assert count_family_extensions(tiny_complete, fam) == 0
        assert count_restricted_extensions(tiny_complete, [], fam) == 0

    def test_single_path_complete_3_4(self):
        g = complete_layered(3, 4)
        fam = trash_family(g, [[0, 4]])
        assert count_family_extensions(g, fam) == 4

    # two-path families drawn by sample_trash_family at fixed seeds; at each
    # seed both paths extend and the restriction set of the test below bites
    FAMILIES = pytest.mark.parametrize(
        "k, m, p, seed", [(3, 6, 0.6, 31), (4, 4, 0.7, 35), (5, 3, 0.8, 33)], ids=["k3", "k4", "k5"]
    )

    @staticmethod
    def sampled_family(k, m, p, seed):
        g = random_graph(k, m, p, seed)
        fam = sample_trash_family(g, 2, spawn_rng(seed))
        assert fam is not None and len(fam) == 2
        assert all(_extensions(g, row)[0].size for row in fam.rows.tolist())
        return g, fam

    @FAMILIES
    def test_family_extensions_match_brute(self, k, m, p, seed):
        # the per-path sum against the brute-force cycles, each counted once
        g, fam = self.sampled_family(k, m, p, seed)
        expected = sum(
            1 for s in brute_sets(g) if any(set(row) <= s for row in fam.rows.tolist())
        )
        assert count_family_extensions(g, fam) == expected

    def test_restricted_zero_when_no_eligible_vertex(self, tiny_complete):
        # extensions live in the missing part, never inside a single path
        fam = trash_family(tiny_complete, [[0, 2]])
        assert count_restricted_extensions(tiny_complete, [], fam) == 0

    def test_restricted_full_missing_part(self):
        g = complete_layered(3, 4)
        fam = trash_family(g, [[0, 4]])
        missing_part = [8, 9, 10, 11]
        assert count_restricted_extensions(g, missing_part, fam) == 4

    @FAMILIES
    def test_restricted_matches_brute(self, k, m, p, seed):
        g, fam = self.sampled_family(k, m, p, seed)
        family = set(fam.rows.ravel().tolist())
        aset = [v for v in range(g.num_vertices) if v not in family][::2]
        allowed = family | set(aset)
        expected = 0
        for s in brute_sets(g):
            # each cycle once: the first family path it extends decides
            for row in fam.rows.tolist():
                if set(row) <= s:
                    (ext,) = s - set(row)
                    expected += ext in allowed
                    break
        assert 0 < expected < count_family_extensions(g, fam)
        assert count_restricted_extensions(g, aset, fam) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(3, 5),
        m=st.integers(2, 5),
        p=st.floats(0.3, 0.95),
        seed=st.integers(0, 2**32),
        n_paths=st.integers(1, 5),
        restrict=st.booleans(),
        block=st.sampled_from([2, 512]),
    )
    def test_grouped_masks_match_per_row_sums_and_brute(
        self, k, m, p, seed, n_paths, restrict, block
    ):
        # rows that miss the same part share one mask, _ROW_BLOCK rows at a time
        g = random_graph(k, m, p, seed)
        fam = sample_trash_family(g, n_paths, spawn_rng(seed))
        if fam is None:
            return
        rows = fam.rows.tolist()
        allowed = None
        aset = []
        if restrict:
            aset = np.flatnonzero(spawn_rng(seed + 1).random(g.num_vertices) < 0.5).tolist()
            allowed = np.zeros(g.num_vertices, dtype=bool)
            allowed[aset] = True
            allowed[fam.rows] = True
        with mock.patch.object(cycles, "_ROW_BLOCK", block):
            if restrict:
                got = count_restricted_extensions(g, aset, fam)
            else:
                got = count_family_extensions(g, fam)
        per_row = sum(_extensions(g, row, allowed)[0].size for row in rows)
        brute = 0
        for s in brute_sets(g):
            for row in rows:
                if set(row) <= s:
                    (ext,) = s - set(row)
                    brute += allowed is None or bool(allowed[ext])
        assert got == per_row == brute

    # a gate at scale with no oracle: on K(k, m) every (k-1)-path has exactly
    # m closers, and its closers in the family are the family's vertices in
    # the part it misses; rows miss every part, given in both directions, and
    # the rows that miss part 0 outnumber _ROW_BLOCK
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_family_counts_on_complete_hosts_in_closed_form(self, k):
        sizes = [cycles._ROW_BLOCK + 7, *range(3, k + 2)]  # rows that miss part q
        m = max(sum(sizes) - size for size in sizes) + 3
        g = complete_layered(k, m)
        free = [0] * k  # the next unused local of each part
        paths = []
        for q, size in enumerate(sizes):
            for i in range(size):
                path = []
                for part in ((q + 1 + j) % k for j in range(k - 1)):
                    path.append(part * m + free[part])
                    free[part] += 1
                paths.append(path[::-1] if i % 2 else path)
        fam = trash_family(g, paths)
        assert count_family_extensions(g, fam) == m * len(fam)
        in_part = np.bincount(fam.rows.ravel() // m, minlength=k)
        restricted = sum(size * int(in_part[q]) for q, size in enumerate(sizes))
        assert count_restricted_extensions(g, [], fam) == restricted

    def test_restricted_bounded_by_family(self):
        g = random_graph(3, 8, 0.5, 53)
        fam_paths = []
        used = set()
        for u in range(8):
            for v in range(8, 16):
                if g.adjacent(u, v) and u not in used and v not in used:
                    fam_paths.append([u, v])
                    used |= {u, v}
        if not fam_paths:
            pytest.skip("graph too sparse")
        fam = trash_family(g, fam_paths)
        y = count_restricted_extensions(g, {16, 17}, fam)
        assert y <= count_family_extensions(g, fam)


class TestMeetingCounts:
    def test_empty_set(self, tiny_complete):
        assert count_cycles_meeting(tiny_complete, []) == 0

    def test_all_vertices(self, tiny_complete):
        assert count_cycles_meeting(tiny_complete, range(6)) == 8

    def test_single_vertex_equals_vertex_count(self, tiny_complete):
        assert count_cycles_meeting(tiny_complete, [0]) == 4

    @pytest.mark.parametrize(
        "k, m, p", [(3, 6, 0.5), (4, 4, 0.6), (5, 3, 0.8)], ids=["k3", "k4", "k5"]
    )
    def test_matches_brute(self, k, m, p):
        g = random_graph(k, m, p, 61)
        sets = brute_sets(g)
        assert sets
        for cset in ([0], [0, 7, 13], list(range(6)), [2, 3]):
            expected = sum(1 for s in sets if s & set(cset))
            assert count_cycles_meeting(g, cset) == expected

    def test_bounded_by_total(self):
        g = random_graph(4, 5, 0.5, 67)
        total = count_proper_cycles(g)
        assert count_cycles_meeting(g, [0, 6, 11]) <= total

    # sets that touch every part, so the skips of one part reach the chains of
    # every later one, an empty set and a set with a repeated vertex: each set
    # counted alone, and all five in one meeting_check call, whose stacked
    # chain per part skips each set's own vertices in that set's rows only
    @pytest.mark.parametrize("k, m", [(4, 6), (5, 4)])
    def test_meeting_check_matches_brute_force_on_every_part(self, k, m):
        g = random_graph(k, m, 0.7, 3)
        sets = brute_sets(g)
        assert sets
        csets = (
            [q * m + q % m for q in range(k)],
            list(range(0, k * m, 2)),
            list(range(k * m)),
            [],
            [m + 1, 0, m + 1],
        )
        batch, bound = meeting_check(g, csets, 2, len(sets))
        assert bound == len(sets) / 4
        for cset, batched in zip(csets, batch, strict=True):
            expected = sum(1 for s in sets if s & set(cset))
            assert count_cycles_meeting(g, cset) == expected == batched, cset

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(3, 5),
        m=st.integers(1, 6),
        p=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_matches_brute_force_sets(self, k, m, p, seed, data):
        g = random_graph(k, m, p, seed)
        sets = brute_sets(g)
        nv, mid = k * m, k // 2
        csets = {
            "repeats": data.draw(st.lists(st.integers(0, nv - 1), max_size=2 * nv)),
            "last-part": data.draw(st.lists(st.integers((k - 1) * m, nv - 1), max_size=m)),
            "middle-part": data.draw(st.lists(st.integers(mid * m, (mid + 1) * m - 1), max_size=m)),
            "all": list(range(nv)),
            "empty": [],
        }
        for name, cset in csets.items():
            expected = sum(1 for s in sets if s & set(cset))
            assert count_cycles_meeting(g, cset) == expected, name

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(3, 5),
        m=st.integers(1, 6),
        p=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_one_copy_serves_every_set(self, k, m, p, seed, data):
        # one call counts the sets with one chain per part, each on its own
        # float copies: a set's skipped vertices must not leak into another
        # set's rows, nor into the graph's blocks
        g = random_graph(k, m, p, seed)
        sets = brute_sets(g)
        nv, mid = k * m, k // 2
        csets = data.draw(st.permutations([
            data.draw(st.lists(st.integers(0, nv - 1), max_size=2 * nv)),
            data.draw(st.lists(st.integers((k - 1) * m, nv - 1), max_size=m)),
            data.draw(st.lists(st.integers(mid * m, (mid + 1) * m - 1), max_size=m)),
            list(range(nv)),
            [],
        ]))
        before = [b.tobytes() for b in g.blocks]
        parts, kernel = [], cycles._closed_walks

        def chain(blocks, part, rows=None, skip=None):
            assert blocks is g.blocks
            parts.append(part)
            return kernel(blocks, part, rows, skip)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cycles, "_closed_walks", chain)
            counts = cycles._meeting_counts(g, csets)
        assert counts == [sum(1 for s in sets if s & set(cset)) for cset in csets]
        assert parts == list(range(k))  # the set of all vertices meets every part
        assert [b.tobytes() for b in g.blocks] == before

    # with 2 rows a block, a block holds the rows of several sets and a set's
    # rows span blocks
    @pytest.mark.parametrize("block", [2, 512])
    @pytest.mark.parametrize("k, m, p, seed", [(3, 7, 0.6, 1), (4, 5, 0.7, 2), (5, 4, 0.8, 3)])
    def test_stacked_sets_match_lone_counts(self, k, m, p, seed, block):
        g = random_graph(k, m, p, seed)
        sets = brute_sets(g)
        nv, rng = k * m, spawn_rng(seed)
        # drawn with replacement, so some repeat vertices, and overlapping
        drawn = [rng.choice(nv, size=int(rng.integers(1, nv))).tolist() for _ in range(32)]
        csets = [
            [],
            [m + 1, m + 1],  # a repeated vertex
            *drawn[:16],
            list(range(m, 2 * m)),  # confined to part 1
            [],
            *drawn[16:],
            list(range((k - 1) * m, nv))[::-1],  # confined to the last part
            drawn[0] + drawn[1],  # overlaps both
            [nv - 1, 0, nv - 1],
        ]
        with mock.patch.object(cycles, "_ROW_BLOCK", block):
            counts = cycles._meeting_counts(g, csets)
            lone = [cycles._meeting_counts(g, [cset])[0] for cset in csets]
        assert counts == lone == [sum(1 for s in sets if s & set(cset)) for cset in csets]
        assert len(set(counts)) > 3

    def test_sets_are_checked_first_and_empty_sets_need_no_copy(self, monkeypatch, tiny_complete):
        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(cycles, "_closed_walks", no_chain)
        assert cycles._meeting_counts(tiny_complete, [[], (), np.empty(0, int)]) == [0, 0, 0]
        assert cycles._meeting_counts(tiny_complete, []) == []
        # the bad vertex of the last set is refused before the first set is counted
        with pytest.raises(UnknownVertexError):
            cycles._meeting_counts(tiny_complete, [[0], [1, 6]])

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on numpy 2; numpy 1 imports it with numpy
        code = (
            "import sys, numpy\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "from ramsey_lab import complete_layered, count_cycles_meeting\n"
            "assert count_cycles_meeting(complete_layered(3, 4), [0, 5, 5, 9]) == 64 - 27\n"
            "print(eager, 'numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(cycles.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        eager, imported = out.stdout.split()
        assert eager == "True" or imported == "False", out.stdout

    def test_chains_run_on_the_sets_rows_only(self, monkeypatch):
        # first-hit count: every chain starts from explicit rows of the set, and
        # the rows add up to at most |cset|, so no full m-row chain product runs
        g = random_graph(3, 60, 0.5, 71)
        cset = [5, 70, 71, 170]
        expected = count_cycles_meeting(g, cset)
        calls = []
        kernel = cycles._closed_walks

        def spy(fb, part, rows=None, skip=None):
            calls.append(rows)
            return kernel(fb, part, rows, skip)

        monkeypatch.setattr(cycles, "_closed_walks", spy)
        assert count_cycles_meeting(g, cset) == expected
        assert calls
        assert all(rows is not None and not isinstance(rows, slice) for rows in calls)
        assert sum(len(rows) for rows in calls) <= len(cset)


class TestMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), extra=st.integers(0, 10**6))
    def test_adding_edge_never_decreases_counts(self, seed, extra):
        g = random_graph(3, 5, 0.4, seed)
        absent = [
            (u, v)
            for i in range(3)
            for u in range(i * 5, i * 5 + 5)
            for v in (((i + 1) % 3) * 5 + j for j in range(5))
            if not g.adjacent(u, v)
        ]
        if not absent:
            return
        u, v = absent[extra % len(absent)]
        g2 = LayeredGraph.from_edges(3, 5, g.edges() + [(min(u, v), max(u, v))])
        assert count_proper_cycles(g2) >= count_proper_cycles(g)
        assert (cycles_per_vertex(g2) >= cycles_per_vertex(g)).all()
        assert count_cycles_meeting(g2, [0, 7]) >= count_cycles_meeting(g, [0, 7])


class TestHypergraph:
    def test_complete_3_2(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        assert h.num_vertices == 6
        assert len(h) == 8

    def test_empty(self):
        h = build_hypergraph(random_graph(3, 4, 0.0, 0))
        assert len(h) == 0

    def test_edge_count_matches_enumeration(self):
        g = random_graph(3, 7, 0.5, 71)
        assert len(build_hypergraph(g)) == len(brute_force_cycles(g))

    def test_vertex_rows_are_part_indexed_hyperedges(self):
        g = random_graph(4, 4, 0.7, 73)
        h = build_hypergraph(g)
        rows = h.vertex_rows()
        assert rows.shape == (len(h), 4) and rows.dtype == np.int64
        assert [tuple(r) for r in rows.tolist()] == brute_force_cycles(g)
        assert np.array_equal(h.vertex_rows(slice(2, 5)), rows[2:5])
        assert np.array_equal(h.vertex_rows(np.array([4, 1, 4])), rows[[4, 1, 4]])
        assert (rows // g.m == np.arange(4)).all()  # entry i lies in part i
        assert h.hyperedge(len(h) - 1) == tuple(rows[-1].tolist())
        with pytest.raises(IndexError):
            h.hyperedge(len(h))

    # a boolean mask or a float array is no id array: numpy would read a
    # mask as a selection and the rows layout as ids 0 and 1, so each layout
    # and a coloring refuse both alike; a scalar id follows the same rule
    def test_non_integer_id_arrays_are_refused(self):
        g = complete_layered(3, 20)
        mask = np.zeros(g.m**3, dtype=bool)
        mask[[5, 7]] = True
        for layout in LAYOUTS:
            with forced(layout):
                h = build_hypergraph(g)
            assert h.layout == layout and len(h) == mask.size
            col = random_coloring(h, 3, 1)
            for bad in (mask, np.array([5.0, 7.0]), np.array([True])):
                for read in (h.keys, h.vertex_rows, col.__getitem__):
                    with pytest.raises(IndexError, match="must be integers"):
                        read(bad)
            with pytest.raises(IndexError, match="must be integers"):
                h.hyperedge(True)
            assert h.hyperedge(-1) == h.hyperedge(len(h) - 1) == (19, 39, 59)
            assert h.hyperedge(np.int64(-len(h))) == h.hyperedge(0) == (0, 20, 40)
            for bad in (len(h), -len(h) - 1):
                with pytest.raises(IndexError, match="out of range"):
                    h.hyperedge(bad)
            ids = np.flatnonzero(mask)
            assert np.array_equal(h.keys(ids), ids.astype(np.uint64))

    def test_edge_id_roundtrip(self):
        g = random_graph(4, 4, 0.6, 79)
        h = build_hypergraph(g)
        for eid in range(len(h)):
            cyc = h.hyperedge(eid)
            assert h.edge_id(cyc) == eid
            # any ordering of the vertex set resolves to the same id
            assert h.edge_id(tuple(reversed(cyc))) == eid

    def test_extension_ids(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        ids = h.extension_ids([0, 2])
        assert len(ids) == 2
        for eid in ids:
            assert {0, 2} <= set(h.hyperedge(int(eid)))

    # the path is validated as a one-row family, with trash_family's refusals
    @pytest.mark.parametrize(
        "path, error, match",
        [
            ([0, 1], InvariantViolationError, "hits a part twice"),
            ([0], InvariantViolationError, "exactly 2 vertices, got 1"),
            ([0, 4, 8], InvariantViolationError, "exactly 2 vertices, got 3"),
            ([0, 99], UnknownVertexError, "vertex 99 not in graph"),
        ],
    )
    def test_extension_ids_refuse_malformed_paths(self, path, error, match):
        h = build_hypergraph(complete_layered(3, 4))
        with pytest.raises(error, match=match):
            h.extension_ids(path)

    # families of up to 5 paths drawn on dense hosts: rows that miss part 0 or
    # k-1 run up the parts and the others down them, and with 2 rows a block
    # a group spans several blocks
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("k, m, p", [(3, 10, 0.7), (4, 8, 0.8), (5, 8, 0.85)])
    def test_family_ids_are_the_union_of_per_row_extension_ids(self, k, m, p, layout):
        missed = set()
        for seed in range(8):
            g = random_graph(k, m, p, seed)
            with forced(layout):
                h = build_hypergraph(g)
            assert h.layout == layout
            fam = sample_trash_family(g, 1 + seed % 5, spawn_rng(seed))
            assert fam is not None
            per_row = [h.extension_ids(row) for row in fam.rows.tolist()]
            with mock.patch.object(cycles, "_ROW_BLOCK", 2):
                ids = h.family_ids(fam)
            assert ids.dtype == np.int64
            assert sorted(ids.tolist()) == sorted(np.concatenate([ids[:0], *per_row]).tolist())
            assert ids.size == count_family_extensions(g, fam)
            missed |= {k * (k - 1) // 2 - sum(v // m for v in row) for row in fam.rows.tolist()}
            empty = h.family_ids(trash_family(g, []))
            assert empty.dtype == np.int64 and empty.size == 0
        assert missed == set(range(k))

    # on K(k, m) every (k-1)-path has exactly m closers, so a family of
    # disjoint paths has m ids a path, none shared; rows miss every part, in
    # both directions, and the groups span several 3-row blocks
    @pytest.mark.parametrize("k, m, sizes", [(3, 12, [5, 3, 4]), (4, 12, [4, 2, 3, 2]), (5, 12, [3, 2, 2, 2, 2])])
    def test_family_ids_on_complete_hosts_in_closed_form(self, k, m, sizes):
        g = complete_layered(k, m)
        free = [0] * k  # the next unused local of each part
        paths = []
        for q, size in enumerate(sizes):
            for i in range(size):
                path = []
                for part in ((q + 1 + j) % k for j in range(k - 1)):
                    path.append(part * m + free[part])
                    free[part] += 1
                paths.append(path[::-1] if i % 2 else path)
        fam = trash_family(g, paths)
        for layout in LAYOUTS:
            with forced(layout):
                h = build_hypergraph(g)
            with mock.patch.object(cycles, "_ROW_BLOCK", 3):
                ids = h.family_ids(fam)
            assert ids.size == np.unique(ids).size == m * len(fam), layout
            rows = h.vertex_rows(ids)
            assert all(any(set(p) <= set(e) for p in paths) for e in rows.tolist())

    def test_export_schema(self, tiny_complete, tmp_path):
        path = tmp_path / "h.json"
        build_hypergraph(tiny_complete).save(path)
        doc = json.loads(path.read_text())
        validate_document(doc, "hypergraph-v1")
        assert doc["vertices"] == 6
        assert len(doc["edges"]) == 8

    @pytest.mark.parametrize("chunk", [1, 3, 4, 8, 65_536])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_save_writes_one_compact_document_across_chunks(self, tmp_path, monkeypatch, chunk, p):
        # the graph (0 or 12 edges), hypergraph and coloring (0 or 8 hyperedges)
        # files, split in chunks that do and do not divide their row counts
        monkeypatch.setattr(reporting, "_WRITE_CHUNK", chunk)
        g = random_graph(3, 2, p, 0)
        h = build_hypergraph(g)
        col = random_coloring(h, 3, 0)
        writers = [
            (g, {"k": 3, "m": 2, "edges": g.edges()}),
            (h, {"vertices": h.num_vertices, "edges": h.vertex_rows().tolist()}),
            (col, {"r": 3, "colors": col[:].tolist()}),
        ]
        for obj, whole in writers:
            path = tmp_path / "out.json"
            obj.save(path)
            assert path.read_text() == json.dumps(whole, separators=(",", ":")) + "\n"

    def test_save_peak_memory_is_near_the_key_array(self, tmp_path, monkeypatch):
        # a smaller chunk keeps the traced run short; the peak is one chunk's
        # rows and text, so it stays flat as the hypergraph grows
        monkeypatch.setattr(reporting, "_WRITE_CHUNK", 4096)
        g = random_graph(3, 100, 0.5, 1)
        for layout in LAYOUTS:
            with forced(layout):
                h = build_hypergraph(g)
            assert len(h) > 25 * 4096
            tracemalloc.start()
            try:
                h.save(tmp_path / "h.json")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # 12 bytes a hyperedge, the bound this test set as 3 x 4-byte keys:
            # half the int64 rows of a whole decode, before any of its text
            assert peak < 12 * len(h), layout

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_codec_roundtrip_up_to_64_bits(self, k):
        m = round(2 ** (64 / k))
        while m**k >= 2**64:
            m -= 1
        assert (m + 1) ** k >= 2**64 > m**k  # the largest m whose keys fit
        rng = np.random.default_rng(k)
        locs = np.vstack([np.zeros(k, dtype=np.int64), np.full(k, m - 1), rng.integers(0, m, (50, k))])
        keys = encode_keys(list(locs.T), m)
        assert keys.dtype == np.uint64 and int(keys[1]) == m**k - 1
        assert np.array_equal(decode_keys(keys, k, m), locs)
        # scalar columns broadcast: part 0 fixed for every key
        fixed = encode_keys([0] + list(locs.T[1:]), m)
        assert np.array_equal(decode_keys(fixed, k, m)[:, 1:], locs[:, 1:])
        with pytest.raises(ResourceLimitError):
            encode_keys([0] * k, m + 1)
        with pytest.raises(ResourceLimitError):
            decode_keys(keys, k, m + 1)

    # dtype: the narrowest unsigned dtype that holds every key, m**k - 1
    @pytest.mark.parametrize(
        "k, m, dtype",
        [(4, 256, np.uint32), (3, 1625, np.uint32), (4, 257, np.uint64), (3, 1626, np.uint64)],
    )
    def test_keys_are_32_bits_while_m_to_the_k_fits(self, k, m, dtype):
        assert cycles._radices(k, m).dtype == np.uint64
        rng = np.random.default_rng(m)
        locs = np.vstack([np.zeros(k, dtype=np.int64), np.full(k, m - 1), rng.integers(0, m, (50, k))])
        keys = encode_keys(list(locs.T), m)
        assert keys.dtype == np.uint64 and int(keys[1]) == m**k - 1
        assert np.array_equal(decode_keys(keys, k, m), locs)
        # the keys decode the same from the narrowest dtype that holds them
        assert np.array_equal(keys.astype(dtype), keys)
        assert np.array_equal(decode_keys(keys.astype(dtype), k, m), locs)
        # one key from scalar columns is uint64 too
        top = encode_keys([m - 1] * k, m)
        assert top.dtype == np.uint64 and int(top) == m**k - 1

    # just below and just above m**k == 2**32; dtype: the narrowest unsigned
    # dtype that holds every key, m**k - 1
    @pytest.mark.parametrize("m, dtype, seed", [(1625, np.uint32, 2), (1626, np.uint64, 2)])
    def test_sparse_hosts_either_side_of_32_bits(self, m, dtype, seed):
        g = random_graph(3, m, 0.002, seed)
        h = build_hypergraph(g)
        keys = h.keys()
        assert keys.dtype == np.uint64
        assert len(h) == count_proper_cycles(g) > 0
        assert (keys[1:] > keys[:-1]).all()
        for row in h.vertex_rows().tolist():
            assert [g.part_of(v) for v in row] == [0, 1, 2]
            assert all(g.adjacent(row[i], row[(i + 1) % 3]) for i in range(3))
        assert h.ids_for_keys(keys).tolist() == list(range(len(h)))
        assert h.ids_for_keys(keys.astype(dtype)).tolist() == list(range(len(h)))
        beyond = np.array([m**3, 2**64 - 1], dtype=np.uint64)
        assert h.ids_for_keys(beyond).tolist() == [-1, -1]

    # sparse k = 4 hosts at m**k == 2**32 and just above, both flat with a
    # uint64 head: their decoded rows re-encode into strictly ascending uint64
    # keys that look up their own ids, and the top key m**k - 1 encoded from
    # scalar columns stays uint64 under numpy 1.24's value-based casting too
    @pytest.mark.parametrize("m", [256, 257])
    def test_flat_k4_hosts_either_side_of_32_bits(self, m):
        h = build_hypergraph(random_graph(4, m, 0.02, 1))
        assert len(h) > 0
        assert h.layout == "flat" and h.head.dtype == np.uint64
        locs = h.vertex_rows() - np.arange(4) * m
        keys = encode_keys(list(locs.T), m)
        assert keys.dtype == np.uint64 and (keys[1:] > keys[:-1]).all()
        assert np.array_equal(h.ids_for_keys(keys), np.arange(len(h)))
        top = encode_keys([m - 1] * 4, m)
        assert top.dtype == np.uint64 and int(top) == m**4 - 1
        assert decode_keys(np.array([top]), 4, m).tolist() == [[m - 1] * 4]

    def test_build_allocates_two_bytes_a_hyperedge(self):
        # a row per prefix path, and the count's float32 blocks
        g = random_graph(3, 200, 0.5, 1)
        tracemalloc.start()
        try:
            h = build_hypergraph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(h) == 1_001_036 and h.layout == "rows"
        assert peak < 1.5 * 2 * len(h)

    def test_lookups_do_not_copy_the_key_array(self):
        # a search with queries wider than the keys would copy the whole array
        g = random_graph(3, 200, 0.5, 1)
        for layout in LAYOUTS:
            with forced(layout):
                h = build_hypergraph(g)
            ids = [0, 5, 500_000, len(h) - 1]
            path = list(h.hyperedge(7)[:2])
            keys = h.keys(ids)
            assert len(h) >= 1_000_000 and keys.dtype == np.uint64
            tracemalloc.start()
            try:
                found = [
                    h.ids_for_keys(keys.astype(np.uint32)),
                    h.ids_for_keys(keys),
                    h.ids_for_keys(keys.astype(np.int64)),
                ]
                ext = h.extension_ids(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < h.nbytes / 10, layout
            assert all(f.tolist() == ids for f in found)
            assert 7 in ext.tolist() and all(set(path) <= set(h.hyperedge(int(e))) for e in ext)

    # (k, m, hyperedges, (layout, prefix paths)): instances D, S and S4, the
    # million-edge host, the p = 1 host K(4, 400), and a sparse host with
    # keys of 63 bits and a made-up count of prefix paths
    @pytest.mark.parametrize(
        "k, m, total, layout",
        [
            (3, 1200, 65_789_151, ("rows", 484_455)),
            (3, 1200, 13_635, ("flat", 28_624)),
            (4, 40, 4019, ("flat", 2644)),
            (3, 200, 1_001_036, ("rows", 19_986)),
            (4, 400, 400**4, ("rows", 400**3)),
            (6, 1449, 10, ("flat", 100)),
        ],
    )
    def test_store_layout_takes_the_fewest_bytes(self, k, m, total, layout):
        name, rows = layout
        assert cycles._store_layout(total, rows) == name
        nbytes = cycles._store_bytes(total, rows)
        assert nbytes[name] == min(nbytes.values())
        if (k, m, total) == (3, 1200, 65_789_151):
            assert nbytes == {"flat": 526_313_208, "rows": 7_751_288}
        if (k, m, total) == (3, 1200, 13_635):
            assert nbytes == {"flat": 109_080, "rows": 457_992}

    # hosts whose keys fit 16, 32 or 64 bits, in either layout: rows with no
    # closers, empty hosts, S4's host, and complete ones
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(3, 5), (3, 60), (3, 120), (4, 7), (4, 40), (5, 5), (5, 16)]),
        p=st.sampled_from([0.0, 0.02, 0.1, 0.2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(LAYOUTS),
    )
    @example(shape=(4, 40), p=0.2, seed=7, layout="flat")
    @example(shape=(4, 40), p=0.2, seed=7, layout="rows")
    @example(shape=(5, 16), p=0.1, seed=3, layout="rows")
    @example(shape=(3, 5), p=1.0, seed=0, layout="rows")
    def test_store_lookups_either_side_of_the_width_rule(self, shape, p, seed, layout):
        k, m = shape
        g = random_graph(k, m, p, seed)
        with forced(layout):
            h = build_hypergraph(g)
        assert h.layout == layout
        brute = brute_force_cycle_keys(g)
        rows = h.vertex_rows()
        keys = encode_keys(list((rows - np.arange(k) * m).T), m)
        assert np.array_equal(keys, brute)
        assert np.array_equal(h.ids_for_keys(keys), np.arange(len(h)))
        if len(h):  # negative ids count from the end, as in numpy
            assert np.array_equal(h.vertex_rows(np.array([-1, 0, -len(h)])), rows[[-1, 0, 0]])
        probe = spawn_rng(seed).integers(0, m**k, 200)
        assert (h.ids_for_keys(probe[~np.isin(probe, brute)]) == -1).all()
        # beyond the key space, some equal to a member in their low 16 or 32 bits
        top = int(brute[-1]) if brute.size else 0
        beyond = [m**k, m**k + 1, top + 2**16, top + 2**32, 2**63 - 1]
        beyond = np.array([x for x in beyond if x >= m**k], dtype=np.int64)
        for query in (beyond, beyond.astype(np.uint64), np.array([2**64 - 1], dtype=np.uint64)):
            assert (h.ids_for_keys(query) == -1).all()
        # negative keys, also ones that wrap to a member in 16 or 32 bits
        wraps = [-1, top % 2**16 - 2**16, top % 2**32 - 2**32]
        assert h.ids_for_keys(np.array(wraps)).tolist() == [-1] * 3

    # hosts whose keys need more than 32 bits: a small random host placed at
    # increasing random positions of each part, so its cycles keep their order
    # and the brute-force oracle still enumerates them; (the layout it takes,
    # its prefix paths), and each layout is checked
    @pytest.mark.parametrize(
        "k, m0, m, p, layout",
        [
            (3, 12, 1700, 0.0, ("flat", 0)),  # empty
            (3, 12, 1700, 0.05, ("flat", 5)),  # one cycle
            (3, 12, 1700, 0.4, ("flat", 41)),
            (5, 6, 200, 0.5, ("flat", 100)),
            (5, 6, 200, 0.7, ("rows", 356)),
            (6, 5, 1449, 0.7, ("rows", 587)),
        ],
    )
    def test_store_of_keys_wider_than_32_bits(self, k, m0, m, p, layout):
        small = random_graph(k, m0, p, 4)
        rng = spawn_rng(9)
        pos = [np.sort(rng.choice(m, m0, replace=False)) for _ in range(k)]
        blocks = [np.zeros((m, m), dtype=bool) for _ in range(k)]
        for i, b in enumerate(blocks):
            b[np.ix_(pos[i], pos[(i + 1) % k])] = small.blocks[i]
        g = LayeredGraph(k, m, blocks)
        h = build_hypergraph(g)
        assert (h.layout, int(cycles._prefix_paths(g.blocks).sum())) == layout
        local = decode_keys(brute_force_cycle_keys(small), k, m0)
        brute = encode_keys([pos[i][local[:, i]] for i in range(k)], m)
        for name in LAYOUTS:
            with forced(name):
                h = build_hypergraph(g)
            assert h.keys().dtype == np.uint64 and len(h) == count_proper_cycles(small)
            rows = h.vertex_rows()
            keys = encode_keys(list((rows - np.arange(k) * m).T), m)
            assert np.array_equal(keys, brute)
            assert np.array_equal(h.ids_for_keys(keys), np.arange(len(h)))
            probe = spawn_rng(5).integers(0, m**k, 200, dtype=np.uint64)
            assert (h.ids_for_keys(probe[~np.isin(probe, brute)]) == -1).all()
            assert h.ids_for_keys(np.array([-1, -(2**40)])).tolist() == [-1, -1]
            top = np.array([m**k, 2**64 - 1], dtype=np.uint64)
            assert h.ids_for_keys(top).tolist() == [-1, -1]

    def test_rows_store_takes_a_third_of_a_byte_a_hyperedge(self):
        # a uint64 key and an int64 offset for each of the 19,986 prefix paths
        g = random_graph(3, 200, 0.5, 1)
        tracemalloc.start()
        try:
            h = build_hypergraph(g)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(h) == 1_001_036 and h.layout == "rows"
        assert h.nbytes == 16 * 19_986 + 8 < len(h) / 3
        assert held < len(h) / 2
        # the peak is the count's float32 blocks (480,000 bytes) and one
        # prefix product of the chain, under a byte a hyperedge
        assert peak < len(h)

    def test_vertex_rows_of_a_rows_store_decode_like_a_flat_one(self):
        # a flat slice is a view of the store; a rows store builds the
        # slice's uint64 keys, 8 bytes an id, from one block of _ROW_BLOCK x m
        # closer masks at a time, beyond what the same decode costs a flat one
        g = random_graph(3, 200, 0.5, 1)
        peaks = {}
        for layout in LAYOUTS:
            with forced(layout):
                h = build_hypergraph(g)
            tracemalloc.start()
            try:
                out = h.vertex_rows(slice(0, 2**20))
                peaks[layout] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == (len(h), 3)
        assert peaks["rows"] <= peaks["flat"] + 8 * len(h) + cycles._ROW_BLOCK * g.m
        # the output, and the decode's digits and keys
        assert peaks["rows"] < 3 * out.nbytes

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(3, 5),
        m=st.integers(1, 7),
        p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(LAYOUTS),
        data=st.data(),
    )
    def test_both_layouts_match_brute_force(self, k, m, p, seed, layout, data):
        g = random_graph(k, m, p, seed)
        with forced(layout):
            h = build_hypergraph(g)
        brute = brute_force_cycle_keys(g)
        n = len(h)
        assert h.layout == layout and n == brute.size
        assert np.array_equal(h.keys(), brute)
        # id arrays in any order, negative ids among them, and slices
        ids = np.array(data.draw(st.lists(st.integers(-n, n - 1), max_size=40)) if n else [],
                       dtype=np.int64)
        assert np.array_equal(h.keys(ids), brute[ids])
        a, b = data.draw(st.lists(st.integers(-n - 2, n + 2), min_size=2, max_size=2))
        for step in (1, 3):
            assert np.array_equal(h.keys(slice(a, b, step)), brute[a:b:step])
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                h.keys(np.array([bad]))
        # the whole key space: members map to their ids, the rest to -1
        want = np.full(m**k, -1)
        want[brute.astype(np.int64)] = np.arange(n)
        space = np.arange(m**k)
        assert np.array_equal(h.ids_for_keys(space), want)
        assert np.array_equal(h.ids_for_keys(space.astype(np.uint64)), want)
        # negative keys, and keys at or beyond m**k
        assert (h.ids_for_keys(np.array([-1, -(m**k), -(2**62), m**k, 2**63 - 1])) == -1).all()
        assert (h.ids_for_keys(np.array([m**k, 2**64 - 1], dtype=np.uint64)) == -1).all()

    # a gate at scale with no oracle: on K(k, m) every one-per-part tuple is a
    # hyperedge, so there are m**k of them and each one's id is its key
    @pytest.mark.parametrize("k, m", [(3, 300), (4, 60), (5, 20)])
    def test_complete_hosts_in_closed_form(self, k, m):
        h = build_hypergraph(complete_layered(k, m))
        n = m**k
        assert len(h) == n and h.layout == "rows"
        for a in (0, n // 2 - 50_000, n - 100_000):
            ids = np.arange(a, a + 100_000)
            assert np.array_equal(h.keys(slice(a, a + 100_000)), ids)
            assert np.array_equal(h.ids_for_keys(ids), ids)
        ids = spawn_rng(k).integers(0, n, 1000)
        assert np.array_equal(h.keys(ids), ids)

    # K(k, m) less the edge (u, v) of block q: the m**(k-2) cycles through it
    # are gone, and a key's id is the key less the removed keys below it;
    # q = 0 removes a prefix path, k - 2 a closer of some rows, k - 1 a closer
    # of every row through u's part-0 vertex
    @pytest.mark.parametrize("k, m", [(3, 300), (4, 60), (5, 20)])
    @pytest.mark.parametrize("q", [0, -2, -1], ids=["first", "last-prefix", "closing"])
    def test_complete_hosts_less_one_edge_in_closed_form(self, k, m, q):
        q %= k
        u, v = 7, 11
        blocks = [b.copy() for b in complete_layered(k, m).blocks]
        blocks[q][u, v] = False
        h = build_hypergraph(LayeredGraph(k, m, blocks))
        n = m**k - m ** (k - 2)
        assert len(h) == n and h.layout == "rows"
        # digit q is u and digit q + 1 is v; the other k - 2 digits run free
        free = iter(np.indices((m,) * (k - 2)).reshape(k - 2, -1))
        cols = [u if i == q else v if i == (q + 1) % k else next(free) for i in range(k)]
        removed = np.sort(encode_keys(cols, m)).astype(np.int64)
        assert (h.ids_for_keys(removed) == -1).all()
        middle = int(removed[removed.size // 2])
        for a in (0, max(middle - 50_000, 0), m**k - 100_000):
            keys = np.arange(a, a + 100_000)
            keys = keys[~np.isin(keys, removed)]
            ids = keys - np.searchsorted(removed, keys)
            assert np.array_equal(h.ids_for_keys(keys), ids)
            assert np.array_equal(h.keys(slice(ids[0], ids[-1] + 1)), keys)
            assert np.array_equal(h.keys(ids[::-7]), keys[::-7])

    # sparse drawn hosts with 64-bit halves, checked cycle by cycle
    @pytest.mark.parametrize("k, m, p", [(3, 1700, 0.0), (5, 100, 0.01), (5, 200, 0.012)])
    def test_sparse_hosts_with_64_bit_halves(self, k, m, p):
        g = random_graph(k, m, p, 0)
        h = build_hypergraph(g)
        assert h.layout == "flat" and h.head.dtype == np.uint64
        assert len(h) == count_proper_cycles(g)
        local = h.vertex_rows() - np.arange(k) * m
        for i in range(k):
            assert g.blocks[i][local[:, i], local[:, (i + 1) % k]].all()
        keys = encode_keys(list(local.T), m)
        assert (keys[1:] > keys[:-1]).all()
        assert np.array_equal(h.ids_for_keys(keys), np.arange(len(h)))

    def test_keys_beyond_the_key_width_never_wrap_into_a_hit(self):
        g = complete_layered(3, 4)  # every one of the m**k = 64 keys is a hyperedge
        for layout in LAYOUTS:
            with forced(layout):
                h = build_hypergraph(g)
            assert h.keys().tolist() == list(range(64))
            wide = np.array([5, 63, 64, 2**32 - 1, 2**32, 2**32 + 5, 2**63 + 5], dtype=np.uint64)
            assert h.ids_for_keys(wide).tolist() == [5, 63, -1, -1, -1, -1, -1]
            assert h.ids_for_keys(np.array([-1, 5 - 2**32, 7])).tolist() == [-1, -1, 7]
            assert h.ids_for_keys([2**32 + 7, 7]).tolist() == [-1, 7]
        # nor does decoding, where a wrapped key would decode to a valid row
        assert decode_keys(np.array([63], dtype=np.uint64), 3, 4).tolist() == [[3, 3, 3]]
        for keys in (np.array([2**32 + 63], dtype=np.uint64), np.array([-1])):
            with pytest.raises(ParameterError, match="^keys: "):
                decode_keys(keys, 3, 4)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_keys_of_no_integer_dtype_are_refused(self, layout):
        # a float or bool query would be truncated into a key: 5.5 into 5
        g = random_graph(3, 20, 0.5, 1)
        with forced(layout):
            h = build_hypergraph(g)
        assert h.layout == layout
        stored = h.keys([5])
        for keys in (stored.astype(float) + 0.5, np.array([True]), []):
            with pytest.raises(ParameterError, match="^keys: keys must be integers, got dtype"):
                h.ids_for_keys(keys)
            with pytest.raises(ParameterError, match="^keys: keys must be integers, got dtype"):
                decode_keys(keys, 3, 20)
        assert h.ids_for_keys(stored).tolist() == [5]
        # every integer width that holds the keys still resolves them
        small = complete_layered(3, 4)  # keys 0..63
        with forced(layout):
            h = build_hypergraph(small)
        for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64):
            keys = np.arange(64, dtype=dtype)
            assert h.ids_for_keys(keys).tolist() == list(range(64)), dtype
            assert np.array_equal(decode_keys(keys, 3, 4), decode_keys(h.keys(), 3, 4)), dtype

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_queries_beyond_2_to_53_and_2_to_63_resolve_exactly(self, layout):
        # K(6, 1449) has keys up to 1449**6 - 1 > 2**63; this host keeps two of
        # its cycles, on local vertex 1000 and on local vertex 1448 of every part
        k, m = 6, 1449
        blocks = [np.zeros((m, m), dtype=bool) for _ in range(k)]
        for b in blocks:
            b[[1000, m - 1], [1000, m - 1]] = True
        with forced(layout):
            h = build_hypergraph(LayeredGraph(k, m, blocks))
        low, top = (v * (m**k - 1) // (m - 1) for v in (1000, m - 1))
        assert h.layout == layout and h.keys().tolist() == [low, top]
        assert 2**53 < low < 2**63 <= top == m**k - 1
        # exact in int64 and uint64: a query through float64 would round key + 1 to key
        assert h.ids_for_keys(np.array([low, low + 1], dtype=np.int64)).tolist() == [0, -1]
        assert h.ids_for_keys(np.array([low, low + 1], dtype=np.uint64)).tolist() == [0, -1]
        assert h.ids_for_keys(np.array([top, top - 1], dtype=np.uint64)).tolist() == [1, -1]
        # the negative int64 key that wraps onto the top key as uint64
        wrap = np.array([top - 2**64], dtype=np.int64)
        assert wrap.astype(np.uint64).tolist() == [top]
        assert h.ids_for_keys(wrap).tolist() == [-1]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_key_space_beyond_64_bits_refused(self, layout):
        # 100**10 > 2**64 keys
        with forced(layout), pytest.raises(
            ResourceLimitError, match="^canonical key space exceeds 64 bits "
        ):
            build_hypergraph(random_graph(10, 100, 0.02, 0))

    # keys at or beyond m**k once decoded to a part-local index of m or more;
    # m = 1 has the one key 0, and its leading digit is the key itself
    @pytest.mark.parametrize(
        "k, m, keys",
        [
            (3, 4, [64]),
            (3, 4, [2**32 - 1]),
            (3, 4, [0, 63, 64]),
            (3, 4, np.array([2**64 - 1], dtype=np.uint64)),
            (3, 4, np.array([-1, 5])),
            (3, 4, np.array([-(2**63)])),
            (3, 1, [1]),
            (3, 1, [-1]),
            (3, 1, np.array([2**64 - 1], dtype=np.uint64)),
            (1, 5, [5]),
        ],
    )
    def test_decode_keys_refuses_keys_outside_the_key_space(self, k, m, keys):
        with pytest.raises(ParameterError, match="^keys: "):
            decode_keys(keys, k, m)

    def test_decode_keys_accepts_the_whole_key_space(self):
        assert decode_keys([0], 3, 1).tolist() == [[0, 0, 0]]
        assert decode_keys([4, 0], 1, 5).tolist() == [[4], [0]]
        assert decode_keys(np.arange(64, dtype=np.int64), 3, 4).tolist() == [
            list(t) for t in itertools.product(range(4), repeat=3)
        ]
        assert decode_keys(np.empty(0, dtype=np.uint64), 3, 4).shape == (0, 3)

    def test_decode_keys_roundtrip(self):
        g = random_graph(4, 5, 0.5, 83)
        keys = build_hypergraph(g).keys()
        locs = decode_keys(keys, 4, 5)
        rebuilt = (
            locs.astype(np.uint64)
            * np.array([5**3, 5**2, 5, 1], dtype=np.uint64)[None, :]
        ).sum(axis=1)
        assert np.array_equal(rebuilt, keys)


class TestValidateTightPath:
    def test_single_hyperedge_layout(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        assert validate_tight_path(h, [0, 2, 4])

    def test_repeated_vertex_rejected(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        ok, reason = validate_tight_path_verbose(h, [0, 2, 4, 0])
        assert not ok and reason == "repeated-vertex"

    def test_alternating_parts_in_complete(self):
        g = complete_layered(3, 3)
        h = build_hypergraph(g)
        seq = [0, 3, 6, 1, 4, 7, 2, 5, 8]
        assert validate_tight_path(h, seq)

    def test_too_short(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        ok, reason = validate_tight_path_verbose(h, [0, 2])
        assert not ok and reason == "too-short"

    def test_window_not_one_per_part(self):
        g = complete_layered(3, 3)
        h = build_hypergraph(g)
        ok, reason = validate_tight_path_verbose(h, [0, 3, 1])
        assert not ok and reason == "window-not-one-per-part"

    def test_window_not_hyperedge(self):
        g = LayeredGraph.from_edges(3, 2, [(0, 2), (2, 4), (0, 4), (1, 3)])
        h = build_hypergraph(g)
        ok, reason = validate_tight_path_verbose(h, [1, 3, 5])
        assert not ok and reason == "window-not-hyperedge"

    def test_color_filter(self, tiny_complete):
        from ramsey_lab import Coloring

        h = build_hypergraph(tiny_complete)
        colors = np.zeros(8, dtype=np.uint8)
        colors[0] = 1
        col = Coloring(2, colors)
        assert validate_tight_path(h, [0, 2, 4], col, 1)
        ok, reason = validate_tight_path_verbose(h, [0, 2, 4], col, 0)
        assert not ok and reason == "window-wrong-color"

    @pytest.mark.parametrize("color", [0.5, 7, None], ids=["fraction", "out-of-range", "none"])
    def test_refuses_a_color_the_coloring_lacks(self, tiny_complete, color):
        from ramsey_lab import Coloring, ParameterError

        h = build_hypergraph(tiny_complete)
        col = Coloring(2, np.zeros(len(h), dtype=np.uint8))
        with pytest.raises(ParameterError) as excinfo:
            validate_tight_path_verbose(h, [0, 2, 4], col, color)
        assert excinfo.value.field == "color"

    def test_refuses_a_partial_coloring(self, tiny_complete):
        from ramsey_lab import Coloring, ParameterError

        h = build_hypergraph(tiny_complete)
        col = Coloring(2, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ParameterError) as excinfo:
            validate_tight_path_verbose(h, [0, 2, 4], col, 0)
        assert excinfo.value.field == "col"

    def test_deleted_window(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        deleted = np.zeros(len(h), dtype=bool)
        assert validate_tight_path_verbose(h, [0, 2, 4], deleted=deleted) == (True, None)
        deleted[h.edge_id([0, 2, 4])] = True
        ok, reason = validate_tight_path_verbose(h, [0, 2, 4], deleted=deleted)
        assert not ok and reason == "deleted-window"

    def test_unknown_vertex(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        ok, reason = validate_tight_path_verbose(h, [0, 2, 99])
        assert not ok and reason == "unknown-vertex"


# ids that a cast with int() would truncate or coerce into a vertex of a 6-vertex graph
NON_INTEGER_IDS = pytest.mark.parametrize(
    "bad",
    [0.9, 2.0, True, np.bool_(True), np.float64(1.0), "1"],
    ids=["fraction", "whole-float", "bool", "numpy-bool", "numpy-float", "string"],
)


class TestVertexIds:
    """Vertex ids are Python or numpy integers; anything else is refused, not cast."""

    @NON_INTEGER_IDS
    def test_check_vertex_refuses(self, tiny_complete, bad):
        with pytest.raises(UnknownVertexError):
            tiny_complete._check_vertex(bad)

    @NON_INTEGER_IDS
    def test_trash_family_refuses(self, tiny_complete, bad):
        with pytest.raises(UnknownVertexError):
            trash_family(tiny_complete, [[bad, 4]])
        with pytest.raises(UnknownVertexError):
            build_hypergraph(tiny_complete).extension_ids([bad, 4])

    @NON_INTEGER_IDS
    def test_validate_reports_unknown_vertex(self, tiny_complete, bad):
        h = build_hypergraph(tiny_complete)
        assert validate_tight_path_verbose(h, [bad, 3, 4]) == (False, "unknown-vertex")
        with pytest.raises(UnknownVertexError):
            h.edge_id([bad, 3, 4])

    @NON_INTEGER_IDS
    def test_counts_refuse(self, tiny_complete, bad):
        fam = trash_family(tiny_complete, [[2, 4]])
        with pytest.raises(UnknownVertexError):
            cycles_through_vertex(tiny_complete, bad)
        with pytest.raises(UnknownVertexError):
            count_cycles_meeting(tiny_complete, [bad])
        with pytest.raises(UnknownVertexError):
            count_restricted_extensions(tiny_complete, [bad], fam)

    @pytest.mark.parametrize("v", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_integer_kinds_pass(self, tiny_complete, v):
        h = build_hypergraph(tiny_complete)
        assert cycles_through_vertex(tiny_complete, v) == 4
        assert trash_family(tiny_complete, [[v, 4]]).rows.tolist() == [[1, 4]]
        assert validate_tight_path_verbose(h, [v, 3, 4]) == (True, None)
        assert count_cycles_meeting(tiny_complete, [v]) == 4
