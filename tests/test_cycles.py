import json
import os
import pickle
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_lab import (
    InvariantViolationError,
    LayeredGraph,
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
    extend_path,
    random_coloring,
    trash_family,
    validate_tight_path,
    validate_tight_path_verbose,
)
from ramsey_lab import cycles, reporting
from ramsey_lab.cycles import _closed_walks, _extensions, cycle_keys, decode_keys, encode_keys
from ramsey_lab.oracle import brute_force_cycle_keys, brute_force_cycles
from ramsey_lab.seeds import make_rng
from ramsey_lab.verifier import sample_trash_family
from conftest import random_graph, validate_document


def brute_sets(g):
    return [set(c) for c in brute_force_cycles(g)]


def subpaths(c):
    """The k (k-1)-vertex sub-paths of a part-indexed cycle, one per dropped part."""
    k = len(c)
    return [[c[(q + 1 + j) % k] for j in range(k - 1)] for q in range(k)]


class TestEnumeration:
    def test_complete_3_2_has_8_cycles(self, tiny_complete):
        cycles = build_hypergraph(tiny_complete).hyperedges()
        assert len(cycles) == 8
        assert cycles[0] == (0, 2, 4)
        assert cycles == sorted(cycles)

    def test_empty_graph_has_none(self):
        assert build_hypergraph(random_graph(3, 5, 0.0, 1)).hyperedges() == []

    def test_matches_brute_force_on_100_seeds(self):
        for seed in range(100):
            g = random_graph(3, 6, 0.5, seed)
            assert np.array_equal(cycle_keys(g), brute_force_cycle_keys(g))

    def test_matches_brute_force_other_uniformities(self):
        for k in (4, 5):
            for seed in range(20):
                g = random_graph(k, 5, 0.6, seed)
                assert build_hypergraph(g).hyperedges() == brute_force_cycles(g)

    # the memory cap keeps hosts this small on one worker, so the count is set
    @settings(max_examples=120, deadline=None)
    @given(
        workers=st.sampled_from([1, 2, 3, 8]),  # 8 > m: more workers than starts
        k=st.integers(3, 6),
        m=st.integers(1, 7),
        p=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        seed=st.integers(0, 2**32),
        no_closers=st.booleans(),
        empty_middle=st.booleans(),
    )
    def test_matches_brute_force_drawn(self, workers, k, m, p, seed, no_closers, empty_middle):
        blocks = [b.copy() for b in random_graph(k, m, p, seed).blocks]
        if no_closers:  # start vertex seed % m closes no path
            blocks[k - 1][:, seed % m] = False
        if empty_middle:  # one block the middle levels expand through
            blocks[seed % (k - 2)][:] = False
        g = LayeredGraph(k, m, blocks)
        with mock.patch.object(cycles, "_worker_count", return_value=workers):
            keys = cycle_keys(g)
        assert (keys[1:] > keys[:-1]).all()  # TightHypergraph relies on strict order
        assert np.array_equal(keys, brute_force_cycle_keys(g))

    def test_many_workers_with_frequent_switches_match_one(self, monkeypatch):
        g = random_graph(4, 40, 0.5, 5)
        monkeypatch.setattr(cycles, "_worker_count", lambda k, per_start, total: 1)
        serial = cycle_keys(g)
        monkeypatch.setattr(cycles, "_worker_count", lambda k, per_start, total: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            keys = cycle_keys(g)
        finally:
            sys.setswitchinterval(interval)
        assert keys.tobytes() == serial.tobytes()

    def test_worker_count_holds_temporaries_to_a_quarter_of_the_keys(self, monkeypatch):
        monkeypatch.setattr(cycles, "_available_cpus", lambda: 16)
        # a worker holds up to 4 * (k + 5) * 10 = 320 key-sized words of 1000
        assert cycles._worker_count(3, [10] * 100, 1000) == 3
        assert cycles._worker_count(3, [100] * 1000, 100_000) == 16  # the CPUs bind
        assert cycles._worker_count(3, [1000] + [1] * 99, 1099) == 1  # one start dominates
        assert cycles._worker_count(3, [0] * 5, 0) == 1  # no cycles: still one worker

    def test_available_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert cycles._available_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cycles._available_cpus() == 6

    # {i: d} adds d to the count of the i-th start vertex that has cycles;
    # the last case leaves the total right, so only the per-start check sees it
    @pytest.mark.parametrize(
        "offsets", [{0: -1}, {0: 1}, {0: 1, 1: -1}], ids=["-1", "1", "+1-1"]
    )
    def test_count_mismatch_is_refused(self, monkeypatch, offsets):
        g = random_graph(4, 5, 0.6, 2)
        per_start = _closed_walks(cycles._float_blocks(g), 0)
        starts = np.flatnonzero(per_start)  # starts with cycles, so no count goes negative
        assert starts.size >= 2
        off = np.zeros_like(per_start)
        for i, d in offsets.items():
            off[starts[i]] = d

        def skewed(fb, part, rows=slice(None)):
            return _closed_walks(fb, part, rows) + off

        monkeypatch.setattr(cycles, "_closed_walks", skewed)
        # a skewed start refuses the keys whichever worker reaches it
        skewed_starts = f"^start vertex ({starts[0]}|{starts[1]}): "
        with pytest.raises(InvariantViolationError, match=skewed_starts):
            cycle_keys(g)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        g = random_graph(4, 6, 0.6, 3)
        assert cycles_per_vertex(g)[1] > 0  # start 1 has cycles, so it encodes keys
        encode = cycles.encode_keys

        def failing(cols, m):
            if cols[0] == 1:
                raise RuntimeError(f"boom in {threading.current_thread().name}")
            return encode(cols, m)

        monkeypatch.setattr(cycles, "encode_keys", failing)
        monkeypatch.setattr(cycles, "_worker_count", lambda k, per_start, total: 2)
        # start 1 is dealt to the second worker, a thread of its own
        with pytest.raises(RuntimeError, match="^boom in (?!MainThread)"):
            cycle_keys(g)

    def test_peak_memory_is_the_key_array(self, monkeypatch):
        for cpus in (1, 4, 16):
            monkeypatch.setattr(cycles, "_available_cpus", lambda: cpus)
            for k, m, size in [(3, 200, 1_001_036), (4, 60, 836_893)]:
                g = random_graph(k, m, 0.5, 1)
                tracemalloc.start()
                try:
                    keys = cycle_keys(g)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert keys.size == size
                assert peak < 1.5 * keys.nbytes, (cpus, k, m)

    @pytest.mark.parametrize(
        "count",
        [
            cycle_keys,
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
        # refused after counting, before the key array is allocated
        assert excinfo.value.required == 8 * m**k
        assert peak < 50 * 2**20

    def test_count_matches_enumeration(self):
        for seed in range(20):
            g = random_graph(4, 4, 0.5, seed)
            assert count_proper_cycles(g) == len(build_hypergraph(g).hyperedges())


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

    @pytest.mark.parametrize(
        "count",
        [count_proper_cycles, cycles_per_vertex, lambda g: cycles_through_vertex(g, 0),
         lambda g: count_cycles_meeting(g, [0])],
        ids=["count_proper_cycles", "cycles_per_vertex", "cycles_through_vertex",
             "count_cycles_meeting"],
    )
    def test_float_blocks_beyond_physical_memory_refused(self, monkeypatch, count):
        g = random_graph(3, 4, 0.5, 0)
        need = 8 * 3 * 4 * 4  # one float64 copy of each block
        # physical memory one byte short of the copies; nothing is allocated for real
        pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": need - 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        with pytest.raises(ResourceLimitError, match="^float blocks need more bytes") as excinfo:
            count(g)
        assert (excinfo.value.required, excinfo.value.cap) == (need, need - 1)
        pages["SC_PAGE_SIZE"] = need
        count(g)


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
        assert list(extend_path(tiny_complete, [0, 2])) == [4, 5]

    def test_no_edges_to_missing_part(self):
        g = LayeredGraph.from_edges(3, 2, [(0, 2)])
        assert extend_path(g, [0, 2]).size == 0

    def test_matches_brute_subpath_count(self):
        g = random_graph(3, 6, 0.5, 23)
        sets = brute_sets(g)
        for c in build_hypergraph(g).hyperedges():
            for b in subpaths(c):
                expected = sum(1 for s in sets if set(b) <= s)
                assert len(extend_path(g, b)) == expected

    def test_extension_identity(self):
        # every proper cycle extends exactly k sub-(k-1)-paths, and extending
        # each sub-path recovers the dropped vertex
        for k, seed in ((3, 5), (4, 6)):
            g = random_graph(k, 4, 0.7, seed)
            for c in build_hypergraph(g).hyperedges():
                subs = subpaths(c)
                assert len({frozenset(b) for b in subs}) == k
                for b in subs:
                    (dropped,) = set(c) - set(b)
                    assert dropped in extend_path(g, b)

    def test_rejects_short_path(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            extend_path(complete_layered(4, 2), [0, 2])

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
        fam = sample_trash_family(g, 2, make_rng(seed))
        assert fam is not None and len(fam) == 2
        assert all(extend_path(g, row).size for row in fam.rows.tolist())
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

    def test_chains_run_on_the_sets_rows_only(self, monkeypatch):
        # first-hit count: every chain starts from explicit rows of the set, and
        # the rows add up to at most |cset|, so no full m-row chain product runs
        g = random_graph(3, 60, 0.5, 71)
        cset = [5, 70, 71, 170]
        expected = count_cycles_meeting(g, cset)
        calls = []
        kernel = cycles._closed_walks

        def spy(fb, part, *args, **kwargs):
            rows = args[0] if args else kwargs.get("rows")
            calls.append(rows)
            return kernel(fb, part, *args, **kwargs)

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
        assert [tuple(r) for r in rows.tolist()] == h.hyperedges() == brute_force_cycles(g)
        assert np.array_equal(h.vertex_rows(2, 5), rows[2:5])
        assert (rows // g.m == np.arange(4)).all()  # entry i lies in part i
        assert h.hyperedge(len(h) - 1) == tuple(rows[-1].tolist())
        with pytest.raises(IndexError):
            h.hyperedge(len(h))

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
            (col, {"r": 3, "colors": col.colors.tolist()}),
        ]
        for obj, whole in writers:
            path = tmp_path / "out.json"
            obj.save(path)
            assert path.read_text() == json.dumps(whole, separators=(",", ":")) + "\n"

    def test_save_peak_memory_is_near_the_key_array(self, tmp_path, monkeypatch):
        # a smaller chunk keeps the traced run short; the peak is one chunk's
        # rows and text, so it stays flat as the hypergraph grows
        monkeypatch.setattr(reporting, "_WRITE_CHUNK", 4096)
        h = build_hypergraph(random_graph(3, 100, 0.5, 1))
        assert len(h) > 25 * 4096
        tracemalloc.start()
        try:
            h.save(tmp_path / "h.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * h.keys.nbytes

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

    def test_decode_keys_roundtrip(self):
        g = random_graph(4, 5, 0.5, 83)
        keys = cycle_keys(g)
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
            extend_path(tiny_complete, [bad, 4])

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
