import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_lab import (
    Certificate,
    Coloring,
    FoundPath,
    LayeredGraph,
    ParameterError,
    ResourceLimitError,
    adversarial_coloring,
    audit_certificate,
    build_hypergraph,
    complete_layered,
    count_proper_cycles,
    greedy_round,
    pick_majority_color,
    random_coloring,
    run_outer,
    validate_tight_path,
)
from ramsey_lab import cycles, greedy, reporting
from ramsey_lab.cycles import decode_keys
from ramsey_lab.greedy import RoundOutcome, outcome_to_json
from ramsey_lab.seeds import spawn_rng
from conftest import contradiction_consistent, random_graph


def mono_coloring(h, color, r=2):
    colors = np.full(len(h), color, dtype=np.uint8)
    return Coloring(r, colors)


def parity_coloring(h):
    locs = decode_keys(h.keys(), h.graph.k, h.graph.m)
    return Coloring(2, (locs.sum(axis=1) % 2).astype(np.uint8))


@pytest.fixture
def complete_h(tiny_complete):
    return build_hypergraph(tiny_complete)


@pytest.fixture(scope="module")
def million_h():
    h = build_hypergraph(random_graph(3, 200, 0.5, 1))
    assert len(h) == 1_001_036
    return h


class TestColorings:
    def test_random_deterministic(self, complete_h):
        a = random_coloring(complete_h, 2, 7)
        b = random_coloring(complete_h, 2, 7)
        assert np.array_equal(a[:], b[:])
        assert not np.array_equal(a[:], random_coloring(complete_h, 2, 8)[:])

    def test_round_robin_alternates(self, complete_h):
        col = adversarial_coloring(complete_h, 2, "round_robin")
        assert list(col[:]) == [0, 1, 0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 13])
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_round_robin_is_the_id_modulo_r(self, r, length):
        # the first `length` keys of K(3, 3) stand in for a host of that size
        h = cycles.TightHypergraph(complete_layered(3, 3), np.arange(length, dtype=np.uint64))
        col = adversarial_coloring(h, r, "round_robin")
        assert col[:].dtype == np.uint8
        assert np.array_equal(col[:], (np.arange(length) % r).astype(np.uint8))

    def test_round_robin_allocates_about_a_byte_per_hyperedge(self, million_h, monkeypatch):
        # a chunk well below the host's size tells the planes from the chunks
        monkeypatch.setattr(greedy, "_SCAN_CHUNK", 1 << 16)
        tracemalloc.start()
        try:
            col = adversarial_coloring(million_h, 3, "round_robin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert col.counts().tolist() == [333_679, 333_679, 333_678]
        # two bit planes of N/8 bytes, a chunk of the cycle and one temporary
        assert peak < 2 * -(-len(million_h) // 8) + 3 * greedy._SCAN_CHUNK

    def test_random_frequencies(self):
        g = complete_layered(3, 11)  # 1331 hyperedges
        h = build_hypergraph(g)
        fractions = []
        for seed in range(200):
            col = random_coloring(h, 2, seed)
            fractions.append(col.counts()[0] / len(h))
        mean = float(np.mean(fractions))
        assert abs(mean - 0.5) < 0.05 * 0.5

    def test_vertex_cut_structure(self, complete_h):
        col = adversarial_coloring(complete_h, 2, "vertex_cut", seed=5)
        # recompute membership directly
        g = complete_h.graph
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
        cut = set(rng.choice(g.num_vertices, size=max(1, g.num_vertices // 4), replace=False).tolist())
        for eid in range(len(complete_h)):
            meets = bool(cut & set(complete_h.hyperedge(eid)))
            assert col[eid] == (0 if meets else 1)

    def test_balanced_greedy_small(self, complete_h):
        col = adversarial_coloring(complete_h, 2, "balanced_greedy")
        counts = col.counts()
        assert counts.sum() == 8
        assert abs(int(counts[0]) - int(counts[1])) <= 2

    def test_unknown_strategy(self, complete_h):
        with pytest.raises(ParameterError):
            adversarial_coloring(complete_h, 2, "nope")

    def test_file_roundtrip(self, complete_h, tmp_path):
        col = random_coloring(complete_h, 3, 11)
        path = tmp_path / "col.json"
        col.save(path)
        back = Coloring.from_json(json.loads(path.read_text()))
        assert back.r == 3 and np.array_equal(back[:], col[:])

    def test_save_peak_memory_is_near_the_colors_array(self, tmp_path, monkeypatch):
        # as for the hypergraph, the peak is one chunk's colors and text; a color
        # is a bit against some 60 bytes of text and objects, so the chunk is
        # smaller
        monkeypatch.setattr(reporting, "_WRITE_CHUNK", 1024)
        col = random_coloring(build_hypergraph(random_graph(3, 100, 0.5, 1)), 2, 1)
        assert len(col) > 100 * 1024
        tracemalloc.start()
        try:
            col.save(tmp_path / "col.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(col)

    def test_total_required(self):
        with pytest.raises(ParameterError):
            Coloring(2, np.array([0, 2], dtype=np.uint8))

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda h: adversarial_coloring(h, 300, "round_robin"), "r"),  # used to wrap to 256
            (lambda h: random_coloring(h, 300, 1), "r"),
            (lambda h: Coloring(1, np.zeros(len(h), dtype=np.uint8)), "r"),
            (lambda h: Coloring.from_json({"r": 3, "colors": [0, 1, 300]}), "colors"),
            (lambda h: Coloring.from_json({"r": 3, "colors": [0, -1]}), "colors"),
            (lambda h: Coloring.from_json({"r": 3, "colors": [0.5]}), "colors"),
            (lambda h: Coloring.from_json({"r": 2, "colors": [[0, 1, 0, 1], [1, 0, 1, 0]]}), "colors"),
            (lambda h: Coloring.from_json({"r": 2, "colors": 0}), "colors"),
            (lambda h: Coloring(2, np.zeros((2, len(h) // 2), dtype=np.uint8)), "colors"),
            # a JSON true is no integer, as in a graph file; 2**70 overflows int64
            (lambda h: Coloring.from_json({"r": 2, "colors": [0, True]}), "colors"),
            (lambda h: Coloring.from_json({"r": 2, "colors": [0, 2**70]}), "colors"),
        ],
        ids=[
            "round-robin-r300", "random-r300", "r1", "color300", "negative", "fractional",
            "nested", "scalar", "not-flat", "bool", "beyond-int64",
        ],
    )
    def test_one_color_rule(self, complete_h, make, field):
        with pytest.raises(ParameterError) as excinfo:
            make(complete_h)
        assert excinfo.value.field == field

    def test_uint8_holds_256_colors(self, complete_h):
        assert random_coloring(complete_h, 256, 3).r == 256


class TestColorPlanes:
    """A coloring of N hyperedges with r colors is held as (r - 1).bit_length()
    packed bit planes of ceil(N / 8) bytes, packed a chunk at a time."""

    # 4,019 is S4's hyperedge count, which ends in a partial byte
    @pytest.mark.parametrize("length", [40, 41, 47, 1000, 1001, 1007, 4019])
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 8, 16, 32, 128, 256])
    def test_planes_match_the_one_shot_colors(self, monkeypatch, r, length):
        # a chunk of 8 ids is one raw word, and chunks of 16 and 256 leave a
        # partial last chunk on every host; the powers of two shift raw bytes
        # by 7..0
        h = cycles.TightHypergraph(complete_layered(3, 16), np.arange(length, dtype=np.uint64))
        colors = spawn_rng(5).integers(0, r, length, dtype=np.uint8)
        for chunk in (8, 16, 256):
            monkeypatch.setattr(greedy, "_SCAN_CHUNK", chunk)
            col = random_coloring(h, r, 5)
            assert col.planes.shape == ((r - 1).bit_length(), -(-length // 8))
            assert len(col) == length and np.array_equal(col[:], colors), chunk
            ids = np.random.default_rng(r).permutation(length)[:9]
            assert np.array_equal(col[ids], colors[ids]) and col[length - 1] == colors[-1]
            assert np.array_equal(col.counts(), np.bincount(colors, minlength=r))
            for b, plane in enumerate(col.planes):
                assert np.array_equal(plane, np.packbits(colors >> b & 1))

    # the ids of a coloring follow TightHypergraph.keys: a negative id counts
    # from the end, and one outside [-N, N) is refused, also where it would
    # read a padding bit of the last byte or a byte past it
    @pytest.mark.parametrize("length", [8, 9, 15])
    @pytest.mark.parametrize("r", [2, 3])
    def test_ids_count_from_the_end_and_are_range_checked(self, r, length):
        colors = np.array([(3 * i + 1) % r for i in range(length)], dtype=np.uint8)
        col = Coloring(r, colors)
        for i in range(-length, length):
            assert col[i] == colors[i], i
        ids = np.arange(-length, length)
        assert np.array_equal(col[ids], colors[ids])
        assert np.array_equal(col[ids[::-3]], colors[ids[::-3]])
        assert col[np.array([], dtype=np.int64)].size == 0
        for a, b, step in [(None, None, 1), (-3, None, 1), (1, -1, 2), (None, None, -1), (-20, 20, 3)]:
            assert np.array_equal(col[a:b:step], colors[a:b:step]), (a, b, step)
        for bad in (length, length + 1, 16, -length - 1, -17):
            for ids in (bad, np.array([0, bad])):
                with pytest.raises(IndexError, match="out of range"):
                    col[ids]

    def test_random_coloring_holds_a_bit_per_hyperedge(self, million_h, monkeypatch):
        # a chunk well below the host's size tells the planes from the chunks
        monkeypatch.setattr(greedy, "_SCAN_CHUNK", 1 << 16)
        # the planes and a drawn chunk with its packed bits, and at r > 2 the
        # tally's one-chunk bool temporary beside them; the colors as bytes
        # would be 1,001,036
        for r, chunks in ((2, 2), (4, 3)):
            tracemalloc.start()
            try:
                col = random_coloring(million_h, r, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert col.planes.nbytes == (r - 1).bit_length() * 125_130
            assert peak < col.planes.nbytes + chunks * greedy._SCAN_CHUNK, r


class TestMajority:
    def test_basic(self, complete_h):
        colors = np.array([0] * 5 + [1] * 3, dtype=np.uint8)
        assert pick_majority_color(Coloring(2, colors).counts()) == 0

    def test_tie_breaks_to_smallest(self, complete_h):
        colors = np.array([1] * 4 + [0] * 4, dtype=np.uint8)
        assert pick_majority_color(Coloring(3, colors).counts()) == 0
        colors = np.array([2] * 4 + [1] * 4, dtype=np.uint8)
        assert pick_majority_color(Coloring(3, colors).counts()) == 1

    def test_pigeonhole(self, complete_h):
        for seed in range(20):
            col = random_coloring(complete_h, 3, seed)
            c = pick_majority_color(col.counts())
            assert col.counts()[c] >= -(-len(complete_h) // 3)

    def test_empty_errors(self):
        with pytest.raises(ParameterError):
            pick_majority_color(Coloring(2, np.empty(0, dtype=np.uint8)).counts())

    def test_counts_do_not_widen(self):
        col = random_coloring(build_hypergraph(random_graph(3, 200, 0.5, 1)), 2, 0)
        tracemalloc.start()
        try:
            counts = col.counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.dtype == np.int64 and counts.sum() == len(col) == 1_001_036
        assert peak < 2 * len(col)

    def test_counts_tally_a_chunk_at_a_time(self, million_h, monkeypatch):
        colors = random_coloring(million_h, 3, 0)[:]
        expected = np.bincount(colors, minlength=3)
        monkeypatch.setattr(greedy, "_SCAN_CHUNK", 1 << 12)
        tracemalloc.start()
        try:
            counts = Coloring(3, colors).counts()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(counts, expected)
        # the tally is taken while packing: beside the two planes, one chunk's
        # bool temporary, not one bool per hyperedge
        assert peak < 2 * -(-colors.size // 8) + 4 * greedy._SCAN_CHUNK

    @pytest.mark.parametrize("length", [0, 7, 8, 9, 17])
    def test_counts_across_chunk_boundaries(self, monkeypatch, length):
        monkeypatch.setattr(greedy, "_SCAN_CHUNK", 8)
        colors = (np.arange(length) * 7 % 3).astype(np.uint8)
        assert np.array_equal(Coloring(3, colors).counts(), np.bincount(colors, minlength=3))


class TestGreedyRound:
    def test_no_working_edges(self, tiny_complete, complete_h):
        col = mono_coloring(complete_h, 1)
        kind, rec = greedy_round(complete_h, col, 0, n=4)
        assert kind is RoundOutcome.NO_WORKING_EDGE
        assert rec.path_snapshot == [] and len(rec.trash) == 0

    def test_all_working_complete_path(self):
        g = complete_layered(3, 6)
        h = build_hypergraph(g)
        col = mono_coloring(h, 0)
        kind, rec = greedy_round(h, col, 0, n=6, debug=True)
        assert kind is RoundOutcome.PATH_FOUND
        assert len(rec.trash) == 0  # extension never fails in a complete graph
        assert validate_tight_path(h, rec.path_snapshot, col, 0)

    def test_single_edge_n_equals_k(self, tiny_complete, complete_h):
        colors = np.ones(8, dtype=np.uint8)
        colors[0] = 0
        col = Coloring(2, colors)
        kind, rec = greedy_round(complete_h, col, 0, n=3)
        assert kind is RoundOutcome.PATH_FOUND
        assert rec.path_snapshot == [0, 2, 4]  # canonical layout from the part-0 vertex

    def test_case2_produces_trash(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        kind, rec = greedy_round(complete_h, col, 0, n=4, debug=True)
        assert kind is RoundOutcome.NO_WORKING_EDGE
        assert len(rec.trash) == 2  # both parity-0 components get trashed

    def test_debug_mode_invariants_on_random_instances(self):
        # debug mode re-checks path/trash/unused disjointness and the window
        # invariant after every transition
        for seed in range(8):
            g = random_graph(3, 6, 0.6, seed)
            h = build_hypergraph(g)
            if len(h) == 0:
                continue
            col = random_coloring(h, 2, seed)
            greedy_round(h, col, 0, n=5, debug=True)
            greedy_round(h, col, 1, n=5, debug=True)

    def test_trash_full_terminates(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        greedy_round(complete_h, col, 0, n=2 * 3)
        # n=6 > reachable trash here; rerun with n=2 rejected (n < k)
        with pytest.raises(ParameterError):
            greedy_round(complete_h, col, 0, n=2)

    @pytest.mark.parametrize(
        "kept",
        [
            np.ones(0, dtype=np.uint8),
            np.ones(8, dtype=np.uint8),
            [255],
            np.ones((1, 1), dtype=np.uint8),
            np.ones(8, dtype=bool),
            np.ones(1, dtype=bool),
            np.ones(2, dtype=np.uint8),
        ],
        ids=["short", "uint8", "list", "2d", "unpacked-bool", "bool", "long"],
    )
    def test_rejects_a_mask_that_is_not_one_bool_per_hyperedge(self, complete_h, kept):
        # the mask is packed: one bit per hyperedge, ceil(8 / 8) = 1 uint8 byte;
        # one uint8 or bool per hyperedge is refused
        with pytest.raises(ParameterError) as excinfo:
            greedy_round(complete_h, mono_coloring(complete_h, 0), 0, 4, kept=kept)
        assert excinfo.value.field == "kept"


class TestStartEdgeCursor:
    """``_find_start_edge`` scans from ``lo`` in chunks of 64, 128, ... ids."""

    @pytest.fixture(scope="class")
    def big(self):
        # 8000 hyperedges; scans from 0 end chunks at 64, 192, 448, ..., 4032
        return build_hypergraph(complete_layered(3, 20))

    @staticmethod
    def scan(h, eligible, lo=0, unused=None):
        colors = np.ones(len(h), dtype=np.uint8)
        colors[list(eligible)] = 0
        if unused is None:
            unused = np.ones(h.graph.num_vertices, dtype=bool)
        return greedy._find_start_edge(h, Coloring(2, colors), 0, None, unused, lo)

    @pytest.mark.parametrize("target", [0, 63, 64, 191, 192, 1023, 1024, 3071, 3072, 7168, 7999])
    def test_first_eligible_id(self, big, target):
        assert self.scan(big, [target]) == target
        assert self.scan(big, [target], lo=target) == target
        assert self.scan(big, [target], lo=target + 1) is None

    def test_lo_skips_lower_ids(self, big):
        assert self.scan(big, [5, 2000, 5000], lo=6) == 2000
        assert self.scan(big, [5, 2000, 5000], lo=1030) == 2000

    def test_used_vertex_skips_edge(self, big):
        v = big.hyperedge(100)[0]
        assert v not in big.hyperedge(5000)
        unused = np.ones(big.graph.num_vertices, dtype=bool)
        unused[v] = False
        assert self.scan(big, [100, 5000], unused=unused) == 5000

    def test_nothing_eligible(self, big):
        assert self.scan(big, []) is None

    def test_decodes_only_live_ids(self, big, monkeypatch):
        decoded = []
        real_decode = cycles.decode_keys

        def spy(keys, k, m):
            decoded.append(keys.size)
            return real_decode(keys, k, m)

        monkeypatch.setattr(cycles, "decode_keys", spy)
        # chunks of 64 ids at first: from lo = 6 they end at 70, 198, 454, 966, 1990
        assert greedy._FIRST_SCAN_CHUNK == 64
        assert self.scan(big, [5, 60, 700, 2000], lo=6) == 60
        assert self.scan(big, [5, 1100, 1900, 2000], lo=6) == 1100
        assert decoded == [1, 2]
        # chunks of 1024 ids at first: from lo = 6 they end at 1030 and 3078
        monkeypatch.setattr(greedy, "_FIRST_SCAN_CHUNK", 1024)
        decoded.clear()
        assert self.scan(big, [5, 700, 2000, 5000], lo=6) == 700
        assert self.scan(big, [5, 1100, 2000, 5000], lo=6) == 1100
        assert decoded == [1, 2]

    @pytest.mark.parametrize("past", [0, 1, 5000])
    def test_lo_past_the_end(self, big, past):
        assert self.scan(big, [0, len(big) - 1], lo=len(big) + past) is None

    @pytest.mark.parametrize(
        "k, m, p, seed, minority",
        [
            (3, 600, 0.03, 1, False),
            (4, 80, 0.08, 3, False),
            (5, 20, 0.2, 1, False),
            (3, 600, 0.03, 1, True),
            (4, 80, 0.08, 3, True),
            (5, 20, 0.2, 1, True),
        ],
        ids=["k3", "k4", "k5", "k3-minority", "k4-minority", "k5-minority"],
    )
    def test_cursor_matches_full_scan_in_run_outer(self, monkeypatch, k, m, p, seed, minority):
        # sparse restart-heavy instances: every resumed scan must give the
        # answer of a scan from id 0, for the majority color and for the
        # minority, before and after restarts delete ids
        g = random_graph(k, m, p, seed)
        h = build_hypergraph(g)
        if k == 3:
            assert len(h) > 4 * 1024  # resumed scans cross doubling boundaries
        col = random_coloring(h, 2, seed)
        majority = pick_majority_color(col.counts())
        full_scan = greedy._find_start_edge
        resumed, deleting = [], []

        def checked_scan(h, col, color, kept, unused, lo=0):
            eid = full_scan(h, col, color, kept, unused, lo)
            assert eid == full_scan(h, col, color, kept, unused)
            resumed.append(lo > 0)
            deleting.append(kept is not None)
            return eid

        monkeypatch.setattr(greedy, "_find_start_edge", checked_scan)
        out = run_outer(h, col, n=10, color=1 - majority if minority else majority)
        assert isinstance(out, Certificate) and len(out.rounds) > 0
        assert any(resumed) and any(deleting)

    def test_debug_round_rescans_from_zero(self, monkeypatch):
        g = random_graph(3, 600, 0.03, 1)
        h = build_hypergraph(g)
        col = random_coloring(h, 2, 1)
        full_scan = greedy._find_start_edge
        los = []

        def spy(h, col, color, kept, unused, lo=0):
            los.append(lo)
            return full_scan(h, col, color, kept, unused, lo)

        monkeypatch.setattr(greedy, "_find_start_edge", spy)
        greedy_round(h, col, pick_majority_color(col.counts()), n=10, debug=True)
        # debug mode follows every cursor scan with a scan from id 0
        assert any(lo > 0 for lo in los[0::2]) and not any(los[1::2])


class TestSizeRule:
    """The bit planes of a coloring and the greedy's kept mask are refused
    before they are allocated: a rows store no longer bounds them."""

    @pytest.fixture
    def physical(self, monkeypatch):
        """Set the physical memory figure to a number of bytes."""

        def set_bytes(n):
            pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": n}
            monkeypatch.setattr(os, "sysconf", pages.__getitem__)

        return set_bytes

    @pytest.mark.parametrize(
        "make, required",
        [
            # one plane of ceil(N / 8) bytes at r = 2
            (lambda h: random_coloring(h, 2, 1), lambda n: -(-n // 8)),
            (lambda h: adversarial_coloring(h, 2, "round_robin"), lambda n: -(-n // 8)),
            (lambda h: adversarial_coloring(h, 2, "vertex_cut", 1), lambda n: -(-n // 8)),
            # two planes, plus the N bytes of the one-shot draw
            (lambda h: random_coloring(h, 3, 1), lambda n: 2 * -(-n // 8) + n),
        ],
        ids=["random", "round_robin", "vertex_cut", "random-r3"],
    )
    def test_colors_beyond_physical_memory_refused(self, million_h, physical, make, required):
        n = len(million_h)
        need = required(n)
        physical(need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="^colors need more bytes") as excinfo:
                make(million_h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (excinfo.value.required, excinfo.value.cap) == (need, need - 1)
        assert peak < n // 100  # refused before the planes were allocated
        physical(need)
        assert len(make(million_h)) == n

    def test_coloring_file_beyond_physical_memory_refused(self, physical):
        doc = {"r": 2, "colors": [0, 1] * 50}
        physical(12)  # 100 colors out of 2 take one plane of 13 bytes
        with pytest.raises(ResourceLimitError, match="^colors need more bytes") as excinfo:
            Coloring.from_json(doc)
        assert excinfo.value.required == 13
        physical(13)
        assert Coloring.from_json(doc)[:].tolist() == [0, 1] * 50

    def test_kept_mask_beyond_physical_memory_refused(self, physical, monkeypatch):
        h = build_hypergraph(random_graph(3, 6, 0.7, 2))
        col = random_coloring(h, 2, 2)
        assert len(h) == 61  # the kept mask takes 8 bytes
        real_round = greedy.greedy_round
        kinds = []

        def spy(*args, **kwargs):
            kind, rec = real_round(*args, **kwargs)
            kinds.append(kind)
            return kind, rec

        monkeypatch.setattr(greedy, "greedy_round", spy)
        physical(7)
        # a run that never restarts allocates no mask
        assert isinstance(run_outer(h, col, n=3), FoundPath)
        assert kinds == [RoundOutcome.PATH_FOUND]
        kinds.clear()
        with pytest.raises(ResourceLimitError, match="^kept flags need more bytes") as excinfo:
            run_outer(h, col, n=6)
        assert (excinfo.value.required, excinfo.value.cap) == (8, 7)
        assert kinds == [RoundOutcome.TRASH_FULL]  # refused at the first restart
        physical(8)
        kinds.clear()
        out = run_outer(h, col, n=6)
        assert isinstance(out, FoundPath) and len(out.vertices) == 6
        assert kinds == [RoundOutcome.TRASH_FULL, RoundOutcome.PATH_FOUND]


class TestPackedLiveMask:
    """Liveness is read from the packed planes and the kept mask, one bit per
    hyperedge id in ``np.packbits`` order, through ``greedy._live_bytes``."""

    @pytest.fixture(scope="class")
    def odd_h(self):
        # 2197 hyperedges: the last byte holds 5 ids, and scans cross 1024 and 3072
        h = build_hypergraph(complete_layered(3, 13))
        assert len(h) % 8 == 5
        return h

    @staticmethod
    def marked(mask):
        """A 2-coloring whose color 1 is ``mask``."""
        return Coloring(2, mask.view(np.uint8))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), density=st.floats(0.001, 0.5), lo=st.integers(0, 2200))
    def test_scan_matches_an_unpacked_reference(self, odd_h, seed, density, lo):
        rng = np.random.default_rng(seed)
        mask = rng.random(len(odd_h)) < density
        unused = rng.random(odd_h.graph.num_vertices) < 0.9
        eligible = np.flatnonzero(mask & unused[odd_h.vertex_rows()].all(axis=1))
        later = eligible[eligible >= lo]
        expected = int(later[0]) if later.size else None
        assert greedy._find_start_edge(odd_h, self.marked(mask), 1, None, unused, lo) == expected

    @pytest.mark.parametrize("with_kept", [False, True], ids=["all-kept", "kept"])
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 256])
    def test_reads_match_an_unpacked_reference(self, odd_h, r, with_kept):
        # every read ANDs (r - 1).bit_length() planes, each as is or inverted,
        # and then the kept mask; the reference unpacks the colors
        rng = np.random.default_rng(r)
        col = random_coloring(odd_h, r, r)
        kept_bool = rng.random(len(odd_h)) < 0.7 if with_kept else np.ones(len(odd_h), bool)
        kept = np.packbits(kept_bool) if with_kept else None
        unused = rng.random(odd_h.graph.num_vertices) < 0.9
        inside = unused[odd_h.vertex_rows()].all(axis=1)
        ids = np.concatenate([rng.permutation(len(odd_h)), [len(odd_h) - 1, 0, 0]])
        los = [0, 1, 7, 8, 9, 1023, 2190, 2192, 2196, 2197, *rng.integers(0, len(odd_h), 6)]
        colors = range(r) if r < 256 else [0, 1, 128, 255, *rng.integers(2, 255, 4)]
        for color in colors:
            live = (col[:] == color) & kept_bool
            assert np.array_equal(greedy._live_bits(col, color, kept, ids), live[ids]), color
            eligible = np.flatnonzero(live & inside)
            for lo in los:
                later = eligible[eligible >= lo]
                expected = int(later[0]) if later.size else None
                got = greedy._find_start_edge(odd_h, col, color, kept, unused, lo)
                assert got == expected, (color, lo)

    @pytest.mark.parametrize("lo", [1, 3, 7, 9, 1021, 2190, 2196])
    def test_scan_from_inside_a_byte(self, odd_h, lo):
        # the ids of lo's byte below lo are live, and must be skipped
        mask = np.zeros(len(odd_h), dtype=bool)
        mask[lo - lo % 8 : lo] = True
        mask[lo] = True
        unused = np.ones(odd_h.graph.num_vertices, dtype=bool)
        assert greedy._find_start_edge(odd_h, self.marked(mask), 1, None, unused, lo) == lo
        mask[lo] = False
        assert greedy._find_start_edge(odd_h, self.marked(mask), 1, None, unused, lo) is None

    def test_bit_lookups_match_an_unpacked_reference(self):
        rng = np.random.default_rng(3)
        mask, kept = rng.random((2, 21)) < 0.5
        col, ids = self.marked(mask), np.arange(21)
        assert np.array_equal(greedy._live_bits(col, 1, None, ids), mask)
        assert np.array_equal(greedy._live_bits(col, 0, None, ids), ~mask)
        assert np.array_equal(greedy._live_bits(col, 1, np.packbits(kept), ids), mask & kept)

    def test_clearing_ids_that_share_a_byte(self):
        kept = np.packbits(np.ones(21, dtype=bool))  # 3 bytes, the last one partial
        # 8, 9, 10 and 15 share a byte; 15 and 9 come twice
        greedy._clear_bits(kept, np.array([8, 9, 10, 15, 15, 20, 9]))
        expected = np.ones(21, dtype=bool)
        expected[[8, 9, 10, 15, 20]] = False
        assert np.array_equal(np.unpackbits(kept, count=21).view(bool), expected)
        assert not np.unpackbits(kept)[21:].any()  # the padding stays clear

    def test_packing_a_chunk_at_a_time(self, monkeypatch):
        monkeypatch.setattr(greedy, "_SCAN_CHUNK", 16)
        colors = (np.arange(45) * 5 % 3).astype(np.uint8)
        col = Coloring(3, colors)
        assert np.array_equal(col[:], colors)
        for b, plane in enumerate(col.planes):
            assert np.array_equal(plane, np.packbits(colors >> b & 1))

    def test_run_outer_allocates_a_bit_per_hyperedge(self, million_h, monkeypatch):
        col = random_coloring(million_h, 2, 1)
        monkeypatch.setattr(greedy, "_SCAN_CHUNK", 1 << 14)
        tracemalloc.start()
        try:
            out = run_outer(million_h, col, n=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(out, FoundPath)
        # the path is found in round 0, so the run reads the plane in place
        # and allocates no per-hyperedge array: one chunk, plus 64 KiB for the
        # first scan's ids and their decoded keys; the plane alone is 125 KB
        assert peak < greedy._SCAN_CHUNK + 64 * 1024


class TestRunOuter:
    def test_zero_working_edges_certificate(self, tiny_complete, complete_h):
        col = mono_coloring(complete_h, 1)
        out = run_outer(complete_h, col, n=4, color=0)
        assert isinstance(out, Certificate)
        assert out.rounds == []
        assert out.intersecting_set == []
        audit = out.audit
        assert audit.working_color_edges == 0
        assert audit.meeting_final_trash == 0
        assert audit.accounting_ok and audit.extension_budget_ok
        assert audit.per_round_ok  # vacuous
        assert audit.meeting_ok  # 0 < t_k/(2r)
        assert audit.minority_ok

    def test_all_working_path(self):
        g = complete_layered(3, 8)
        h = build_hypergraph(g)
        col = mono_coloring(h, 0)
        out = run_outer(h, col, n=8, color=0)
        assert isinstance(out, FoundPath)
        assert len(out.vertices) == 8
        assert validate_tight_path(h, out.vertices, col, 0)

    def test_majority_color_default(self, tiny_complete, complete_h):
        colors = np.array([1] * 5 + [0] * 3, dtype=np.uint8)
        col = Coloring(2, colors)
        out = run_outer(complete_h, col, n=3)
        assert out.color == 1

    def test_deterministic(self, tiny_complete, complete_h):
        col = random_coloring(complete_h, 2, 3)
        a = run_outer(complete_h, col, n=4)
        b = run_outer(complete_h, col, n=4)
        assert outcome_to_json(a) == outcome_to_json(b)

    def test_path_soundness_across_seeds(self):
        g = complete_layered(3, 6)
        h = build_hypergraph(g)
        for seed in range(15):
            col = random_coloring(h, 2, seed)
            out = run_outer(h, col, n=4)
            if isinstance(out, FoundPath):
                assert validate_tight_path(h, out.vertices, col, out.color)
                assert len(out.vertices) >= 4

    def test_rejects_partial_coloring(self, tiny_complete, complete_h):
        col = Coloring(2, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ParameterError) as excinfo:
            run_outer(complete_h, col, 4, color=0)
        assert excinfo.value.field == "col"

    def test_refuses_a_partial_coloring_before_picking_the_majority(self, complete_h):
        # an empty coloring has no majority; its totality is refused first
        with pytest.raises(ParameterError) as excinfo:
            run_outer(complete_h, Coloring(2, np.zeros(0, np.uint8)), 4)
        assert excinfo.value.field == "col"

    def test_certificate_rounds_have_disjoint_families(self):
        g = random_graph(3, 6, 0.7, 13)
        h = build_hypergraph(g)
        if len(h) == 0:
            pytest.skip("no cycles at this seed")
        col = adversarial_coloring(h, 2, "vertex_cut", seed=3)
        out = run_outer(h, col, n=5, color=pick_majority_color(col.counts()))
        if isinstance(out, Certificate):
            seen = set()
            for rec in out.rounds:
                for row in rec.trash.rows.tolist():
                    assert tuple(row) not in seen
                    seen.add(tuple(row))

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(3, 5),
        m=st.integers(6, 12),
        p=st.floats(0.15, 0.6),
        r=st.integers(2, 3),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_round_records_on_drawn_hosts(self, k, m, p, r, seed, data):
        # check (a) is left out: it fails on some of these hosts, because the
        # vertices a round returns to U are charged to no round
        n = data.draw(st.integers(k, 3 * k - 1), label="n")
        h = build_hypergraph(random_graph(k, m, p, seed))
        col = random_coloring(h, r, seed)
        for color in range(r):
            greedy_round(h, col, color, n, debug=True)
            out = run_outer(h, col, n, color=color)
            if isinstance(out, FoundPath):
                assert len(out.vertices) >= n
                assert validate_tight_path(h, out.vertices, col, color)
                continue
            assert out.audit.extension_budget_ok  # (d)
            assert len(out.final_trash) < n
            for rec in out.rounds:
                assert len(rec.trash) == n and len(rec.path_snapshot) < n
            trashed = [
                tuple(sorted(row))
                for fam in [*(rec.trash for rec in out.rounds), out.final_trash]
                for row in fam.rows.tolist()
            ]
            assert len(set(trashed)) == len(trashed), "a path was trashed twice"


class TestParityInstance:
    """The frozen adversarial tiny instance: majority color on the parity
    coloring of complete_layered(3, 2) cannot build 4 vertices, and its
    certificate exhibits the accounting contradiction."""

    def test_certificate_with_contradiction_structure(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        assert pick_majority_color(col.counts()) == 0  # 4-4 tie breaks to 0
        out = run_outer(complete_h, col, n=4)
        assert isinstance(out, Certificate)
        audit = out.audit
        # majority color can never satisfy (e); so (b) or (c) must fail
        assert not audit.minority_ok
        assert (not audit.per_round_ok) or (not audit.meeting_ok)
        assert contradiction_consistent(audit)
        # deterministic counting identities hold
        assert audit.accounting_ok
        assert audit.extension_budget_ok
        # a failed (d) is a leak whatever (b), (c) and (e) say
        assert not contradiction_consistent(dataclasses.replace(audit, extension_budget_ok=False))

    def test_audit_recomputation_matches(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        out = run_outer(complete_h, col, n=4)
        fresh = audit_certificate(out, complete_h, tiny_complete, col)
        assert fresh == out.audit

    def test_audit_refuses_a_graph_the_hypergraph_was_not_built_over(self):
        g = random_graph(3, 60, 0.1, 1)
        h = build_hypergraph(g)
        col = random_coloring(h, 2, 11)
        out = run_outer(h, col, n=8)
        assert isinstance(out, Certificate)
        # relabelling part 0 keeps the cycle count, so the recount alone passes it
        blocks = [b.copy() for b in g.blocks]
        blocks[0], blocks[2] = blocks[0][::-1], blocks[2][:, ::-1]
        relabelled = LayeredGraph(3, 60, blocks)
        assert count_proper_cycles(relabelled) == len(h)
        with pytest.raises(ParameterError) as excinfo:
            audit_certificate(out, h, relabelled, col)
        assert excinfo.value.field == "g"


    def test_audit_refuses_a_partial_coloring(self, tiny_complete, complete_h):
        out = run_outer(complete_h, parity_coloring(complete_h), n=4)
        partial = Coloring(2, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ParameterError) as excinfo:
            audit_certificate(out, complete_h, tiny_complete, partial)
        assert excinfo.value.field == "col"


class TestOutcomeJson:
    def test_path_shape(self):
        g = complete_layered(3, 4)
        h = build_hypergraph(g)
        col = mono_coloring(h, 0)
        doc = outcome_to_json(run_outer(h, col, n=4, color=0))
        assert doc["kind"] == "path" and len(doc["vertices"]) == 4

    def test_certificate_shape(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        doc = outcome_to_json(run_outer(complete_h, col, n=4))
        assert doc["kind"] == "certificate"
        assert set(doc) == {
            "kind", "color", "rounds", "final_trash", "intersecting_set", "audit",
        }
        assert doc["audit"]["total_cycles"] == 8
