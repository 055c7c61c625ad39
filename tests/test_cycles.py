import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_lab import (
    InvariantViolationError,
    LayeredGraph,
    ResourceLimitError,
    TightHypergraph,
    build_hypergraph,
    complete_layered,
    count_cycles_meeting,
    count_family_extensions,
    count_proper_cycles,
    count_restricted_extensions,
    cycle_subpaths,
    cycles_per_vertex,
    cycles_through_vertex,
    enumerate_proper_cycles,
    extend_path,
    proper_path,
    trash_family,
    validate_tight_path,
    validate_tight_path_verbose,
)
from ramsey_lab.cycles import _extensions, cycle_keys, decode_keys, encode_keys
from ramsey_lab.oracle import brute_force_cycle_keys, brute_force_cycles
from ramsey_lab.reporting import validate_document
from conftest import random_graph


def brute_sets(g):
    return [set(c) for c in brute_force_cycles(g)]


class TestEnumeration:
    def test_complete_3_2_has_8_cycles(self, tiny_complete):
        cycles = enumerate_proper_cycles(tiny_complete)
        assert len(cycles) == 8
        assert cycles[0] == (0, 2, 4)
        assert cycles == sorted(cycles)

    def test_empty_graph_has_none(self):
        assert enumerate_proper_cycles(random_graph(3, 5, 0.0, 1)) == []

    def test_matches_brute_force_on_100_seeds(self):
        for seed in range(100):
            g = random_graph(3, 6, 0.5, seed)
            assert np.array_equal(cycle_keys(g), brute_force_cycle_keys(g))

    def test_matches_brute_force_other_uniformities(self):
        for k in (4, 5):
            for seed in range(20):
                g = random_graph(k, 5, 0.6, seed)
                assert enumerate_proper_cycles(g) == brute_force_cycles(g)

    def test_cap_enforced(self, tiny_complete):
        with pytest.raises(ResourceLimitError):
            enumerate_proper_cycles(tiny_complete, cap=7)

    def test_count_matches_enumeration(self):
        for seed in range(20):
            g = random_graph(4, 4, 0.5, seed)
            assert count_proper_cycles(g) == len(enumerate_proper_cycles(g))


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
        b = proper_path(tiny_complete, [0, 2])
        assert list(extend_path(tiny_complete, b)) == [4, 5]

    def test_no_edges_to_missing_part(self):
        g = LayeredGraph.from_edges(3, 2, [(0, 2)])
        assert extend_path(g, proper_path(g, [0, 2])).size == 0

    def test_matches_brute_subpath_count(self):
        g = random_graph(3, 6, 0.5, 23)
        sets = brute_sets(g)
        for c in enumerate_proper_cycles(g):
            for b in cycle_subpaths(g, c):
                expected = sum(1 for s in sets if set(b.vertices) <= s)
                assert len(extend_path(g, b)) == expected

    def test_extension_identity(self):
        # every proper cycle extends exactly k sub-(k-1)-paths, and extending
        # each sub-path recovers the dropped vertex
        for k, seed in ((3, 5), (4, 6)):
            g = random_graph(k, 4, 0.7, seed)
            for c in enumerate_proper_cycles(g):
                subs = cycle_subpaths(g, c)
                assert len(subs) == k
                assert len(set(subs)) == k
                for b in subs:
                    (dropped,) = set(c) - set(b.vertices)
                    assert dropped in extend_path(g, b)

    def test_rejects_short_path(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            extend_path(complete_layered(4, 2), proper_path(complete_layered(4, 2), [0, 2]))

    @pytest.mark.parametrize("k, m, p, seed", [(3, 6, 0.5, 1), (3, 5, 0.8, 2), (4, 4, 0.7, 3), (5, 3, 0.8, 4)])
    def test_extensions_match_brute_force(self, k, m, p, seed):
        # every (k-1)-subpath of every cycle extends to exactly the brute-force
        # cycles containing it, by exactly their remaining vertices
        g = random_graph(k, m, p, seed)
        brute = list(zip(brute_force_cycle_keys(g).tolist(), brute_force_cycles(g)))
        assert brute
        for _, c in brute:
            for b in cycle_subpaths(g, c):
                ext, keys = _extensions(g, b.vertices)
                expected = {
                    key: (set(d) - set(b.vertices)).pop()
                    for key, d in brute
                    if set(b.vertices) <= set(d)
                }
                assert dict(zip(keys.tolist(), ext.tolist())) == expected
                assert list(ext) == sorted(expected.values())


class TestProperPath:
    def test_normalization_orientation(self, tiny_complete):
        forward = proper_path(tiny_complete, [0, 2])
        backward = proper_path(tiny_complete, [2, 0])
        assert forward == backward
        assert tiny_complete.part_of(forward.vertices[0]) == 0

    def test_wraparound_arc_normalized(self, tiny_complete):
        # arc {part 2, part 0}: first stored vertex must sit in part 0
        p = proper_path(tiny_complete, [4, 0])
        assert p.vertices == (0, 4)

    def test_rejects_repeated_vertex(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            proper_path(tiny_complete, [0, 0])

    def test_rejects_nonadjacent(self):
        g = LayeredGraph.from_edges(3, 2, [(0, 2)])
        with pytest.raises(InvariantViolationError):
            proper_path(g, [1, 2])

    def test_rejects_same_part(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            proper_path(tiny_complete, [0, 1])

    def test_rejects_too_long(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            proper_path(tiny_complete, [0, 2, 4])


class TestTrashFamily:
    def test_rejects_overlap(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            trash_family(tiny_complete, [[0, 2], [2, 4]])

    def test_rejects_wrong_length(self):
        g = complete_layered(4, 3)
        with pytest.raises(InvariantViolationError):
            trash_family(g, [[0, 3]])

    def test_vertex_set(self, tiny_complete):
        fam = trash_family(tiny_complete, [[0, 2], [1, 3]])
        assert fam.vertex_set() == {0, 1, 2, 3}


class TestFamilyCounts:
    def test_empty_family(self, tiny_complete):
        fam = trash_family(tiny_complete, [])
        assert count_family_extensions(tiny_complete, fam) == 0
        assert count_restricted_extensions(tiny_complete, [], fam) == 0

    def test_single_path_complete_3_4(self):
        g = complete_layered(3, 4)
        fam = trash_family(g, [[0, 4]])
        assert count_family_extensions(g, fam) == 4

    def test_family_extensions_match_brute(self):
        g = random_graph(3, 6, 0.6, 31)
        sets = brute_sets(g)
        fam = trash_family(g, [[0, 6], [1, 7]]) if g.adjacent(0, 6) and g.adjacent(1, 7) else None
        if fam is None:
            pytest.skip("sampled edges absent for this seed")
        expected = sum(
            1
            for s in sets
            if any(set(p.vertices) <= s for p in fam.paths)
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

    def test_restricted_matches_brute(self):
        g = random_graph(3, 6, 0.6, 47)
        sets = brute_sets(g)
        pairs = [(u, v) for u in range(6) for v in range(6, 12) if g.adjacent(u, v)]
        if len(pairs) < 2:
            pytest.skip("graph too sparse")
        fam_paths = []
        used = set()
        for u, v in pairs:
            if u not in used and v not in used:
                fam_paths.append([u, v])
                used |= {u, v}
            if len(fam_paths) == 2:
                break
        fam = trash_family(g, fam_paths)
        aset = {12, 13, 14}
        allowed = aset | fam.vertex_set()
        expected = 0
        for s in sets:
            for p in fam.paths:
                if set(p.vertices) <= s:
                    (ext,) = s - set(p.vertices)
                    if ext in allowed:
                        expected += 1
                    break
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
        assert len(build_hypergraph(g)) == len(enumerate_proper_cycles(g))

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
        b = proper_path(tiny_complete, [0, 2])
        ids = h.extension_ids(b)
        assert len(ids) == 2
        for eid in ids:
            assert {0, 2} <= set(h.hyperedge(int(eid)))

    def test_export_schema(self, tiny_complete):
        doc = build_hypergraph(tiny_complete).to_json()
        validate_document(doc, "hypergraph-v1")
        assert doc["vertices"] == 6
        assert len(doc["edges"]) == 8

    def test_from_cycles_validates(self, tiny_complete):
        with pytest.raises(InvariantViolationError):
            TightHypergraph.from_cycles(tiny_complete, [(0, 1, 4)])  # part hit twice

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
