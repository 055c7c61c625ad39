import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_lab import layered_graph
from ramsey_lab import (
    Coloring,
    GraphParams,
    LayeredGraph,
    ParameterError,
    ResourceLimitError,
    adversarial_coloring,
    arrow_check,
    build_hypergraph,
    canonical_params,
    check_property_i,
    check_property_ii,
    check_property_iii,
    complete_layered,
    concentration_experiment,
    expected_stats,
    generate_random,
    random_coloring,
    run_outer,
    tight_path_exists,
)
from ramsey_lab.seeds import spawn_rng
from conftest import random_graph


class TestParams:
    def test_rejects_bad_domains(self):
        with pytest.raises(ParameterError) as excinfo:
            GraphParams(k=2, part_size=5, edge_prob=0.5, seed=0)
        assert excinfo.value.field == "k"
        with pytest.raises(ParameterError) as excinfo:
            GraphParams(k=3, part_size=0, edge_prob=0.5, seed=0)
        assert excinfo.value.field == "m"
        with pytest.raises(ParameterError) as excinfo:
            GraphParams(k=3, part_size=5, edge_prob=1.5, seed=0)
        assert excinfo.value.field == "p"
        with pytest.raises(ParameterError) as excinfo:
            GraphParams(k=3, part_size=5, edge_prob=0.5, seed=2**64)
        assert excinfo.value.field == "seed"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_random(GraphParams(3.5, 2, 0.5, 0)),
            lambda: expected_stats(3.5, 10, 0.5),
            lambda: GraphParams(3.0, 2, 0.5, 0),
            lambda: complete_layered(True, 2),
        ],
        ids=["generate-3.5", "expected-stats-3.5", "float-3.0", "bool"],
    )
    def test_refuses_non_integral_k(self, make):
        with pytest.raises(ParameterError) as excinfo:
            make()
        assert excinfo.value.field == "k"

    def test_integer_k_of_any_integer_type_passes(self):
        assert GraphParams(np.int64(3), 2, 0.5, 0).k == 3
        assert expected_stats(np.int32(4), 10, 0.5).total_cycles == pytest.approx(625.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GraphParams(3, 4, "0.5", 0),
            lambda: GraphParams(3, 4, None, 0),
            lambda: GraphParams(3, 4, True, 0),
            lambda: GraphParams(3, 4, np.bool_(False), 0),
            lambda: expected_stats(3, 10, "x"),
        ],
        ids=["string", "none", "bool", "numpy-bool", "expected-stats-string"],
    )
    def test_refuses_a_p_that_is_not_a_number(self, make):
        with pytest.raises(ParameterError, match="^p: must be a number, got ") as excinfo:
            make()
        assert excinfo.value.field == "p"

    @pytest.mark.parametrize("p", [1, 0.5, np.int64(0), np.float32(0.5), np.float64(1.0)])
    def test_p_of_any_number_type_passes(self, p):
        assert GraphParams(3, 4, p, 0).edge_prob == p

    def test_canonical_example_k3_r2_n100(self):
        params = canonical_params(3, 2, 100)
        assert params.c == 288
        assert params.part_size == 28800
        # direct arithmetic on the closed form
        assert params.p == pytest.approx(math.sqrt(math.log(100) / 100), abs=1e-15)
        assert round(params.p, 5) == 0.21460

    def test_canonical_example_k4_r3_n50(self):
        assert canonical_params(4, 3, 50).c == 16 * 16 * 3 == 768

    def test_canonical_p_squared_times_n_is_log_n(self):
        for n in (10, 100, 1234):
            params = canonical_params(3, 2, n)
            assert params.p**2 * n == pytest.approx(math.log(n), rel=1e-12)

    def test_canonical_rejects_bad_domains(self):
        with pytest.raises(ParameterError) as excinfo:
            canonical_params(2, 2, 100)
        assert excinfo.value.field == "k"
        with pytest.raises(ParameterError) as excinfo:
            canonical_params(3, 1, 100)
        assert excinfo.value.field == "r"
        with pytest.raises(ParameterError) as excinfo:
            canonical_params(3, 2, 2)
        assert excinfo.value.field == "n"


class TestIntegerRule:
    """Every integer parameter refuses a non-integer value under its config key,
    as ``k`` does, before comparing it with its bounds."""

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda h: GraphParams(3, 2.5, 0.5, 0), "m"),
            (lambda h: complete_layered(3, 2.5), "m"),
            (lambda h: random_coloring(h, 2.5, 0), "r"),
            (lambda h: Coloring(2.5, np.zeros(len(h), dtype=np.uint8)), "r"),
            (lambda h: canonical_params(3, 2.5, 30), "r"),
            (lambda h: canonical_params(3, 2, 30.5), "n"),
            (lambda h: run_outer(h, random_coloring(h, 2, 0), 4.5), "n"),
            (lambda h: tight_path_exists(h, 4.5), "n"),
            (lambda h: tight_path_exists(h, 4, random_coloring(h, 2, 0), 0.5), "color"),
            (lambda h: run_outer(h, random_coloring(h, 2, 0), 4, color=0.5), "color"),
            (lambda h: arrow_check(h, 3, 2.5), "r"),
            (lambda h: check_property_i(h.graph, 2, 2.5, 2, 0), "n"),
            (lambda h: check_property_ii(h.graph, 2, 2.5, 2, 0), "n"),
            (lambda h: check_property_i(h.graph, 2, 2, 2.5, 0), "trials"),
            (lambda h: check_property_iii(h.graph, 2, 2.5), "n"),
            (
                lambda h: concentration_experiment(
                    GraphParams(3, 2, 0.5, 0), "total_cycles", 1.5, 0
                ),
                "trials",
            ),
            (
                lambda h: concentration_experiment(
                    GraphParams(3, 2, 0.5, 0), "total_cycles", 1, 0, fixed_vertex=1.5
                ),
                "fixed_vertex",
            ),
        ],
        ids=[
            "graph-params-m", "complete-m", "random-coloring-r", "coloring-r", "canonical-r",
            "canonical-n", "run-outer-n", "tight-path-n", "tight-path-color", "run-outer-color",
            "arrow-r", "property-i-n",
            "property-ii-n", "property-i-trials", "property-iii-n", "concentration-trials",
            "concentration-fixed-vertex",
        ],
    )
    def test_one_integer_rule(self, make, field):
        h = build_hypergraph(complete_layered(3, 2))
        with pytest.raises(ParameterError) as excinfo:
            make(h)
        assert excinfo.value.field == field
        assert "must be an integer" in str(excinfo.value)

    def test_numpy_integers_pass(self):
        h = build_hypergraph(complete_layered(3, 2))
        assert GraphParams(3, np.int64(2), 0.5, 0).part_size == 2
        assert random_coloring(h, np.uint16(3), 0).r == 3
        assert canonical_params(3, np.int32(2), np.int64(30)).part_size == 8640
        assert tight_path_exists(h, np.int64(4)).verdict.value == "found"
        report = check_property_i(h.graph, 2, np.int64(2), np.int32(1), 0)
        assert report.trials == 1
        assert check_property_iii(h.graph, 2, np.int64(3)).total_cycles == 8
        conc = concentration_experiment(
            GraphParams(3, 2, 0.5, 0), "total_cycles", np.int64(1), 0, fixed_vertex=np.int64(1)
        )
        assert conc.trials == 1


class TestSeedRule:
    """Every seeded entry point refuses a seed outside [0, 2**64) as ``seed``,
    before any trial or allocation, also when no trial would run."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda h, seed: check_property_i(complete_layered(3, 2), 2, 3, 2, seed),
            lambda h, seed: check_property_i(complete_layered(3, 2), 2, 3, 0, seed),
            lambda h, seed: check_property_ii(complete_layered(3, 2), 2, 3, 2, seed),
            lambda h, seed: check_property_ii(complete_layered(3, 2), 2, 3, 0, seed),
            lambda h, seed: concentration_experiment(
                GraphParams(3, 2, 0.5, 0), "total_cycles", 2, seed
            ),
            lambda h, seed: concentration_experiment(
                GraphParams(3, 2, 0.5, 0), "total_cycles", 0, seed
            ),
            lambda h, seed: random_coloring(h, 2, seed),
            lambda h, seed: adversarial_coloring(h, 2, "vertex_cut", seed),
            lambda h, seed: adversarial_coloring(h, 2, "round_robin", seed),
            lambda h, seed: GraphParams(3, 2, 0.5, seed),
        ],
        ids=[
            "property-i", "property-i-no-trials", "property-ii", "property-ii-no-trials",
            "concentration", "concentration-no-trials", "random-coloring", "vertex-cut",
            "round-robin", "graph-params",
        ],
    )
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_one_seed_rule(self, make, seed):
        h = build_hypergraph(complete_layered(3, 2))
        with pytest.raises(ParameterError) as excinfo:
            make(h, seed)
        assert excinfo.value.field == "seed"

    def test_largest_seed_passes(self):
        h = build_hypergraph(complete_layered(3, 2))
        assert len(random_coloring(h, 2, 2**64 - 1)) == 8
        assert GraphParams(3, 2, 0.5, np.uint64(2**64 - 1)).seed == 2**64 - 1


class TestGeneration:
    def test_p_zero_gives_empty_graph(self):
        g = random_graph(3, 5, 0.0, seed=42)
        assert g.edge_count() == 0

    def test_p_one_gives_complete_layered(self):
        g = random_graph(3, 5, 1.0, seed=42)
        assert g.edge_count() == 3 * 25
        assert g == complete_layered(3, 5)

    def test_same_seed_same_graph(self):
        a = random_graph(4, 7, 0.3, seed=99)
        b = random_graph(4, 7, 0.3, seed=99)
        assert a == b

    def test_different_seed_differs(self):
        a = random_graph(4, 20, 0.5, seed=1)
        b = random_graph(4, 20, 0.5, seed=2)
        assert a != b

    def test_stream_regression(self):
        # frozen draw of the documented Philox stream; a failure here means
        # the seed-to-graph mapping changed and stored seeds are stale
        g = random_graph(3, 4, 0.5, seed=123)
        assert g.edges() == [
            (0, 6), (0, 8), (0, 9), (0, 10), (1, 4), (1, 6), (1, 7), (1, 9),
            (2, 5), (2, 6), (2, 7), (3, 4), (3, 7), (3, 8), (3, 10), (3, 11),
            (4, 8), (4, 9), (4, 10), (4, 11), (5, 9), (6, 9), (7, 10),
        ]

    def test_edge_count_mean_near_binomial_mean(self):
        # k*m^2*p = 3000; the mean over 200 seeds must land within 5%
        counts = [random_graph(3, 100, 0.1, seed=s).edge_count() for s in range(200)]
        mean = sum(counts) / len(counts)
        assert abs(mean - 3000) < 0.05 * 3000

    def test_edge_count_variance_sane(self):
        counts = np.array(
            [random_graph(3, 100, 0.1, seed=s).edge_count() for s in range(200)],
            dtype=float,
        )
        expected_var = 3 * 100 * 100 * 0.1 * 0.9
        assert 0.6 * expected_var < counts.var(ddof=1) < 1.4 * expected_var


class TestRowChunks:
    """Generation draws a few whole rows at a time, in the one-draw order."""

    # m = 5: a chunk of 3 draws is shorter than a row, so each chunk is one
    # row; 12 gives 2-row chunks, so the last of the k*m = 15 rows is a
    # ragged chunk; 1000 holds every row
    @pytest.mark.parametrize("chunk", [3, 12, 1000])
    def test_chunks_equal_one_draw(self, monkeypatch, chunk):
        k, m, p, seed = 3, 5, 0.5, 11
        drawn = []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def random(self, shape):
                drawn.append(self.rng.random(shape))
                return drawn[-1]

        monkeypatch.setattr(layered_graph, "_DRAW_CHUNK", chunk)
        monkeypatch.setattr(layered_graph, "spawn_rng", lambda s: Recording(spawn_rng(s)))
        g = generate_random(GraphParams(k, m, p, seed))
        rows = max(1, chunk // m)
        assert [d.shape for d in drawn[:-1]] == [(rows, m)] * (len(drawn) - 1)
        assert 1 <= len(drawn[-1]) <= rows
        one = spawn_rng(seed).random((k, m, m))
        assert np.concatenate(drawn).tobytes() == one.tobytes()
        assert all(np.array_equal(g.blocks[i], one[i] < p) for i in range(k))


class TestCompleteLayered:
    @pytest.mark.parametrize(
        "k,m,edges", [(3, 1, 3), (3, 2, 12), (5, 2, 20)]
    )
    def test_edge_counts(self, k, m, edges):
        assert complete_layered(k, m).edge_count() == edges

    def test_rejects_bad_domains(self):
        with pytest.raises(ParameterError):
            complete_layered(2, 3)
        with pytest.raises(ParameterError):
            complete_layered(3, 0)


class TestStructure:
    def test_part_of_and_vertex_roundtrip(self):
        g = complete_layered(4, 3)
        for v in range(12):
            assert g.vertex(g.part_of(v), g.local(v)) == v

    def test_adjacency_symmetric(self):
        g = random_graph(4, 5, 0.4, seed=5)
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert g.adjacent(u, v) == g.adjacent(v, u)

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(3, 5),
        m=st.integers(1, 6),
        p=st.floats(0, 1),
        seed=st.integers(0, 2**32),
    )
    def test_partition_soundness(self, k, m, p, seed):
        g = random_graph(k, m, p, seed)
        for u, v in g.edges():
            assert (g.part_of(v) - g.part_of(u)) % k in (1, k - 1)

    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(3, 5),
        m=st.integers(1, 5),
        p=st.floats(0, 1),
        seed=st.integers(0, 2**32),
    )
    def test_serialization_roundtrip(self, k, m, p, seed):
        g = random_graph(k, m, p, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.json")
            g.save(path)
            assert LayeredGraph.load(path) == g

    def test_edges_sorted_and_normalized(self):
        g = random_graph(3, 6, 0.5, seed=11)
        edges = g.edges()
        assert all(u < v for u, v in edges)
        assert edges == sorted(edges)

    def test_from_edges_rejects_nonconsecutive(self):
        # parts 0 and 2 are non-consecutive for k=4
        with pytest.raises(ParameterError):
            LayeredGraph.from_edges(4, 2, [(0, 4)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            LayeredGraph.from_edges(3, 2, [(0, 9)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 2), (1, 3), (0, 9), (0, 1.0)], "edge (0, 1.0) has a non-integer endpoint"),
            ([(0, 2), (False, 2)], "edge (False, 2) has a non-integer endpoint"),
            ([(0, 2), (1, 2**70), (-1, 3)], f"edge (1, {2**70}) out of vertex range [0, 6)"),
            ([(0, 2), (5, 1), (0, 1), (2, 3)], "edge (0, 1) joins non-consecutive parts 0 and 0"),
            ([(0, 2), (0, 2, 4)], "edge (0, 2, 4) is not a pair"),
        ],
        ids=["float", "bool", "beyond-int64", "same-part", "triple"],
    )
    def test_from_edges_names_the_first_offending_edge(self, monkeypatch, edges, message):
        # each rule runs over all edges before the next: pairs, type, range, then parts,
        # read two edges per numpy pass
        monkeypatch.setattr(layered_graph, "_EDGE_CHUNK", 2)
        with pytest.raises(ParameterError) as excinfo:
            LayeredGraph.from_edges(3, 2, edges)
        assert str(excinfo.value) == f"edges: {message}"

    @pytest.mark.parametrize(
        "edges, message",
        [
            (np.array([[0, 1.5]]), "edge (0.0, 1.5) has a non-integer endpoint"),
            (np.array([[0, 5, 7]]), "edge [0, 5, 7] is not a pair"),
            ([(0, 2), (np.float64(0.0), 2)], "edge (0.0, 2) has a non-integer endpoint"),
            ([(0, 2), np.array([0, 2, 4])], "edge [0, 2, 4] is not a pair"),
        ],
        ids=["float-array", "three-columns", "numpy-scalar", "array-row"],
    )
    def test_from_edges_names_a_numpy_edge_by_its_python_values(self, edges, message):
        with pytest.raises(ParameterError) as excinfo:
            LayeredGraph.from_edges(3, 2, edges)
        assert str(excinfo.value) == f"edges: {message}"
        assert "np." not in str(excinfo.value) and "array(" not in str(excinfo.value)

    @pytest.mark.parametrize("k, m, p, seed", [(3, 7, 0.5, 1), (4, 5, 0.3, 2), (5, 1, 1.0, 3)])
    def test_from_edges_matches_one_edge_at_a_time(self, monkeypatch, k, m, p, seed):
        # either orientation and repeats of an edge set one block entry, across chunks
        monkeypatch.setattr(layered_graph, "_EDGE_CHUNK", 3)
        edges = random_graph(k, m, p, seed).edges()
        edges = edges + [(v, u) for u, v in edges[::2]] + edges[:3]
        blocks = [np.zeros((m, m), dtype=bool) for _ in range(k)]
        for u, v in edges:
            if (v // m - u // m) % k != 1:
                u, v = v, u
            blocks[u // m][u % m, v % m] = True
        assert LayeredGraph.from_edges(k, m, edges) == LayeredGraph(k, m, blocks)

    def test_from_edges_takes_numpy_edge_arrays(self):
        # the library's own edge array, a one-row array and an empty one build
        # graphs; the range rule tests the array's length, not its truth value
        g = random_graph(3, 5, 0.5, seed=4)
        assert LayeredGraph.from_edges(3, 5, g._edge_array()) == g
        assert LayeredGraph.from_edges(3, 5, np.array([[0, 5]])).edges() == [(0, 5)]
        empty = LayeredGraph.from_edges(3, 5, np.empty((0, 2), dtype=np.int64))
        assert empty == LayeredGraph.from_edges(3, 5, []) and empty.edges() == []
        with pytest.raises(ParameterError) as excinfo:
            LayeredGraph.from_edges(3, 5, np.array([[0, 5], [0, 99]]))
        assert str(excinfo.value) == "edges: edge (0, 99) out of vertex range [0, 15)"

    def test_from_edges_rejects_negative_m(self):
        # checked before the blocks are sized, so a negative m never reaches numpy
        with pytest.raises(ParameterError):
            LayeredGraph.from_edges(3, -1, [])

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([np.zeros((2, 2), dtype=bool)] * 2, "expected 3 adjacency blocks, got 2"),
            ([np.zeros((2, 2), dtype=np.uint8)] * 3, "block 0 must be a (2, 2) boolean array"),
        ],
        ids=["two-blocks", "uint8-block"],
    )
    def test_constructor_refuses_malformed_blocks(self, blocks, message):
        with pytest.raises(ParameterError) as excinfo:
            LayeredGraph(3, 2, blocks)
        assert str(excinfo.value) == f"blocks: {message}"

    def test_blocks_immutable(self, tiny_complete):
        with pytest.raises(ValueError):
            tiny_complete.blocks[0][0, 0] = False

    def test_save_load(self, tmp_path):
        g = random_graph(3, 4, 0.6, seed=3)
        path = tmp_path / "g.json"
        g.save(path)
        assert LayeredGraph.load(path) == g


class TestOversized:
    """Graphs whose arrays cannot fit in physical memory fail before allocating."""

    def test_generate_raises(self):
        with pytest.raises(ResourceLimitError):
            generate_random(GraphParams(k=3, part_size=100_000, edge_prob=0.5, seed=0))

    def test_generate_charges_the_blocks_and_one_chunk(self, monkeypatch):
        k, m = 3, 4
        # k*m**2 bool bytes, and one chunk of _DRAW_CHUNK // m rows of float64 draws
        need = k * m * m + 8 * (layered_graph._DRAW_CHUNK // m) * m
        # physical memory one byte short; nothing is allocated for real
        pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": need - 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        params = GraphParams(k=k, part_size=m, edge_prob=0.5, seed=0)
        with pytest.raises(ResourceLimitError, match="^graph arrays need more bytes") as excinfo:
            generate_random(params)
        assert (excinfo.value.required, excinfo.value.cap) == (need, need - 1)
        pages["SC_PAGE_SIZE"] = need
        assert generate_random(params) == random_graph(k, m, 0.5, 0)

    def test_from_json_raises(self):
        with pytest.raises(ResourceLimitError):
            LayeredGraph.from_json({"k": 3, "m": 1_000_000, "edges": []})
