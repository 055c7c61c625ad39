import json
from pathlib import Path

import numpy as np
import pytest

from ramsey_lab import (
    Coloring,
    FoundPath,
    LayeredGraph,
    ParameterError,
    ResourceLimitError,
    Verdict,
    arrow_check,
    brute_force_cycles,
    build_hypergraph,
    complete_layered,
    random_coloring,
    run_outer,
    tight_path_exists,
)
from conftest import random_graph

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "arrow_fixtures.json").read_text()
)


class TestBruteForce:
    def test_complete_3_2(self, tiny_complete):
        cycles = brute_force_cycles(tiny_complete)
        assert len(cycles) == 8
        assert cycles[0] == (0, 2, 4)

    def test_empty(self):
        assert brute_force_cycles(random_graph(3, 4, 0.0, 0)) == []

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_force_cycles(complete_layered(3, 10), cap=999)


class TestTightPathSearch:
    def test_single_edge_n_equals_k(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        res = tight_path_exists(h, 3)
        assert res.verdict is Verdict.FOUND
        assert len(res.witness) == 3

    def test_no_edges_absent(self):
        h = build_hypergraph(random_graph(3, 4, 0.0, 0))
        res = tight_path_exists(h, 3)
        assert res.verdict is Verdict.ABSENT
        assert res.witness is None

    def test_unknown_on_tiny_cap(self):
        h = build_hypergraph(complete_layered(3, 3))
        res = tight_path_exists(h, 9, cap=2)
        assert res.verdict is Verdict.UNKNOWN

    def test_color_class_restriction(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        colors = np.ones(8, dtype=np.uint8)
        colors[0] = 0
        col = Coloring(2, colors)
        assert tight_path_exists(h, 3, col, 0).verdict is Verdict.FOUND
        # a 4-vertex path needs two chained edges of the same color
        assert tight_path_exists(h, 4, col, 0).verdict is Verdict.ABSENT
        # a color outside 0..r-1 is refused, not searched as an empty class
        with pytest.raises(ParameterError) as excinfo:
            tight_path_exists(h, 3, col, 2)
        assert excinfo.value.field == "color"

    def test_refuses_a_partial_coloring(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        col = Coloring(2, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ParameterError) as excinfo:
            tight_path_exists(h, 3, col, 0)
        assert excinfo.value.field == "col"

    def test_confirms_greedy_paths(self):
        # one-sided soundness: greedy path implies oracle FOUND for that color
        for seed in range(12):
            g = random_graph(3, 5, 0.7, seed)
            h = build_hypergraph(g)
            if len(h) == 0:
                continue
            col = random_coloring(h, 2, seed)
            out = run_outer(h, col, n=4)
            if isinstance(out, FoundPath):
                res = tight_path_exists(h, 4, col, out.color)
                assert res.verdict is Verdict.FOUND


class TestArrow:
    def test_fixtures_reproduce_exactly(self):
        for fix in FIXTURES:
            g = LayeredGraph.from_json(fix["graph"])
            h = build_hypergraph(g)
            res = arrow_check(h, fix["n"], fix["r"])
            assert res.verdict == fix["verdict"], fix["name"]
            assert res.counterexample == fix["counterexample"], fix["name"]
            assert res.colorings_checked == fix["colorings_checked"], fix["name"]

    def test_counterexample_admits_no_mono_path(self):
        fix = next(f for f in FIXTURES if f["name"] == "complete-3-2-n4")
        g = LayeredGraph.from_json(fix["graph"])
        h = build_hypergraph(g)
        col = Coloring(fix["r"], np.array(fix["counterexample"], dtype=np.uint8))
        for c in range(fix["r"]):
            assert tight_path_exists(h, fix["n"], col, c).verdict is Verdict.ABSENT

    def test_arrow_at_n_k_iff_nonempty(self):
        empty = build_hypergraph(random_graph(3, 3, 0.0, 0))
        assert arrow_check(empty, 3, 2).verdict is False
        nonempty = build_hypergraph(complete_layered(3, 1))
        assert arrow_check(nonempty, 3, 2).verdict is True

    def test_refuses_n_below_k_on_an_edgeless_host(self):
        empty = build_hypergraph(random_graph(3, 3, 0.0, 0))
        with pytest.raises(ParameterError) as excinfo:
            arrow_check(empty, 1, 2)
        assert excinfo.value.field == "n"

    def test_coloring_cap(self):
        h = build_hypergraph(complete_layered(3, 3))  # 27 edges
        with pytest.raises(ResourceLimitError):
            arrow_check(h, 3, 2, coloring_cap=1000)

    def test_coloring_cap_is_stated_in_hyperedges(self):
        # 2**15625 colorings: a refusal stating them would run to 4,704 digits
        h = build_hypergraph(complete_layered(3, 25))
        with pytest.raises(ResourceLimitError) as excinfo:
            arrow_check(h, 3, 2)
        # 2**23 <= 10**7 < 2**24
        assert (excinfo.value.required, excinfo.value.cap) == (15_625, 23)
        assert str(excinfo.value) == (
            "coloring space of 2**hyperedges exceeds cap (required 15625, cap 23)"
        )
        # K(3, 2) has 8 hyperedges: 2**8 colorings are within a cap of 2**8
        small = build_hypergraph(complete_layered(3, 2))
        assert arrow_check(small, 3, 2, coloring_cap=2**8).verdict is True
        with pytest.raises(ResourceLimitError) as excinfo:
            arrow_check(small, 3, 2, coloring_cap=2**8 - 1)
        assert (excinfo.value.required, excinfo.value.cap) == (8, 7)

    def test_unknown_propagates(self, tiny_complete):
        h = build_hypergraph(tiny_complete)
        res = arrow_check(h, 6, 2, search_cap=1)
        assert res.verdict is None
