import json
import tracemalloc

import numpy as np
import pytest

from ramsey_lab import (
    Certificate,
    Coloring,
    FoundPath,
    LayeredGraph,
    ParameterError,
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
from ramsey_lab import greedy, reporting
from ramsey_lab.cycles import decode_keys
from ramsey_lab.greedy import RoundOutcome, outcome_to_json
from conftest import random_graph


def mono_coloring(h, color, r=2):
    colors = np.full(len(h), color, dtype=np.uint8)
    return Coloring(r, colors)


def parity_coloring(h):
    locs = decode_keys(h.keys, h.graph.k, h.graph.m)
    return Coloring(2, (locs.sum(axis=1) % 2).astype(np.uint8))


@pytest.fixture
def complete_h(tiny_complete):
    return build_hypergraph(tiny_complete)


class TestColorings:
    def test_random_deterministic(self, complete_h):
        a = random_coloring(complete_h, 2, 7)
        b = random_coloring(complete_h, 2, 7)
        assert np.array_equal(a.colors, b.colors)
        assert not np.array_equal(a.colors, random_coloring(complete_h, 2, 8).colors)

    def test_round_robin_alternates(self, complete_h):
        col = adversarial_coloring(complete_h, 2, "round_robin")
        assert list(col.colors) == [0, 1, 0, 1, 0, 1, 0, 1]

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
            assert col.colors[eid] == (0 if meets else 1)

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
        assert back.r == 3 and np.array_equal(back.colors, col.colors)

    def test_save_peak_memory_is_near_the_colors_array(self, tmp_path, monkeypatch):
        # as for the hypergraph, the peak is one chunk's colors and text; a color
        # is one byte against some 60 of text and objects, so the chunk is smaller
        monkeypatch.setattr(reporting, "_WRITE_CHUNK", 1024)
        col = random_coloring(build_hypergraph(random_graph(3, 100, 0.5, 1)), 2, 1)
        assert col.colors.size > 100 * 1024
        tracemalloc.start()
        try:
            col.save(tmp_path / "col.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * col.colors.nbytes

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
        ],
        ids=[
            "round-robin-r300", "random-r300", "r1", "color300", "negative", "fractional",
            "nested", "scalar", "not-flat",
        ],
    )
    def test_one_color_rule(self, complete_h, make, field):
        with pytest.raises(ParameterError) as excinfo:
            make(complete_h)
        assert excinfo.value.field == field

    def test_uint8_holds_256_colors(self, complete_h):
        assert random_coloring(complete_h, 256, 3).r == 256


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
        assert counts.dtype == np.int64 and counts.sum() == col.colors.size == 1_001_036
        assert peak < 2 * col.colors.nbytes


class TestGreedyRound:
    def test_no_working_edges(self, tiny_complete, complete_h):
        col = mono_coloring(complete_h, 1)
        res = greedy_round(complete_h, tiny_complete, col, color=0, n=4)
        assert res.kind is RoundOutcome.NO_WORKING_EDGE
        assert res.path == [] and len(res.trash) == 0

    def test_all_working_complete_path(self):
        g = complete_layered(3, 6)
        h = build_hypergraph(g)
        col = mono_coloring(h, 0)
        res = greedy_round(h, g, col, color=0, n=6, debug=True)
        assert res.kind is RoundOutcome.PATH_FOUND
        assert len(res.trash) == 0  # extension never fails in a complete graph
        assert validate_tight_path(h, res.path, col, 0)

    def test_single_edge_n_equals_k(self, tiny_complete, complete_h):
        colors = np.ones(8, dtype=np.uint8)
        colors[0] = 0
        col = Coloring(2, colors)
        res = greedy_round(complete_h, tiny_complete, col, color=0, n=3)
        assert res.kind is RoundOutcome.PATH_FOUND
        assert res.path == [0, 2, 4]  # canonical layout from the part-0 vertex

    def test_case2_produces_trash(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        res = greedy_round(complete_h, tiny_complete, col, color=0, n=4, debug=True)
        assert res.kind is RoundOutcome.NO_WORKING_EDGE
        assert len(res.trash) == 2  # both parity-0 components get trashed

    def test_debug_mode_invariants_on_random_instances(self):
        # debug mode re-checks path/trash/unused disjointness and the window
        # invariant after every transition
        for seed in range(8):
            g = random_graph(3, 6, 0.6, seed)
            h = build_hypergraph(g)
            if len(h) == 0:
                continue
            col = random_coloring(h, 2, seed)
            greedy_round(h, g, col, color=0, n=5, debug=True)
            greedy_round(h, g, col, color=1, n=5, debug=True)

    def test_trash_full_terminates(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        res = greedy_round(complete_h, tiny_complete, col, color=0, n=2 * 3, deleted=None)
        # n=6 > reachable trash here; rerun with n=2 rejected (n < k)
        with pytest.raises(ParameterError):
            greedy_round(complete_h, tiny_complete, col, color=0, n=2)

    def test_rejects_partial_coloring(self, tiny_complete, complete_h):
        with pytest.raises(ParameterError):
            greedy_round(
                complete_h, tiny_complete, Coloring(2, np.zeros(3, dtype=np.uint8)), 0, 4
            )

    def test_rejects_wrong_graph(self, complete_h):
        other = complete_layered(3, 2)
        col = mono_coloring(complete_h, 0)
        with pytest.raises(ParameterError):
            greedy_round(complete_h, other, col, 0, 3)


class TestStartEdgeCursor:
    """``_find_start_edge`` scans from ``lo`` in chunks of 1024, 2048, ... ids."""

    @pytest.fixture(scope="class")
    def big(self):
        # 8000 hyperedges; scans from 0 end chunks at 1024, 3072 and 7168
        return build_hypergraph(complete_layered(3, 20))

    @staticmethod
    def scan(h, eligible, lo=0, unused=None):
        colors = np.ones(len(h), dtype=np.uint8)
        colors[list(eligible)] = 0
        if unused is None:
            unused = np.ones(h.graph.num_vertices, dtype=bool)
        return greedy._find_start_edge(h, colors, 0, np.zeros(len(h), dtype=bool), unused, lo)

    @pytest.mark.parametrize("target", [0, 1023, 1024, 3071, 3072, 7168, 7999])
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

    @pytest.mark.parametrize("past", [0, 1, 5000])
    def test_lo_past_the_end(self, big, past):
        assert self.scan(big, [0, len(big) - 1], lo=len(big) + past) is None

    @pytest.mark.parametrize(
        "k, m, p, seed", [(3, 600, 0.03, 1), (4, 80, 0.08, 3), (5, 20, 0.2, 1)],
        ids=["k3", "k4", "k5"],
    )
    def test_cursor_matches_full_scan_in_run_outer(self, monkeypatch, k, m, p, seed):
        # sparse restart-heavy instances: every resumed scan must give the
        # answer of a scan from id 0
        g = random_graph(k, m, p, seed)
        h = build_hypergraph(g)
        if k == 3:
            assert len(h) > 4 * 1024  # resumed scans cross doubling boundaries
        col = random_coloring(h, 2, seed)
        full_scan = greedy._find_start_edge
        resumed = []

        def checked_scan(h, colors, color, deleted, unused, lo=0):
            eid = full_scan(h, colors, color, deleted, unused, lo)
            assert eid == full_scan(h, colors, color, deleted, unused)
            resumed.append(lo > 0)
            return eid

        monkeypatch.setattr(greedy, "_find_start_edge", checked_scan)
        out = run_outer(h, g, col, n=10)
        assert isinstance(out, Certificate) and len(out.rounds) > 0
        assert any(resumed)

    def test_debug_round_rescans_from_zero(self, monkeypatch):
        g = random_graph(3, 600, 0.03, 1)
        h = build_hypergraph(g)
        col = random_coloring(h, 2, 1)
        full_scan = greedy._find_start_edge
        los = []

        def spy(h, colors, color, deleted, unused, lo=0):
            los.append(lo)
            return full_scan(h, colors, color, deleted, unused, lo)

        monkeypatch.setattr(greedy, "_find_start_edge", spy)
        greedy_round(h, g, col, pick_majority_color(col.counts()), n=10, debug=True)
        # debug mode follows every cursor scan with a scan from id 0
        assert any(lo > 0 for lo in los[0::2]) and not any(los[1::2])


class TestRunOuter:
    def test_zero_working_edges_certificate(self, tiny_complete, complete_h):
        col = mono_coloring(complete_h, 1)
        out = run_outer(complete_h, tiny_complete, col, n=4, color=0)
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
        out = run_outer(h, g, col, n=8, color=0)
        assert isinstance(out, FoundPath)
        assert len(out.vertices) == 8
        assert validate_tight_path(h, out.vertices, col, 0)

    def test_majority_color_default(self, tiny_complete, complete_h):
        colors = np.array([1] * 5 + [0] * 3, dtype=np.uint8)
        col = Coloring(2, colors)
        out = run_outer(complete_h, tiny_complete, col, n=3)
        assert out.color == 1

    def test_deterministic(self, tiny_complete, complete_h):
        col = random_coloring(complete_h, 2, 3)
        a = run_outer(complete_h, tiny_complete, col, n=4)
        b = run_outer(complete_h, tiny_complete, col, n=4)
        assert outcome_to_json(a) == outcome_to_json(b)

    def test_path_soundness_across_seeds(self):
        g = complete_layered(3, 6)
        h = build_hypergraph(g)
        for seed in range(15):
            col = random_coloring(h, 2, seed)
            out = run_outer(h, g, col, n=4)
            if isinstance(out, FoundPath):
                assert validate_tight_path(h, out.vertices, col, out.color)
                assert len(out.vertices) >= 4

    def test_certificate_rounds_have_disjoint_families(self):
        g = random_graph(3, 6, 0.7, 13)
        h = build_hypergraph(g)
        if len(h) == 0:
            pytest.skip("no cycles at this seed")
        col = adversarial_coloring(h, 2, "vertex_cut", seed=3)
        out = run_outer(h, g, col, n=5, color=pick_majority_color(col.counts()))
        if isinstance(out, Certificate):
            seen = set()
            for rec in out.rounds:
                for row in rec.trash.rows.tolist():
                    assert tuple(row) not in seen
                    seen.add(tuple(row))


class TestParityInstance:
    """The frozen adversarial tiny instance: majority color on the parity
    coloring of complete_layered(3, 2) cannot build 4 vertices, and its
    certificate exhibits the accounting contradiction."""

    def test_certificate_with_contradiction_structure(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        assert pick_majority_color(col.counts()) == 0  # 4-4 tie breaks to 0
        out = run_outer(complete_h, tiny_complete, col, n=4)
        assert isinstance(out, Certificate)
        audit = out.audit
        # majority color can never satisfy (e); so (b) or (c) must fail
        assert not audit.minority_ok
        assert (not audit.per_round_ok) or (not audit.meeting_ok)
        assert audit.contradiction_consistent()
        # deterministic counting identities hold
        assert audit.accounting_ok
        assert audit.extension_budget_ok

    def test_audit_recomputation_matches(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        out = run_outer(complete_h, tiny_complete, col, n=4)
        fresh = audit_certificate(out, complete_h, tiny_complete, col)
        assert fresh == out.audit

    def test_audit_refuses_a_graph_the_hypergraph_was_not_built_over(self):
        g = random_graph(3, 60, 0.1, 1)
        h = build_hypergraph(g)
        col = random_coloring(h, 2, 11)
        out = run_outer(h, g, col, n=8)
        assert isinstance(out, Certificate)
        # relabelling part 0 keeps the cycle count, so the recount alone passes it
        blocks = [b.copy() for b in g.blocks]
        blocks[0], blocks[2] = blocks[0][::-1], blocks[2][:, ::-1]
        relabelled = LayeredGraph(3, 60, blocks)
        assert count_proper_cycles(relabelled) == len(h)
        with pytest.raises(ParameterError) as excinfo:
            audit_certificate(out, h, relabelled, col)
        assert excinfo.value.field == "g"


class TestOutcomeJson:
    def test_path_shape(self):
        g = complete_layered(3, 4)
        h = build_hypergraph(g)
        col = mono_coloring(h, 0)
        doc = outcome_to_json(run_outer(h, g, col, n=4, color=0))
        assert doc["kind"] == "path" and len(doc["vertices"]) == 4

    def test_certificate_shape(self, tiny_complete, complete_h):
        col = parity_coloring(complete_h)
        doc = outcome_to_json(run_outer(complete_h, tiny_complete, col, n=4))
        assert doc["kind"] == "certificate"
        assert set(doc) == {
            "kind", "color", "rounds", "final_trash", "intersecting_set", "audit",
        }
        assert doc["audit"]["total_cycles"] == 8
