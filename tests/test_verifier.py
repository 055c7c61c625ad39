import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ramsey_lab import (
    GraphParams,
    ParameterError,
    UnknownVertexError,
    check_property_i,
    check_property_ii,
    check_property_iii,
    complete_layered,
    concentration_experiment,
    count_cycles_meeting,
    count_family_extensions,
    count_restricted_extensions,
    cycles_per_vertex,
    expected_stats,
    poly_concentration_scale,
    sample_trash_family,
    trash_family,
)
from ramsey_lab import cycles
from ramsey_lab.cycles import _extensions
from ramsey_lab.seeds import spawn_rng
from ramsey_lab.verifier import EPSILON_GRID, RoundAudit, _finish, restricted_check
from conftest import random_graph


class TestSampler:
    def test_family_is_valid(self):
        g = random_graph(3, 20, 0.4, seed=2)
        fam = sample_trash_family(g, 5, spawn_rng(1))
        assert fam is not None
        assert len(fam) == 5
        assert fam.rows.shape == (5, g.k - 1)
        verts = fam.rows.ravel().tolist()
        assert len(verts) == len(set(verts))

    def test_starves_on_empty_graph(self):
        g = random_graph(3, 5, 0.0, seed=0)
        assert sample_trash_family(g, 2, spawn_rng(0)) is None

    def test_deterministic(self):
        g = random_graph(3, 15, 0.5, seed=9)
        a = sample_trash_family(g, 4, spawn_rng(3))
        b = sample_trash_family(g, 4, spawn_rng(3))
        assert np.array_equal(a.rows, b.rows)


class TestPropertyI:
    def test_zero_trials(self):
        g = complete_layered(3, 5)
        rep = check_property_i(g, r=2, n=2, trials=0, seed=0)
        assert rep.trials == 0 and rep.violations == 0 and rep.skips == 0
        assert rep.margin_min is None

    def test_empty_graph_all_skipped(self):
        g = random_graph(3, 6, 0.0, seed=0)
        rep = check_property_i(g, r=2, n=2, trials=10, seed=0)
        assert rep.skips == 10
        assert rep.violations == 0 and rep.passes == 0

    def test_conservation_and_determinism(self):
        g = random_graph(3, 15, 0.4, seed=4)
        a = check_property_i(g, r=2, n=3, trials=25, seed=7)
        b = check_property_i(g, r=2, n=3, trials=25, seed=7)
        assert a.violations + a.passes + a.skips == a.trials == 25
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_rows_emitted(self):
        g = random_graph(3, 15, 0.4, seed=4)
        rep = check_property_i(g, r=2, n=3, trials=5, seed=7)
        assert len(rep.rows) == rep.trials - rep.skips
        for row in rep.rows:
            assert set(row) == {"trial", "statistic", "value", "expectation", "ratio"}
            assert row["ratio"] == row["value"] / row["expectation"]

    def test_summary_follows_rows(self):
        # a trial passes iff value < bound, and its margin is bound - value
        g = random_graph(3, 12, 0.5, seed=3)
        rep = check_property_i(g, r=2, n=2, trials=30, seed=1)
        assert rep.violations > 0 and rep.passes > 0
        assert rep.passes == sum(row["value"] < row["expectation"] for row in rep.rows)
        margins = [row["expectation"] - row["value"] for row in rep.rows]
        assert rep.margin_min == min(margins)
        assert rep.margin_mean == pytest.approx(sum(margins) / len(margins), rel=1e-12)

    def test_bad_config(self):
        g = complete_layered(3, 4)
        with pytest.raises(ParameterError):
            check_property_i(g, r=1, n=2, trials=5, seed=0)

    def test_value_at_the_bound_is_a_violation(self):
        rep = _finish("i", "restricted_extensions", [(2, 2.0), None, (1, 2.0)], {})
        assert (rep.trials, rep.passes, rep.violations, rep.skips) == (3, 1, 1, 1)
        assert (rep.margin_min, rep.margin_mean) == (0.0, 0.5)
        assert [row["trial"] for row in rep.rows] == [0, 2]


class TestRestrictedCheck:
    """One ``restricted_check`` pass checks property (i) on many pairs."""

    @staticmethod
    def drawn_pairs(g, count, seed):
        """``count`` (aset, family) pairs: families of 0..4 paths, and sets of
        0..5 vertices that may share vertices with their family."""
        rng = spawn_rng(seed)
        pairs = []
        for i in range(count):
            fam = sample_trash_family(g, i % 5, rng) if i % 5 else trash_family(g, [])
            assert fam is not None
            aset = rng.choice(g.num_vertices, size=i % 6, replace=False)
            pairs.append((aset.tolist() if i % 2 else aset, fam))
        return pairs

    # with 3 rows a block, a block holds the rows of several pairs and a
    # pair's rows span blocks
    @pytest.mark.parametrize("block", [3, 512])
    @pytest.mark.parametrize("k, m, p, seed", [(3, 12, 0.5, 1), (4, 8, 0.6, 2), (5, 6, 0.7, 3)])
    def test_matches_per_pair_counts(self, k, m, p, seed, block):
        g = random_graph(k, m, p, seed)
        pairs = self.drawn_pairs(g, 40, seed)
        with mock.patch.object(cycles, "_ROW_BLOCK", block):
            audits = restricted_check(g, pairs, 3)
        assert len(audits) == len(pairs)
        for (aset, fam), a in zip(pairs, audits):
            # one pair at a time, so no other owner shares its blocks
            y = count_restricted_extensions(g, aset, fam)
            t_fam = count_family_extensions(g, fam)
            # and each row's own extensions, summed, through no family pass
            allowed = np.zeros(g.num_vertices, dtype=bool)
            allowed[np.asarray(aset, dtype=np.int64)] = True
            allowed[fam.rows] = True
            rows = fam.rows.tolist()
            assert y == sum(_extensions(g, row, allowed)[0].size for row in rows)
            assert t_fam == sum(_extensions(g, row)[0].size for row in rows)
            bound = t_fam / (2 * k * 3)
            assert a == RoundAudit(y, t_fam, bound, margin=bound - y, ok=y < bound)
        assert any(a.restricted_extensions for a in audits)
        assert restricted_check(g, [], 3) == []

    def test_refuses_an_unknown_vertex(self):
        g = complete_layered(3, 4)
        fam = trash_family(g, [[0, 4]])
        with pytest.raises(UnknownVertexError, match="vertex 12 not in graph"):
            restricted_check(g, [([8], fam), ([12], fam)], 2)

    # the pass holds its blocks and a few words a pair, never a row of the
    # vertices per pair: 500 more pairs on 9,000 vertices cost well under
    # the 4.5 MB such rows would take
    def test_memory_does_not_grow_with_the_number_of_rounds(self):
        g = random_graph(3, 3000, 0.01, 1)
        pairs = self.drawn_pairs(g, 20, 5)
        peaks = []
        for rounds in (500, 1000):
            tracemalloc.start()
            try:
                restricted_check(g, pairs * (rounds // 20), 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 500 * g.num_vertices / 3


class TestPropertyII:
    def test_requires_enough_vertices(self):
        g = complete_layered(3, 2)
        with pytest.raises(ParameterError):
            check_property_ii(g, r=2, n=4, trials=5, seed=0)  # needs (k-1)*4=8 > 6

    def test_rejects_n_zero(self):
        g = complete_layered(3, 4)
        with pytest.raises(ParameterError):
            check_property_ii(g, r=2, n=0, trials=5, seed=0)

    def test_vacuous_skip_when_no_cycles(self):
        g = random_graph(3, 6, 0.0, seed=0)
        rep = check_property_ii(g, r=2, n=2, trials=8, seed=1)
        assert rep.skips == 8 and rep.violations == 0

    def test_adversarial_first_trial(self):
        g = complete_layered(3, 6)
        rep = check_property_ii(g, r=2, n=2, trials=4, seed=5)
        assert rep.params["adversarial_first"] is True
        # the adversarial set meets at least as many cycles as any sampled one
        values = [row["value"] for row in rep.rows]
        assert values[0] == max(values)

    def test_first_trial_is_the_heaviest_set(self):
        g = random_graph(3, 12, 0.5, seed=8)
        rep = check_property_ii(g, r=2, n=2, trials=3, seed=2)
        heavy = np.argsort(-cycles_per_vertex(g), kind="stable")[:4]
        assert rep.rows[0]["value"] == count_cycles_meeting(g, heavy)

    @pytest.mark.parametrize(
        "g, n",
        [(lambda: random_graph(3, 12, 0.5, seed=8), 2), (lambda: complete_layered(4, 257), 3)],
        ids=["small-random", "K(4,257)"],
    )
    def test_every_trial_counts_its_own_set(self, g, n):
        # the trials' sets are counted in one batch; on K(4, 257) it widens to
        # float64 partway through.  No set may leak into another's count
        g = g()
        trials, seed, size = 5, 2, (g.k - 1) * n
        rep = check_property_ii(g, r=2, n=n, trials=trials, seed=seed)
        csets = [np.argsort(-cycles_per_vertex(g), kind="stable")[:size]] + [
            spawn_rng(seed, t).choice(g.num_vertices, size=size, replace=False)
            for t in range(1, trials)
        ]
        assert [row["trial"] for row in rep.rows] == list(range(trials))
        assert [row["value"] for row in rep.rows] == [
            count_cycles_meeting(g, cset) for cset in csets
        ]

    def test_tiny_complete_violates(self):
        # on a tiny dense instance every (k-1)n-set meets most cycles, so the
        # property fails; this run must report violations, not errors
        g = complete_layered(3, 4)
        rep = check_property_ii(g, r=2, n=2, trials=6, seed=3)
        assert rep.violations == 6

    def test_determinism(self):
        g = random_graph(3, 12, 0.5, seed=8)
        a = check_property_ii(g, r=2, n=2, trials=10, seed=2)
        b = check_property_ii(g, r=2, n=2, trials=10, seed=2)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestPropertyIII:
    def test_empty_graph_zero_ratio(self):
        g = random_graph(3, 6, 0.0, seed=0)
        rep = check_property_iii(g, r=2, n=3)
        assert rep.total_cycles == 0
        assert rep.ratio_c == 0.0 and rep.ratio_r == 0.0

    def test_complete_algebra(self):
        # with m = c*n and p = 1: total = (cn)^k, so ratio_c = (n/ln n)^(k/2)
        c_eff, n = 2, 4
        g = complete_layered(3, c_eff * n)
        rep = check_property_iii(g, r=2, n=n)
        expected = (n / math.log(n)) ** 1.5
        assert rep.ratio_c == pytest.approx(expected, rel=1e-12)

    def test_default_c_eff_is_m_over_n(self):
        g = complete_layered(3, 8)
        rep = check_property_iii(g, r=2, n=4)
        assert rep.c_eff == 2.0


class TestConcentration:
    def base(self, **kw):
        defaults = dict(k=3, part_size=20, edge_prob=0.3, seed=0)
        defaults.update(kw)
        return GraphParams(**defaults)

    def test_degenerate_p_one_zero_variance(self):
        rep = concentration_experiment(self.base(edge_prob=1.0), "total_cycles", 10, seed=1)
        assert rep.variance == 0.0
        assert rep.mean == 20**3

    def test_total_cycles_mean(self):
        rep = concentration_experiment(self.base(part_size=30), "total_cycles", 50, seed=2)
        assert rep.expectation == pytest.approx(27000 * 0.027, rel=1e-9)
        assert abs(rep.mean - rep.expectation) < 0.3 * rep.expectation

    def test_vertex_statistic_mean(self):
        rep = concentration_experiment(
            self.base(part_size=40), "cycles_through_vertex", 60, seed=3
        )
        assert rep.expectation == pytest.approx(1600 * 0.027, rel=1e-9)
        assert abs(rep.mean - rep.expectation) < 0.5 * rep.expectation

    def test_path_extension_statistic(self):
        rep = concentration_experiment(
            self.base(part_size=30), "single_path_extensions", 40, seed=4
        )
        assert rep.expectation == pytest.approx(30 * 0.09, rel=1e-9)
        assert 0 <= rep.skips <= rep.trials
        assert abs(rep.mean - rep.expectation) < 0.6 * rep.expectation

    def test_epsilon_grid_and_bounds(self):
        rep = concentration_experiment(self.base(), "total_cycles", 5, seed=5)
        assert set(rep.outside_fraction) == {f"{e:g}" for e in EPSILON_GRID}
        for key, bounds in rep.analytic_bounds.items():
            assert 0 < bounds["binomial_lower"] <= 1
            assert 0 < bounds["binomial_upper"] <= 1

    def test_poly_bound_reported_for_vertex_statistic(self):
        rep = concentration_experiment(self.base(), "cycles_through_vertex", 3, seed=6)
        assert "poly_lambda" in rep.analytic_bounds["0.1"]

    def test_poly_bound_inverts_the_threshold(self):
        # k=3, m=20, p=0.3: E = 10.8 and E' = 1.8, so the threshold scale is
        # 8^3 sqrt(3!) sqrt(E E') = 512 * 10.8 and eps * E / scale = eps / 512
        rep = concentration_experiment(self.base(), "cycles_through_vertex", 3, seed=6)
        stats = expected_stats(3, 20, 0.3)
        pinned = {
            "0.1": (5120.0 ** (-1 / 3), 8.130669264024041),
            "0.25": (2048.0 ** (-1 / 3), 8.109944058825771),
            "0.5": (1024.0 ** (-1 / 3), 8.08947655869619),
        }
        for eps in EPSILON_GRID:
            bound = rep.analytic_bounds[f"{eps:g}"]
            lam, exponent = bound["poly_lambda"], bound["poly_tail_exponent"]
            assert (lam, exponent) == pytest.approx(pinned[f"{eps:g}"], rel=1e-12)
            threshold = poly_concentration_scale(3) * math.sqrt(
                stats.cycles_per_vertex * stats.cycles_per_vertex_prime
            ) * lam**3
            assert threshold == pytest.approx(eps * rep.expectation, rel=1e-12)
            assert exponent == pytest.approx(-lam + 2 * math.log(3 * 20), rel=1e-12)

    def test_deterministic_rerun(self):
        a = concentration_experiment(self.base(), "total_cycles", 12, seed=7)
        b = concentration_experiment(self.base(), "total_cycles", 12, seed=7)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_unknown_statistic(self):
        with pytest.raises(ParameterError):
            concentration_experiment(self.base(), "nope", 3, seed=0)
