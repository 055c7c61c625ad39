import dataclasses
import math

import numpy as np
import pytest

from ramsey_lab import (
    ConfigError,
    GraphParams,
    check_property_i,
    check_property_ii,
    check_property_iii,
    complete_layered,
    concentration_experiment,
    sample_trash_family,
)
from ramsey_lab.seeds import make_rng
from ramsey_lab.verifier import EPSILON_GRID
from conftest import random_graph


class TestSampler:
    def test_family_is_valid(self):
        g = random_graph(3, 20, 0.4, seed=2)
        fam = sample_trash_family(g, 5, make_rng(1))
        assert fam is not None
        assert len(fam) == 5
        assert fam.rows.shape == (5, g.k - 1)
        verts = fam.rows.ravel().tolist()
        assert len(verts) == len(set(verts))

    def test_starves_on_empty_graph(self):
        g = random_graph(3, 5, 0.0, seed=0)
        assert sample_trash_family(g, 2, make_rng(0)) is None

    def test_deterministic(self):
        g = random_graph(3, 15, 0.5, seed=9)
        a = sample_trash_family(g, 4, make_rng(3))
        b = sample_trash_family(g, 4, make_rng(3))
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
        rep = check_property_i(g, r=2, n=3, trials=5, seed=7, emit_trials=True)
        assert rep.rows is not None
        for row in rep.rows:
            assert set(row) == {"trial", "statistic", "value", "expectation", "ratio"}

    def test_bad_config(self):
        g = complete_layered(3, 4)
        with pytest.raises(ConfigError):
            check_property_i(g, r=1, n=2, trials=5, seed=0)


class TestPropertyII:
    def test_requires_enough_vertices(self):
        g = complete_layered(3, 2)
        with pytest.raises(ConfigError):
            check_property_ii(g, r=2, n=4, trials=5, seed=0)  # needs (k-1)*4=8 > 6

    def test_rejects_n_zero(self):
        g = complete_layered(3, 4)
        with pytest.raises(ConfigError):
            check_property_ii(g, r=2, n=0, trials=5, seed=0)

    def test_vacuous_skip_when_no_cycles(self):
        g = random_graph(3, 6, 0.0, seed=0)
        rep = check_property_ii(g, r=2, n=2, trials=8, seed=1)
        assert rep.skips == 8 and rep.violations == 0

    def test_adversarial_first_trial(self):
        g = complete_layered(3, 6)
        rep = check_property_ii(g, r=2, n=2, trials=4, seed=5, emit_trials=True)
        assert rep.params["adversarial_first"] is True
        # the adversarial set meets at least as many cycles as any sampled one
        values = [row["value"] for row in rep.rows]
        assert values[0] == max(values)

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
        rep = check_property_iii(g, r=2, n=n, c_eff=c_eff)
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

    def test_deterministic_rerun(self):
        a = concentration_experiment(self.base(), "total_cycles", 12, seed=7)
        b = concentration_experiment(self.base(), "total_cycles", 12, seed=7)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_unknown_statistic(self):
        with pytest.raises(ConfigError):
            concentration_experiment(self.base(), "nope", 3, seed=0)
