import math

import numpy as np
import pytest

from ramsey_lab import (
    ParameterError,
    canonical_params,
    chernoff_lower,
    chernoff_upper,
    expected_stats,
    poly_concentration_scale,
)


class TestChernoff:
    def test_lower_at_zero_deviation(self):
        assert chernoff_lower(5.0, 0.0) == 1.0

    def test_upper_at_zero_deviation(self):
        assert chernoff_upper(5.0, 0.0) == 1.0

    def test_lower_example(self):
        # exp(-16/16) = 1/e
        assert chernoff_lower(8, 4) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_upper_example(self):
        # exp(-9/(2*(3+1))) = exp(-9/8)
        assert chernoff_upper(3, 3) == pytest.approx(math.exp(-9 / 8), abs=1e-12)

    def test_upper_dominates_lower(self):
        for e in (0.5, 2.0, 10.0, 1e4):
            for lam in (0.1, 1.0, 7.0, 1e3):
                assert chernoff_upper(e, lam) >= chernoff_lower(e, lam)

    def test_strictly_decreasing_in_deviation(self):
        grid = np.linspace(0.0, 50.0, 100)
        lo = [chernoff_lower(10.0, lam) for lam in grid]
        hi = [chernoff_upper(10.0, lam) for lam in grid]
        assert all(a > b for a, b in zip(lo, lo[1:]))
        assert all(a > b for a, b in zip(hi, hi[1:]))

    def test_bounds_are_probabilities(self):
        for lam in (0.0, 1.0, 20.0):
            assert 0.0 < chernoff_lower(3.0, lam) <= 1.0
            assert 0.0 < chernoff_upper(3.0, lam) <= 1.0
        # extreme deviations may underflow to exactly zero, never below
        assert chernoff_lower(3.0, 1e6) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ParameterError) as excinfo:
            chernoff_lower(0.0, 1.0)
        assert excinfo.value.field == "expectation"
        with pytest.raises(ParameterError) as excinfo:
            chernoff_lower(1.0, -1.0)
        assert excinfo.value.field == "deviation"
        with pytest.raises(ParameterError) as excinfo:
            chernoff_upper(-2.0, 1.0)
        assert excinfo.value.field == "expectation"

    @pytest.mark.parametrize("bound", [chernoff_lower, chernoff_upper])
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, 10**400, "1", None, True, np.bool_(True)],
        ids=["nan", "inf", "int-beyond-float", "string", "none", "bool", "numpy-bool"],
    )
    @pytest.mark.parametrize("field", ["expectation", "deviation"])
    def test_refuses_what_is_not_a_finite_number(self, bound, bad, field):
        args = {"expectation": 4.0, "deviation": 1.0, field: bad}
        with pytest.raises(ParameterError, match=f"^{field}: must be ") as excinfo:
            bound(**args)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("value", [np.int64(4), np.float32(4.0), 4])
    def test_numbers_of_any_type_pass(self, value):
        assert chernoff_lower(value, value) == pytest.approx(math.exp(-2.0))


class TestPolyConcentration:
    def test_scale_k1(self):
        assert poly_concentration_scale(1) == 8.0

    def test_scale_k3(self):
        assert poly_concentration_scale(3) == pytest.approx(512 * math.sqrt(6), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ParameterError) as excinfo:
            poly_concentration_scale(0)
        assert excinfo.value.field == "k"

    @pytest.mark.parametrize("k", [3.5, 3.0, True, "3", None], ids=str)
    def test_refuses_a_k_that_is_not_an_integer(self, k):
        with pytest.raises(ParameterError, match="^k: must be an integer, got ") as excinfo:
            poly_concentration_scale(k)
        assert excinfo.value.field == "k"

    def test_numpy_integer_k_passes(self):
        assert poly_concentration_scale(np.int64(1)) == 8.0


def canonical_stats(k, r, n):
    cp = canonical_params(k, r, n)
    return cp, expected_stats(k, cp.part_size, cp.p)


class TestExpectedStats:
    def test_canonical_k3_r2(self):
        for n in (10, 30, 100):
            cp, stats = canonical_stats(3, 2, n)
            assert cp.c == 288
            # a family of n paths: c*n*ln n expected completions
            assert n * stats.extensions_per_path == pytest.approx(
                288 * n * math.log(n), rel=1e-12
            )

    def test_canonical_vertex_forms(self):
        cp, stats = canonical_stats(3, 2, 50)
        cn, p = 288.0 * 50, cp.p
        assert stats.cycles_per_vertex == pytest.approx(cn**2 * p**3, rel=1e-12)
        assert stats.cycles_per_vertex_prime == pytest.approx(cn * p**2, rel=1e-12)

    def test_generalized_example(self):
        stats = expected_stats(3, 10, 0.5)
        assert stats.cycles_per_vertex == pytest.approx(100 * 0.125, rel=1e-12)
        assert stats.total_cycles == pytest.approx(1000 * 0.125, rel=1e-12)
        assert stats.extensions_per_path == pytest.approx(10 * 0.25, rel=1e-12)

    def test_p_zero(self):
        stats = expected_stats(3, 10, 0.0)
        assert stats.total_cycles == 0
        assert stats.cycles_per_vertex == 0
        assert stats.extensions_per_path == 0

    def test_canonical_generalized_consistency(self):
        # every cycle has one vertex per part, so a part's per-vertex counts sum to the total
        cp, stats = canonical_stats(3, 2, 40)
        assert cp.part_size * stats.cycles_per_vertex == pytest.approx(
            stats.total_cycles, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ParameterError) as excinfo:
            expected_stats(2, 10, 0.5)
        assert excinfo.value.field == "k"
        with pytest.raises(ParameterError) as excinfo:
            expected_stats(3, 0, 0.5)
        assert excinfo.value.field == "m"
        with pytest.raises(ParameterError) as excinfo:
            expected_stats(3, 10, 1.5)
        assert excinfo.value.field == "p"
