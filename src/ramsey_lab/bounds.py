"""Analytic tail bounds and closed-form expectations.

Binomial tail bounds (lower/upper Chernoff forms) and the scale constant
of the polynomial concentration threshold used for per-vertex cycle
counts, plus the closed-form expectations the Monte Carlo experiments
compare against.  At the canonical host the expectations are
``expected_stats(k, cp.part_size, cp.p)`` with ``cp = canonical_params(k, r, n)``.
All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .layered_graph import _check_integer, _check_k, _check_m, _check_number, _check_p

__all__ = [
    "chernoff_lower",
    "chernoff_upper",
    "poly_concentration_scale",
    "ExpectedStats",
    "expected_stats",
]


def _check_tail(expectation: float, deviation: float) -> None:
    _check_number("expectation", expectation)
    _check_number("deviation", deviation)
    if expectation <= 0:
        raise ParameterError("expectation", f"must be positive, got {expectation}")
    if deviation < 0:
        raise ParameterError("deviation", f"must be non-negative, got {deviation}")


def chernoff_lower(expectation: float, deviation: float) -> float:
    """Bound on Pr(X <= E - deviation) for X ~ Bin: exp(-dev^2 / (2E))."""
    _check_tail(expectation, deviation)
    return math.exp(-(deviation * deviation) / (2.0 * expectation))


def chernoff_upper(expectation: float, deviation: float) -> float:
    """Bound on Pr(X >= E + deviation): exp(-dev^2 / (2(E + dev/3)))."""
    _check_tail(expectation, deviation)
    return math.exp(-(deviation * deviation) / (2.0 * (expectation + deviation / 3.0)))


def _ipow(base: float, exponent: int) -> float:
    # repeated multiplication keeps power-of-two rescalings of the base exact
    out = 1.0
    for _ in range(exponent):
        out *= base
    return out


def poly_concentration_scale(k: int) -> float:
    """The degree-k scale constant 8^k * sqrt(k!)."""
    _check_integer("k", k)
    if k < 1:
        raise ParameterError("k", f"must be >= 1, got {k}")
    return _ipow(8.0, k) * math.sqrt(math.factorial(k))


@dataclass(frozen=True)
class ExpectedStats:
    """Closed-form expectations for the random layered graph (part size m, prob p).

    total_cycles: E[t] = m^k p^k (each one-per-part k-tuple closes with p^k).
    cycles_per_vertex: m^(k-1) p^k.
    cycles_per_vertex_prime: m^(k-2) p^(k-1) (the first-derivative maximum).
    extensions_per_path: m p^2 (completions of a fixed (k-1)-path).
    """

    k: int
    m: float
    p: float
    total_cycles: float
    cycles_per_vertex: float
    cycles_per_vertex_prime: float
    extensions_per_path: float


def expected_stats(k: int, m: float, p: float) -> ExpectedStats:
    _check_k(k)
    _check_m(m)
    _check_p(p)
    return ExpectedStats(
        k=k,
        m=m,
        p=p,
        total_cycles=_ipow(m, k) * _ipow(p, k),
        cycles_per_vertex=_ipow(m, k - 1) * _ipow(p, k),
        cycles_per_vertex_prime=_ipow(m, k - 2) * _ipow(p, k - 1),
        extensions_per_path=m * p * p,
    )

