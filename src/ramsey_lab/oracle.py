"""Brute-force reference implementations for tiny instances.

These deliberately take the dumbest correct route - filter all one-per-part
tuples, DFS over all vertex sequences, enumerate all colorings - so the
optimized enumeration and the greedy builder have something independent to
be checked against.  Searches are capped and report an explicit unknown
verdict when a cap is hit, never a silent false.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product

import numpy as np

from .cycles import TightHypergraph, _check_coloring
from .errors import ResourceLimitError
from .greedy import Coloring
from .layered_graph import LayeredGraph, _check_n, _check_r

__all__ = [
    "BRUTE_TUPLE_CAP",
    "SEARCH_STATE_CAP",
    "ARROW_COLORING_CAP",
    "Verdict",
    "SearchResult",
    "ArrowResult",
    "brute_force_cycle_keys",
    "brute_force_cycles",
    "tight_path_exists",
    "arrow_check",
]

BRUTE_TUPLE_CAP = 10_000_000
SEARCH_STATE_CAP = 1_000_000
ARROW_COLORING_CAP = 10_000_000


class Verdict(Enum):
    FOUND = "found"
    ABSENT = "absent"
    UNKNOWN = "unknown"


@dataclass
class SearchResult:
    verdict: Verdict
    witness: list[int] | None
    expanded: int

    def __bool__(self) -> bool:
        return self.verdict is Verdict.FOUND


@dataclass
class ArrowResult:
    verdict: bool | None  # None when a search cap was hit
    counterexample: list[int] | None
    colorings_checked: int


def brute_force_cycle_keys(g: LayeredGraph, cap: int = BRUTE_TUPLE_CAP) -> np.ndarray:
    """Canonical keys of all proper cycles by filtering every one-per-part tuple."""
    k, m = g.k, g.m
    if m**k > cap:
        raise ResourceLimitError("tuple space exceeds brute-force cap", m**k, cap)
    tails = np.indices((m,) * (k - 1)).reshape(k - 1, -1)
    mid_ok = np.ones(tails.shape[1], dtype=bool)
    for i in range(1, k - 1):
        mid_ok &= g.blocks[i][tails[i - 1], tails[i]]
    radix = np.array([m ** (k - 1 - i) for i in range(k)], dtype=np.uint64)
    tail_key = np.zeros(tails.shape[1], dtype=np.uint64)
    for i in range(k - 1):
        tail_key += tails[i].astype(np.uint64) * radix[i + 1]
    out = []
    for a in range(m):
        ok = mid_ok & g.blocks[0][a, tails[0]] & g.blocks[k - 1][tails[k - 2], a]
        if ok.any():
            out.append(np.uint64(a) * radix[0] + tail_key[ok])
    if not out:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(out)


def brute_force_cycles(g: LayeredGraph, cap: int = BRUTE_TUPLE_CAP) -> list[tuple[int, ...]]:
    """All proper cycles, part-indexed, in canonical order, via the all-tuples filter."""
    keys = brute_force_cycle_keys(g, cap).astype(np.int64)
    locs = np.stack(np.unravel_index(keys, (g.m,) * g.k), axis=1)
    return [tuple(row) for row in (locs + np.arange(g.k) * g.m).tolist()]


def _colored_edges(
    h: TightHypergraph, coloring=None, color: int | None = None
) -> list[frozenset[int]]:
    sets = []
    colors = None if coloring is None else coloring[:]
    for i in range(len(h)):
        if colors is not None and int(colors[i]) != int(color):
            continue
        sets.append(frozenset(h.hyperedge(i)))
    return sets


def tight_path_exists(
    h: TightHypergraph,
    n: int,
    coloring=None,
    color: int | None = None,
    cap: int = SEARCH_STATE_CAP,
) -> SearchResult:
    """Exhaustive DFS for a tight path on n vertices within one color class.

    Every window of k consecutive sequence vertices must be a hyperedge of
    the selected color class (all hyperedges when no coloring is given).
    Returns FOUND with a witness, ABSENT, or UNKNOWN once ``cap`` states
    have been expanded.
    """
    g = h.graph
    _check_n(n, g.k)
    if coloring is not None:
        _check_coloring(h, coloring, color)
    edges = _colored_edges(h, coloring, color)
    completions: dict[frozenset[int], list[int]] = {}
    for es in edges:
        for v in es:
            completions.setdefault(es - {v}, []).append(v)
    for cand in completions.values():
        cand.sort()
    expanded = 0
    k = g.k

    def dfs(seq: list[int], used: set[int]) -> list[int] | None:
        nonlocal expanded
        if len(seq) >= n:
            return seq
        expanded += 1
        if expanded > cap:
            raise _CapHit()
        window = frozenset(seq[-(k - 1) :])
        for u in completions.get(window, ()):
            if u not in used:
                seq.append(u)
                used.add(u)
                hit = dfs(seq, used)
                if hit is not None:
                    return hit
                used.remove(u)
                seq.pop()
        return None

    try:
        for es in sorted(edges, key=sorted):
            for order in permutations(sorted(es)):
                expanded += 1
                if expanded > cap:
                    raise _CapHit()
                hit = dfs(list(order), set(order))
                if hit is not None:
                    return SearchResult(Verdict.FOUND, hit, expanded)
    except _CapHit:
        return SearchResult(Verdict.UNKNOWN, None, expanded)
    return SearchResult(Verdict.ABSENT, None, expanded)


class _CapHit(Exception):
    pass


def arrow_check(
    h: TightHypergraph,
    n: int,
    r: int,
    coloring_cap: int = ARROW_COLORING_CAP,
    search_cap: int = SEARCH_STATE_CAP,
) -> ArrowResult:
    """Exhaustively test whether every r-coloring of h yields a monochromatic
    tight path on n vertices.

    The first hyperedge's color is fixed to 0 (color-class symmetry), cutting
    the enumeration by a factor of r; the reported counterexample is the
    lexicographically least under that normalization.  Verdict None means a
    path search hit its cap.  ``ResourceLimitError`` when the r**len(h)
    colorings exceed ``coloring_cap``; it requires len(h) hyperedges against
    a cap of the most hyperedges whose colorings are within ``coloring_cap``.
    """
    _check_n(n, h.graph.k)
    _check_r(r)
    edge_count = len(h)
    # in hyperedges, since r**edge_count may run to thousands of digits
    fits = 0
    while r ** (fits + 1) <= coloring_cap:
        fits += 1
    if edge_count > fits:
        raise ResourceLimitError(f"coloring space of {r}**hyperedges exceeds cap", edge_count, fits)
    if edge_count == 0:
        return ArrowResult(False, [], 1)
    checked = 0
    for rest in product(range(r), repeat=edge_count - 1):
        colors = np.array((0,) + rest, dtype=np.uint8)
        col = Coloring(r, colors)
        checked += 1
        mono = False
        for c in range(r):
            res = tight_path_exists(h, n, col, c, cap=search_cap)
            if res.verdict is Verdict.UNKNOWN:
                return ArrowResult(None, None, checked)
            if res.verdict is Verdict.FOUND:
                mono = True
                break
        if not mono:
            return ArrowResult(False, [int(c) for c in colors], checked)
    return ArrowResult(True, None, checked)
