"""Layered (cyclically k-partite) graphs.

A layered graph has k parts of m vertices each and edges only between
cyclically consecutive parts.  Vertex ids are global 0-based integers:
part ``i`` (0-based) occupies ids ``[i*m, (i+1)*m)``, so ``part_of`` and
local offsets are O(1) arithmetic.

Adjacency is stored as one dense boolean block per consecutive part pair:
``blocks[i][a, b]`` is True iff local vertex ``a`` of part ``i`` is joined
to local vertex ``b`` of part ``(i+1) % k``.  The blocks are the only
adjacency form: counting, enumeration and path extension all read their
rows and columns directly.

Random generation draws one uniform per candidate pair from a Philox
stream keyed by the seed, consuming draws in (part, row, column) ascending
order, so equal seeds give bit-identical graphs independent of platform.
Both constructors from outside input (random generation and edge lists)
refuse, before allocating, a graph whose arrays would not fit in the
machine's physical memory.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError, UnknownVertexError
from .reporting import _write_rows
from .seeds import make_rng

__all__ = [
    "GraphParams",
    "CanonicalParams",
    "canonical_params",
    "LayeredGraph",
    "generate_random",
    "complete_layered",
]


# -- parameter domains: each rule is stated once, and raised under the config key


def _check_integer(key: str, v) -> None:
    """Refuse, under ``key``, a value that is not a Python or numpy integer."""
    if not _is_integer(v):
        raise ParameterError(key, f"must be an integer, got {v!r}")


def _check_k(k: int) -> None:
    _check_integer("k", k)
    if k < 3:
        raise ParameterError("k", f"must be >= 3, got {k}")


def _check_m(m: int) -> None:
    _check_integer("m", m)
    if m < 1:
        raise ParameterError("m", f"must be >= 1, got {m}")


def _check_number(key: str, v) -> None:
    """Refuse, under ``key``, a value that is not a finite Python or numpy real;
    a bool is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ParameterError(key, f"must be a number, got {v!r}")
    # NaN and +-inf are not finite; nor is a Python int beyond float range
    if not (abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v)):
        raise ParameterError(key, f"must be finite, got {v!r}")


def _check_p(p: float) -> None:
    _check_number("p", p)
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p", f"must lie in [0, 1], got {p}")


def _check_r(r: int) -> None:
    """Colors are stored as uint8, so a coloring has 2..256 colors."""
    _check_integer("r", r)
    if not 2 <= r <= 256:
        raise ParameterError("r", f"must lie in 2..256, got {r}")


def _check_color(color: int, r: int) -> None:
    """Refuse a working color that is not one of r colors."""
    _check_integer("color", color)
    if not 0 <= color < r:
        raise ParameterError("color", f"must be in 0..{r - 1}, got {color}")


def _check_n(n: int, k: int) -> None:
    _check_integer("n", n)
    if n < k:
        raise ParameterError("n", f"must be >= k = {k}, got {n}")


def _check_seed(seed: int) -> None:
    """Seeds key a ``SeedSequence``, so a seed is an integer in [0, 2**64)."""
    if not (_is_integer(seed) and 0 <= int(seed) < 2**64):
        raise ParameterError("seed", f"must be a 64-bit unsigned integer, got {seed!r}")


@dataclass(frozen=True)
class GraphParams:
    """Parameters of the random layered-graph model."""

    k: int
    part_size: int
    edge_prob: float
    seed: int

    def __post_init__(self):
        _check_k(self.k)
        _check_m(self.part_size)
        _check_p(self.edge_prob)
        _check_seed(self.seed)


@dataclass(frozen=True)
class CanonicalParams:
    """Canonical host parameterization for target path length n and r colors.

    Fixes the density multiplier c = 16*k^2*r and edge probability
    p = sqrt(ln n / n); parts then have c*n vertices each.  This is a
    convenience constructor: part_size and p may be overridden freely
    when building desk-scale instances.
    """

    k: int
    r: int
    n: int

    @property
    def c(self) -> int:
        return 16 * self.k * self.k * self.r

    @property
    def p(self) -> float:
        return math.sqrt(math.log(self.n) / self.n)

    @property
    def part_size(self) -> int:
        return self.c * self.n


def canonical_params(k: int, r: int, n: int) -> CanonicalParams:
    """Validated canonical parameterization (k >= 3, 2 <= r <= 256, n >= k)."""
    _check_k(k)
    _check_r(r)
    _check_n(n, k)
    return CanonicalParams(k=k, r=r, n=n)


class LayeredGraph:
    """Immutable k-partite graph with edges between consecutive parts only."""

    def __init__(self, k: int, part_size: int, blocks: list[np.ndarray]):
        _check_k(k)
        _check_m(part_size)
        if len(blocks) != k:
            raise ParameterError("blocks", f"expected {k} adjacency blocks, got {len(blocks)}")
        m = part_size
        for i, b in enumerate(blocks):
            if b.shape != (m, m) or b.dtype != np.bool_:
                raise ParameterError("blocks", f"block {i} must be a ({m}, {m}) boolean array")
        self.k = k
        self.m = m
        self.blocks = [np.ascontiguousarray(b) for b in blocks]
        for b in self.blocks:
            b.setflags(write=False)

    # -- basic structure ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.k * self.m

    def part_of(self, v: int) -> int:
        self._check_vertex(v)
        return v // self.m

    def local(self, v: int) -> int:
        return v % self.m

    def vertex(self, part: int, local: int) -> int:
        return part * self.m + local

    def edge_count(self) -> int:
        return int(sum(int(b.sum()) for b in self.blocks))

    def adjacent(self, u: int, v: int) -> bool:
        """True iff uv is an edge (both directions checked, parts validated)."""
        pu, pv = self.part_of(u), self.part_of(v)
        if (pv - pu) % self.k == 1:
            return bool(self.blocks[pu][u % self.m, v % self.m])
        if (pu - pv) % self.k == 1:
            return bool(self.blocks[pv][v % self.m, u % self.m])
        return False

    def _check_vertex(self, v: int) -> None:
        """Refuse an id that is not a Python or numpy integer in [0, k*m)."""
        if not _is_integer(v):
            raise UnknownVertexError("v", f"vertex id {v!r} is not an integer")
        if not 0 <= v < self.k * self.m:
            raise UnknownVertexError("v", f"vertex {v} not in graph with {self.k * self.m} vertices")

    # -- serialization -------------------------------------------------------

    def _edge_array(self) -> np.ndarray:
        """All edges as an (E, 2) int64 array of global pairs [u, v] with u < v,
        sorted lexicographically."""
        pairs = []
        for i, b in enumerate(self.blocks):
            rows, cols = np.nonzero(b)
            u = rows.astype(np.int64) + i * self.m
            v = cols.astype(np.int64) + ((i + 1) % self.k) * self.m
            pairs.append(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1))
        allp = np.concatenate(pairs)
        return allp[np.lexsort((allp[:, 1], allp[:, 0]))]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) global pairs with u < v, sorted lexicographically."""
        return [tuple(e) for e in self._edge_array().tolist()]

    @classmethod
    def from_edges(cls, k: int, m: int, edges) -> "LayeredGraph":
        _check_k(k)
        _check_m(m)
        _check_fits_in_memory("graph arrays", k * m * m)
        blocks = [np.zeros((m, m), dtype=bool) for _ in range(k)]
        n = k * m
        for u, v in edges:
            if not (_is_integer(u) and _is_integer(v)):
                raise ParameterError("edges", f"edge ({u!r}, {v!r}) has a non-integer endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError("edges", f"edge ({u}, {v}) out of vertex range [0, {n})")
            pu, pv = u // m, v // m
            if (pv - pu) % k == 1:
                blocks[pu][u % m, v % m] = True
            elif (pu - pv) % k == 1:
                blocks[pv][v % m, u % m] = True
            else:
                raise ParameterError(
                    "edges", f"edge ({u}, {v}) joins non-consecutive parts {pu} and {pv}"
                )
        return cls(k, m, blocks)

    @classmethod
    def from_json(cls, doc: dict) -> "LayeredGraph":
        for key in ("k", "m"):
            if type(doc[key]) is not int:
                raise ParameterError(key, f"must be an integer, got {doc[key]!r}")
        return cls.from_edges(doc["k"], doc["m"], doc["edges"])

    def save(self, path) -> None:
        """Write ``{"k": k, "m": m, "edges": [[u, v], ...]}`` through ``_write_rows``."""
        edges = self._edge_array()
        head = {"k": self.k, "m": self.m}
        _write_rows(path, head, "edges", lambda lo, hi: edges[lo:hi], len(edges))

    @classmethod
    def load(cls, path) -> "LayeredGraph":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayeredGraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.m == other.m
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def __repr__(self) -> str:
        return f"LayeredGraph(k={self.k}, m={self.m}, edges={self.edge_count()})"


def _is_integer(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; a bool is not one."""
    return not isinstance(v, bool) and isinstance(v, (int, np.integer))


def _check_fits_in_memory(what: str, required: int) -> None:
    """Raise ResourceLimitError when ``required`` bytes of ``what`` exceed physical memory."""
    cap = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if required > cap:
        raise ResourceLimitError(f"{what} need more bytes than physical memory", required, cap)


def generate_random(params: GraphParams) -> LayeredGraph:
    """Sample the random layered graph defined by ``params``.

    Each of the k*m^2 consecutive-part pairs is an edge independently with
    probability ``edge_prob``.  Candidate pair (i, u, w) consumes the
    ((i*m + u)*m + w)-th uniform draw of the Philox stream for the seed.
    """
    k, m, p = params.k, params.part_size, params.edge_prob
    # the float64 draws and the boolean blocks are alive together
    _check_fits_in_memory("graph arrays", 9 * k * m * m)
    rng = make_rng(int(params.seed))
    draws = rng.random((k, m, m))
    blocks = [draws[i] < p for i in range(k)]
    return LayeredGraph(k, m, blocks)


def complete_layered(k: int, m: int) -> LayeredGraph:
    """Deterministic reference graph with all k*m^2 consecutive-part edges."""
    _check_k(k)
    _check_m(m)
    return LayeredGraph(k, m, [np.ones((m, m), dtype=bool) for _ in range(k)])
