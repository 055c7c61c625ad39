"""Proper cycles, proper paths, and the tight-path hypergraph.

A *proper cycle* of a layered graph visits each part exactly once (one
vertex per part, cyclically adjacent); proper cycles are the hyperedges of
the tight-path hypergraph.  A *proper path* visits at most one vertex per
part, along a consecutive arc of parts.

Canonical encoding: a proper cycle is stored part-indexed, so it has one
representation - a tuple (or an ``(N, k)`` row block) of global vertex ids
whose entry ``i`` lies in part ``i`` - and is ranked by the mixed-radix key
``sum(local_i * m**(k-1-i))`` over parts ``i``.  The codec - ``_radices``,
``encode_keys`` and ``decode_keys`` - is the only code that knows this
format; everything else encodes and decodes through it.  Enumeration emits
keys in ascending order.  Every block-chain count (total, per vertex,
meeting a vertex set) sums ``_closed_walks`` over the float64 blocks from
``_float_blocks``, which first checks that the chain stays exact; both
extension counts go through ``_count_extensions``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ResourceLimitError
from .layered_graph import LayeredGraph

__all__ = [
    "DEFAULT_CYCLE_CAP",
    "ProperPath",
    "TrashFamily",
    "proper_path",
    "trash_family",
    "count_proper_cycles",
    "cycles_per_vertex",
    "cycles_through_vertex",
    "cycle_keys",
    "enumerate_proper_cycles",
    "encode_keys",
    "decode_keys",
    "extend_path",
    "count_family_extensions",
    "count_restricted_extensions",
    "count_cycles_meeting",
    "cycle_subpaths",
    "TightHypergraph",
    "build_hypergraph",
    "validate_tight_path",
    "validate_tight_path_verbose",
]

DEFAULT_CYCLE_CAP = 100_000_000


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ProperPath:
    """A proper path: consecutive vertices adjacent, one part each, arc of parts.

    Orientation is normalized so the first vertex lies in the lower-numbered
    of the two endpoint parts.
    """

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TrashFamily:
    """Pairwise vertex-disjoint proper paths of exactly k-1 vertices each."""

    paths: tuple[ProperPath, ...]

    def __len__(self) -> int:
        return len(self.paths)

    def vertex_set(self) -> set[int]:
        out: set[int] = set()
        for p in self.paths:
            out.update(p.vertices)
        return out


def proper_path(g: LayeredGraph, vertices) -> ProperPath:
    """Validate and normalize a vertex sequence into a ProperPath."""
    seq = [int(v) for v in vertices]
    if not 1 <= len(seq) <= g.k - 1:
        raise InvariantViolationError(
            f"proper path must have 1..{g.k - 1} vertices, got {len(seq)}"
        )
    if len(set(seq)) != len(seq):
        raise InvariantViolationError("proper path has repeated vertices")
    parts = [g.part_of(v) for v in seq]
    if len(set(parts)) != len(parts):
        raise InvariantViolationError("proper path hits a part twice")
    for a, b in zip(seq, seq[1:]):
        if not g.adjacent(a, b):
            raise InvariantViolationError(f"consecutive vertices {a}, {b} not adjacent")
    # adjacency forces consecutive parts to differ by +-1 cyclically; with all
    # parts distinct the walk is monotone, so the part set is an arc.
    if parts[0] > parts[-1]:
        seq.reverse()
    return ProperPath(tuple(seq))


def trash_family(g: LayeredGraph, paths) -> TrashFamily:
    """Validate a family of (k-1)-vertex proper paths for pairwise disjointness."""
    norm: list[ProperPath] = []
    for p in paths:
        pp = p if isinstance(p, ProperPath) else proper_path(g, p)
        if len(pp) != g.k - 1:
            raise InvariantViolationError(
                f"trash paths must have exactly {g.k - 1} vertices, got {len(pp)}"
            )
        norm.append(pp)
    seen: set[int] = set()
    for pp in norm:
        for v in pp.vertices:
            if v in seen:
                raise InvariantViolationError(f"trash paths overlap at vertex {v}")
            seen.add(v)
    return TrashFamily(tuple(norm))


# ---------------------------------------------------------------------------
# exact counting via adjacency-block products
# ---------------------------------------------------------------------------


def _float_blocks(g: LayeredGraph) -> list[np.ndarray]:
    """Fresh float64 copies of the adjacency blocks, once counting is exact."""
    # intermediate chain entries are bounded by m**(k-1); keep them exactly
    # representable in float64, and totals within int64
    if g.m ** (g.k - 1) > 2**52:
        raise ResourceLimitError("exact float64 counting range exceeded", g.m ** (g.k - 1), 2**52)
    if g.m**g.k >= 2**63:
        raise ResourceLimitError("cycle totals exceed int64 range", g.m**g.k, 2**63)
    return [b.astype(np.float64) for b in g.blocks]


def _closed_walks(fb: list[np.ndarray], part: int, rows=slice(None)) -> np.ndarray:
    """Proper cycles through the local vertices ``rows`` of ``part``: the closing
    diagonal of the block chain rotated to start at ``part`` (closed walks
    part -> part+1 -> ... -> part), as int64."""
    k = len(fb)
    prefix = fb[part][rows]
    for j in range(1, k - 1):
        prefix = prefix @ fb[(part + j) % k]
    return np.einsum("ab,ba->a", prefix, fb[(part - 1) % k][:, rows]).astype(np.int64)


def count_proper_cycles(g: LayeredGraph) -> int:
    """Total number of proper cycles (no materialization)."""
    return int(_closed_walks(_float_blocks(g), 0).sum())


def cycles_per_vertex(g: LayeredGraph) -> np.ndarray:
    """Proper-cycle count through every vertex, as an int64 array of length k*m."""
    fb = _float_blocks(g)
    return np.concatenate([_closed_walks(fb, part) for part in range(g.k)])


def cycles_through_vertex(g: LayeredGraph, v: int) -> int:
    """Number of proper cycles containing vertex v."""
    g._check_vertex(int(v))
    part, local = g.part_of(int(v)), g.local(int(v))
    return int(_closed_walks(_float_blocks(g), part, [local])[0])


def count_cycles_meeting(g: LayeredGraph, cset) -> int:
    """Number of proper cycles intersecting the vertex set ``cset``."""
    verts = sorted({int(v) for v in cset})
    for v in verts:
        g._check_vertex(v)
    if not verts:
        return 0
    total = count_proper_cycles(g)
    # cycles avoiding cset: the chain with cset's rows and columns zeroed
    gone = np.isin(np.arange(g.num_vertices), verts).reshape(g.k, g.m)
    fb = _float_blocks(g)
    for i, b in enumerate(fb):
        b[gone[i]] = 0.0
        b[:, gone[(i + 1) % g.k]] = 0.0
    return total - int(_closed_walks(fb, 0).sum())


# ---------------------------------------------------------------------------
# enumeration (canonical ascending keys)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _radices(k: int, m: int) -> np.ndarray:
    """Per-part key radices ``m**(k-1-i)``; read-only, computed once per (k, m)."""
    if m**k >= 2**64:
        raise ResourceLimitError("canonical key space exceeds 64 bits", m**k, 2**64)
    radix = np.array([m ** (k - 1 - i) for i in range(k)], dtype=np.uint64)
    radix.setflags(write=False)
    return radix


def encode_keys(cols, m: int):
    """Canonical keys from k columns of part-local indices (column i: part i).

    Columns broadcast against each other, so a scalar column fixes that
    part's index for every key; all-scalar columns give one key.
    """
    radix = _radices(len(cols), m)
    return sum(np.asarray(c, dtype=np.uint64) * r for c, r in zip(cols, radix))


def cycle_keys(g: LayeredGraph, cap: int = DEFAULT_CYCLE_CAP) -> np.ndarray:
    """All proper cycles as ascending canonical keys (uint64).

    Counts first via matrix products and raises ``ResourceLimitError`` when
    the total exceeds ``cap``, so runaway parameters fail fast.
    """
    total = count_proper_cycles(g)
    if total > cap:
        raise ResourceLimitError("proper cycle count exceeds cap", total, cap)
    k, m = g.k, g.m
    csrs = [g.csr(part) for part in range(k - 1)]
    close = g.blocks[k - 1]
    chunks: list[np.ndarray] = []
    for a in range(m):
        cols: list[np.ndarray] = [np.array([a], dtype=np.int64)]
        ends = cols[0]
        for level in range(1, k):
            ptr, idx = csrs[level - 1]
            starts = ptr[ends]
            cnt = ptr[ends + 1] - starts
            n_new = int(cnt.sum())
            if n_new == 0:
                ends = np.empty(0, dtype=np.int64)
                break
            rep = np.repeat(np.arange(ends.size), cnt)
            excl = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            pos = np.arange(n_new, dtype=np.int64) + np.repeat(starts - excl, cnt)
            new_ends = idx[pos].astype(np.int64)
            cols = [c[rep] for c in cols]
            cols.append(new_ends)
            ends = new_ends
        if ends.size == 0:
            continue
        keep = close[ends, a]
        if not keep.any():
            continue
        chunks.append(encode_keys([c[keep] for c in cols], m))
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    out = np.concatenate(chunks)
    assert out.size == total
    return out


def decode_keys(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """Decode canonical keys into (len, k) int64 part-local indices."""
    radix = _radices(k, m)
    out = np.empty((keys.size, k), dtype=np.int64)
    rem = keys.astype(np.uint64)
    for i in range(k):
        out[:, i], rem = np.divmod(rem, radix[i])
    return out


def enumerate_proper_cycles(
    g: LayeredGraph, cap: int = DEFAULT_CYCLE_CAP
) -> list[tuple[int, ...]]:
    """Every proper cycle exactly once, in canonical (ascending key) order."""
    return build_hypergraph(g, cap).hyperedges()


# ---------------------------------------------------------------------------
# path extensions
# ---------------------------------------------------------------------------


def _extensions(
    g: LayeredGraph, vertices, allowed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Completions of a (k-1)-vertex proper path into proper cycles.

    Returns the completing vertices (ascending global ids) and the canonical
    keys of the cycles they close.  A completing vertex lies in the one part
    q the path misses and is adjacent to the path's vertices in parts q-1
    and q+1; with ``allowed`` (a bool mask over all vertices) it must also
    be allowed.
    """
    k, m = g.k, g.m
    locs = {v // m: v % m for v in vertices}
    (q,) = set(range(k)) - locs.keys()
    mask = g.blocks[(q - 1) % k][locs[(q - 1) % k]] & g.blocks[q][:, locs[(q + 1) % k]]
    if allowed is not None:
        mask &= allowed[q * m : (q + 1) * m]
    locs[q] = mask.nonzero()[0]
    return locs[q] + q * m, encode_keys([locs[i] for i in range(k)], m)


def extend_path(g: LayeredGraph, path: ProperPath) -> np.ndarray:
    """Global ids of vertices completing a (k-1)-vertex proper path into a cycle.

    The completing vertex lies in the one part the path misses and must be
    adjacent to both path endpoints; each returned vertex closes a distinct
    proper cycle.
    """
    if len(path) != g.k - 1:
        raise InvariantViolationError(
            f"extend_path needs a path of exactly {g.k - 1} vertices, got {len(path)}"
        )
    return _extensions(g, path.vertices)[0]


def _count_extensions(g: LayeredGraph, fam: TrashFamily, allowed=None) -> int:
    """Distinct proper cycles extending some family path (by an allowed vertex)."""
    keys = [_extensions(g, p.vertices, allowed)[1] for p in fam.paths]
    return int(np.unique(np.concatenate(keys)).size) if keys else 0


def count_family_extensions(g: LayeredGraph, fam: TrashFamily) -> int:
    """Number of distinct proper cycles extending at least one family path."""
    return _count_extensions(g, fam)


def count_restricted_extensions(g: LayeredGraph, aset, fam: TrashFamily) -> int:
    """Distinct cycles extending a family path by a vertex from aset or the family."""
    allowed = np.zeros(g.num_vertices, dtype=bool)
    for v in {int(v) for v in aset} | fam.vertex_set():
        g._check_vertex(v)
        allowed[v] = True
    return _count_extensions(g, fam, allowed)


def cycle_subpaths(g: LayeredGraph, cycle: tuple[int, ...]) -> list[ProperPath]:
    """The k proper (k-1)-paths a part-indexed proper cycle extends (one per dropped part)."""
    k = g.k
    out = []
    for q in range(k):
        seq = [cycle[(q + 1 + j) % k] for j in range(k - 1)]
        out.append(proper_path(g, seq))
    return out


# ---------------------------------------------------------------------------
# tight-path hypergraph
# ---------------------------------------------------------------------------


class TightHypergraph:
    """The k-uniform hypergraph whose hyperedges are proper cycles of a graph.

    Hyperedges are held as the ascending canonical key array; ids are ranks
    in that order.  Membership tests and extension lookups run directly on
    the key array, so the structure stays usable at tens of millions of
    hyperedges.
    """

    def __init__(self, graph: LayeredGraph, keys: np.ndarray):
        self.graph = graph
        self.keys = np.asarray(keys, dtype=np.uint64)
        if self.keys.size > 1 and not (self.keys[1:] > self.keys[:-1]).all():
            raise InvariantViolationError("hyperedge keys must be strictly ascending")
        self.keys.setflags(write=False)

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def vertex_rows(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Hyperedges lo..hi-1 as an (N, k) int64 block of part-indexed global ids."""
        g = self.graph
        return decode_keys(self.keys[lo:hi], g.k, g.m) + np.arange(g.k, dtype=np.int64) * g.m

    def hyperedge(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < len(self):
            raise IndexError(f"hyperedge id {idx} out of range [0, {len(self)})")
        return tuple(self.vertex_rows(idx, idx + 1)[0].tolist())

    def hyperedges(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.vertex_rows().tolist()]

    def key_of(self, vertices) -> int:
        """Canonical key of a one-per-part vertex set (any order)."""
        g = self.graph
        locs = [-1] * g.k
        for v in vertices:
            p = g.part_of(int(v))
            if locs[p] != -1:
                raise InvariantViolationError("vertex set hits a part twice")
            locs[p] = g.local(int(v))
        if -1 in locs:
            raise InvariantViolationError("vertex set misses a part")
        return int(encode_keys(locs, g.m))

    def edge_id(self, vertices) -> int:
        """Id of the hyperedge with this vertex set, or -1 if absent."""
        key = np.uint64(self.key_of(vertices))
        pos = int(np.searchsorted(self.keys, key))
        if pos < len(self) and self.keys[pos] == key:
            return pos
        return -1

    def ids_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Ids for canonical keys; -1 where the key is not a hyperedge."""
        keys = np.asarray(keys, dtype=np.uint64)
        if len(self) == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.keys, keys)
        ok = self.keys[np.minimum(pos, len(self) - 1)] == keys
        return np.where(ok, pos, -1).astype(np.int64)

    def extension_ids(self, path: ProperPath) -> np.ndarray:
        """Ids of hyperedges extending a (k-1)-path (the on-demand path index)."""
        keys = _extensions(self.graph, path.vertices)[1]
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        ids = self.ids_for_keys(keys)
        return ids[ids >= 0]

    def to_json(self) -> dict:
        return {"vertices": self.num_vertices, "edges": self.vertex_rows().tolist()}

    @classmethod
    def from_cycles(cls, graph: LayeredGraph, cycles) -> "TightHypergraph":
        """Hand-built hypergraph from explicit part-indexed proper cycles (validated)."""
        keys = []
        for verts in cycles:
            for i, v in enumerate(verts):
                if graph.part_of(int(v)) != i:
                    raise InvariantViolationError(
                        "cycle vertices must be part-indexed (vertices[i] in part i)"
                    )
            for i in range(graph.k):
                if not graph.adjacent(int(verts[i]), int(verts[(i + 1) % graph.k])):
                    raise InvariantViolationError(
                        f"cycle {verts} misses adjacency at part {i}"
                    )
            keys.append(int(encode_keys([graph.local(int(v)) for v in verts], graph.m)))
        arr = np.array(sorted(keys), dtype=np.uint64)
        if arr.size != np.unique(arr).size:
            raise InvariantViolationError("duplicate cycles")
        return cls(graph, arr)


def build_hypergraph(g: LayeredGraph, cap: int = DEFAULT_CYCLE_CAP) -> TightHypergraph:
    """Enumerate all proper cycles of g into a TightHypergraph."""
    return TightHypergraph(g, cycle_keys(g, cap))


# ---------------------------------------------------------------------------
# tight-path validation
# ---------------------------------------------------------------------------


def validate_tight_path_verbose(
    h: TightHypergraph, seq, coloring=None, color: int | None = None, deleted=None
) -> tuple[bool, str | None]:
    """Check a vertex sequence is a tight path of h; returns (ok, reason).

    Reasons: too-short, unknown-vertex, repeated-vertex, window-not-one-per-part,
    window-not-hyperedge, window-wrong-color, deleted-window (a window whose
    hyperedge is set in the ``deleted`` mask over hyperedge ids).
    """
    g = h.graph
    seq = [int(v) for v in seq]
    if len(seq) < g.k:
        return False, "too-short"
    for v in seq:
        if not 0 <= v < g.num_vertices:
            return False, "unknown-vertex"
    if len(set(seq)) != len(seq):
        return False, "repeated-vertex"
    for start in range(len(seq) - g.k + 1):
        window = seq[start : start + g.k]
        parts = {g.part_of(v) for v in window}
        if len(parts) != g.k:
            return False, "window-not-one-per-part"
        eid = h.edge_id(window)
        if eid < 0:
            return False, "window-not-hyperedge"
        if coloring is not None and int(coloring.colors[eid]) != int(color):
            return False, "window-wrong-color"
        if deleted is not None and deleted[eid]:
            return False, "deleted-window"
    return True, None


def validate_tight_path(
    h: TightHypergraph, seq, coloring=None, color: int | None = None
) -> bool:
    """True iff seq is a tight path of h (optionally monochromatic in color)."""
    ok, _ = validate_tight_path_verbose(h, seq, coloring, color)
    return ok
