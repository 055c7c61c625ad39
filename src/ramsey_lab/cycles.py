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
format; everything else encodes and decodes through it, but for one fact,
by which the store is built and read: a key is the key of its first k-1
digits (encoded with k-1 columns) times m plus its last digit.  Keys are
uint64 everywhere, in the codec and in both store layouts; a key space
beyond 64 bits is refused.

``build_hypergraph`` fills one ``TightHypergraph`` with exactly the counted
total of keys, in the layout of fewer bytes (see ``_store_layout``).  A
hyperedge is a (k-1)-vertex *prefix path* through parts 0..k-2, closed by a
part-(k-1) vertex adjacent to both of its ends, so its key is the prefix
path's key times m plus that closer.  The *flat* layout holds every key
whole (a sparse host keeps this one).  The *rows* layout holds the ascending
keys of every prefix path plus an int64 offset per row, and reads a row's
closers from the adjacency blocks, through ``_completion_mask``, when it is
asked for them: a dense host, with many closers per prefix path, keeps this
one (instance D: 484,455 rows in 7.75 MB, against 526 MB of whole keys).
Ids are ranks in key order in both.  One loop, on the caller's thread,
fills either layout a part-0 start vertex at a time: it enumerates and
encodes the start's prefix paths once, and checks them and the start's
cycles against their own counts.  A rows store keeps the paths, with closer
counts from products of the last two blocks, one block of starts at a
time; a flat store keys each path with its closers, trying only the
vertices that close back to the start.
Every block-chain count (total, per vertex, meeting vertex sets, and the
per-start counts of ``build_hypergraph``) sums ``_closed_walks`` over the
graph's own blocks, as Python ints.  No call copies a whole block to
float.  One rule of m, ``_tile``, sizes every chain: passes of at most a
tile of rows, each block cast one column panel of half a tile at a time,
just before that panel's product, and the rows build's closer counts for
half a pass of starts at a time.  Float32 holds the chain's integers
exactly below 2**24; when one of its computed entries reaches 2**24, the
kernel redoes that step in float64 from its exact float32 prefix, and the
rest of that call runs in float64.  It refuses the chain only when an
entry reaches 2**53, where float64 stops being exact.
``_meeting_counts`` counts any number of vertex sets in one chain per
part, over the sets' own rows only, counting each cycle at the first part
where it meets its set: each row of a later part's chain skips its own
set's vertices in earlier parts.  Every owner's vertex set, a meeting set
or ``_family_counts``' allowed closers below, is stacked by ``_set_keys``
as ascending keys ``owner * num_vertices + vertex``, a chain's skip too;
``_owner_mask`` reads a part of them as a bool mask, a row per owner.

A (k-1)-vertex proper path is a row of a ``TrashFamily``: an ``(N, k-1)``
int64 array that only ``trash_family`` builds, after checking every row and
that the rows are pairwise vertex-disjoint.  A row runs along its arc of
parts and starts in the lower-numbered of its two endpoint parts.  One
closer mask, ``_completion_mask``, is the one AND of two blocks: the part-q
vertices adjacent to given ends in parts q-1 and q+1.  A path's extensions
(the greedy's step) and a rows store's closers (q = k-1) call it directly.
Families read it through ``_family_masks``: it walks a stack of rows (one
family's, or many families' stacked) grouped by the part q they miss,
``_ROW_BLOCK`` rows at a time, and yields one mask block each.  Two
readers consume it.  ``_family_counts`` sums the blocks per family, with
and without that family's allowed vertices, with no keys encoded (two
(k-1)-subsets of one k-set share k-2 >= 1 vertices, so no cycle extends two
paths of a disjoint family): it is behind both public extension counts and
``verifier.restricted_check``, which checks property (i) on every round of
a certificate or every trial of a sampled check in one pass.
``TightHypergraph.family_ids`` encodes their hits, from the part-local
digits ``_family_masks`` yields with each block, and resolves them in one
``ids_for_keys`` call, so a greedy restart deletes a round's extensions in
one pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolationError,
    ParameterError,
    ResourceLimitError,
    UnknownVertexError,
)
from .layered_graph import LayeredGraph, _check_color, _check_fits_in_memory
from .reporting import _write_rows

__all__ = [
    "TrashFamily",
    "trash_family",
    "count_proper_cycles",
    "cycles_per_vertex",
    "cycles_through_vertex",
    "encode_keys",
    "decode_keys",
    "count_family_extensions",
    "count_restricted_extensions",
    "count_cycles_meeting",
    "TightHypergraph",
    "build_hypergraph",
    "validate_tight_path",
    "validate_tight_path_verbose",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrashFamily:
    """Pairwise vertex-disjoint proper paths of exactly k-1 vertices each.

    ``rows`` is a read-only ``(N, k-1)`` int64 array, one path per row; only
    ``trash_family`` builds it.
    """

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


def trash_family(g: LayeredGraph, paths) -> TrashFamily:
    """Validate and orient a family of pairwise-disjoint (k-1)-vertex proper paths.

    Each path must have k-1 distinct vertices in distinct parts, consecutive
    ones adjacent; it is stored starting in the lower-numbered of its two
    endpoint parts.
    """
    rows: list[list[int]] = []
    seen: set[int] = set()
    for p in paths:
        seq = list(p)
        if len(seq) != g.k - 1:
            raise InvariantViolationError(
                f"trash paths must have exactly {g.k - 1} vertices, got {len(seq)}"
            )
        parts = [g.part_of(v) for v in seq]  # refuses non-integer ids before the cast
        seq = [int(v) for v in seq]
        if len(set(seq)) != len(seq):
            raise InvariantViolationError("proper path has repeated vertices")
        if len(set(parts)) != len(parts):
            raise InvariantViolationError("proper path hits a part twice")
        for a, b in zip(seq, seq[1:]):
            if not g.adjacent(a, b):
                raise InvariantViolationError(f"consecutive vertices {a}, {b} not adjacent")
        # adjacency forces consecutive parts to differ by +-1 cyclically; with all
        # parts distinct the walk is monotone, so the part set is an arc.
        if parts[0] > parts[-1]:
            seq.reverse()
        for v in seq:
            if v in seen:
                raise InvariantViolationError(f"trash paths overlap at vertex {v}")
            seen.add(v)
        rows.append(seq)
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), g.k - 1)
    arr.setflags(write=False)
    return TrashFamily(arr)


# ---------------------------------------------------------------------------
# exact counting via adjacency-block products
# ---------------------------------------------------------------------------

# rows per pass of the block chain, the enumeration and the family loops,
# bounding each of their blocks at _ROW_BLOCK x m entries
_ROW_BLOCK = 512

# the integers a float dtype holds exactly: those below 2**(mantissa bits + 1)
_EXACT_BELOW = {np.dtype(np.float32): 2**24, np.dtype(np.float64): 2**53}


def _evened(size: int, most: int) -> int:
    """The length of the fewest runs of at most ``most`` that cover
    ``size``, evened out: as many runs as with runs of ``most``, each a
    chain pass or panel that costs as much to set up whatever its length,
    but the longest, which sets the peak memory, is as short as they allow
    (runs of 400 rows, not 512, 512 and 176, over D's m = 1200)."""
    runs = max(1, -(-size // most))
    return max(1, -(-size // runs))


def _tile(m: int) -> int:
    """The most rows a chain pass over m x m blocks takes, from which every
    chain size derives: a ``_ROW_BLOCK`` or half the block, whichever is
    less, so no prefix holds a block's worth of floats; but toward a quarter
    of the block while a prefix holds at most ``_ROW_BLOCK**3 / 8`` entries
    (64 MiB of float32), as each panel product packs the prefix again.  That
    term binds only for 4 row blocks < m < ``_ROW_BLOCK**2 / 8``: at the
    canonical m = 8640 passes take 1728 rows, not 509."""
    return max(min(_ROW_BLOCK, m // 2), min(m // 4, _ROW_BLOCK**3 // (8 * m)), 1)


def _panel_width(m: int) -> int:
    """Columns per cast panel of an m x m block that a chain multiplies
    through: half a ``_tile``, but at least half a ``_ROW_BLOCK`` or half
    the block, whichever is less.  On instance D (m = 1200, two cores)
    quarter-row-block panels saved about 1 MB of peak RSS in ``verify
    --property ii`` but made each count 10-15% slower."""
    return _evened(m, max(_tile(m) // 2, min(_ROW_BLOCK, m) // 2, 1))


def _chain_bytes(dtype, k: int, rows: int, m: int) -> int:
    """The working set of a chain over ``rows`` rows a pass in ``dtype``:
    the prefix and, from k = 4, the next prefix (``rows`` x m each), one
    cast panel (m x ``_panel_width(m)``) and its product, plus ``rows`` x m
    bools, the closing block's columns of those rows."""
    width = _panel_width(m)
    floats = (1 + (k > 3)) * rows * m + (m + rows) * width
    return np.dtype(dtype).itemsize * floats + rows * m


def _closed_walks(blocks, part: int, rows=None, skip=None) -> np.ndarray:
    """Proper cycles through the local vertices ``rows`` of ``part`` (all of
    them by default) that avoid their ``skip`` vertices: the closing diagonal
    of the block chain rotated to start at ``part`` (closed walks
    part -> part+1 -> ... -> part) over the graph's own ``blocks``, as int64.

    ``skip``, if given, is ``(owner, keys)``: ``owner`` names each row's
    owner, ascending, so the rows of one owner are a run, and ``keys`` are
    the keys ``owner * k * m + vertex`` (the ``_set_keys`` form) of the
    vertices its rows avoid; keys in ``part`` itself are not read.  Before
    the chain multiplies through a part, and before it closes, it drops the
    walks of each row through its owner's vertices of that part.
    ``blocks`` is only read.

    The chain runs passes of at most ``_tile(m)`` rows, evened out.  It
    casts those rows of the first block to float (float32 for bool blocks,
    float64 for a wider dtype) and multiplies them through the k-2 middle
    blocks, each cast one column panel at a time just before that panel's
    product (see ``_chain_step``); the last product is summed against the
    closing block's columns of those rows panel by panel, so it is never
    held whole.  A call thus holds a prefix row block or two, one panel and
    its product, never a whole block in float, and ``_chain_bytes`` of that
    working set is checked against physical memory before anything is
    allocated.

    Every entry of the chain is a sum of non-negative integers, so its dtype
    holds it exactly while it stays below 2**24 (float32) or 2**53
    (float64); and since rounding is monotone, a sum that ever reached that
    limit still reads at least the limit in any summation order.  So each
    product panel and the closing diagonal are checked as they are computed
    (see ``_exact``).  A float32 step that reaches 2**24 is redone in
    float64 from its exact float32 prefix, once ``_chain_bytes`` of the
    float64 working set is allowed; the rest of the call runs in float64,
    and the next call starts in float32 again.  ``ResourceLimitError`` is
    raised at the first float64 entry that reaches 2**53.  (That holds for
    the GEMM behind ``@``; a Strassen-type product, which subtracts, would
    not keep it.)
    """
    k, m = len(blocks), blocks[part].shape[0]
    first, close = blocks[part], blocks[(part - 1) % k]
    mid = [blocks[(part + j) % k] for j in range(1, k - 1)]
    size = m if rows is None else len(rows)
    height = _evened(size, _tile(m))
    dtype = np.promote_types(first.dtype, np.float32)
    _check_fits_in_memory("float panels", _chain_bytes(dtype, k, height, m))
    out = np.empty(size, dtype=np.int64)
    for lo in range(0, size, height):
        hi = min(lo + height, size)
        block = slice(lo, hi) if rows is None else rows[lo:hi]
        owner = None if skip is None else skip[0][lo:hi]
        prefix = first[block].astype(dtype)  # a copy, so the skips may write
        for j, b in enumerate(mid, 1):
            if skip is not None:
                _skip_walks(prefix, owner, skip[1], k, (part + j) % k)
            ends = None
            if j == k - 2:  # the last product closes as it is computed
                # contiguous rows of the chain's own, so the skips may write
                ends = np.require(close.T[block], requirements="CW")
                if skip is not None:
                    _skip_walks(ends, owner, skip[1], k, (part - 1) % k)
            walks = _chain_step(prefix, b, ends)
            if walks is None:  # so the call was still in float32
                dtype = np.dtype(np.float64)
                _check_fits_in_memory("float64 panels", _chain_bytes(dtype, k, height, m))
                prefix = prefix.astype(dtype)
                walks = _chain_step(prefix, b, ends)
            prefix = walks
        out[lo:hi] = prefix
    return out


def _chain_step(prefix: np.ndarray, b: np.ndarray, ends=None):
    """``prefix @ b`` in ``prefix``'s dtype or, given the closing block's
    columns ``ends`` (a bool row of them per prefix row), the closing
    diagonal ``(prefix @ b * ends).sum(axis=1)``; ``None`` at the first
    float32 entry of either that reaches 2**24 (see ``_exact``).

    ``b`` (of any dtype, a transposed view too) is cast ``_panel_width(m)``
    columns (half a ``_tile``) at a time into one panel buffer of its own
    layout, just before that panel's product.  Each product is written into
    its columns of ``prefix @ b`` and checked; at the close it is written
    into one buffer instead, checked, and summed against its columns of
    ``ends`` into the diagonal, which is checked once it holds every panel's
    terms: they are non-negative, so the rule of ``_closed_walks`` holds for
    that order of summing too."""
    rows, m = prefix.shape[0], b.shape[1]
    width = _panel_width(m)
    panel = np.empty_like(b[:, :width], dtype=prefix.dtype)
    # the product itself, or at the close one panel's product at a time
    walks = np.empty((rows, m if ends is None else width), dtype=prefix.dtype)
    diag = np.zeros(rows, dtype=prefix.dtype)
    for lo in range(0, m, width):
        hi = min(lo + width, m)
        np.copyto(panel[:, : hi - lo], b[:, lo:hi])
        cols = slice(lo, hi) if ends is None else slice(0, hi - lo)
        if _exact(np.matmul(prefix, panel[:, : hi - lo], out=walks[:, cols])) is None:
            return None
        if ends is not None:
            diag += np.einsum("ab,ab->a", walks[:, cols], ends[:, lo:hi])
    return walks if ends is None else _exact(diag)


def _skip_walks(walks: np.ndarray, owner: np.ndarray, keys: np.ndarray, k: int, q: int) -> None:
    """Zero the entries of ``walks`` (a row per entry of the ascending ``owner``,
    a column per part-q local) at its row's owner's vertices among ``keys``."""
    avoid = _owner_mask(owner, keys, k, q, walks.shape[1])
    if avoid is not None:
        walks[avoid] = 0


def _set_keys(owner: np.ndarray, vertex: np.ndarray, nv: int) -> np.ndarray:
    """The ascending, distinct keys ``owner * nv + vertex`` of int64 arrays of
    already-checked vertices and their owners: every owner's vertex set
    stacked in one form, which ``_owner_mask`` reads."""
    keys = owner * nv + vertex
    keys.sort()
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


def _owner_mask(owner: np.ndarray, keys: np.ndarray, k: int, q: int, m: int):
    """The ``(owner.size, m)`` bool mask of the part-q locals each row's
    owner holds among ``_set_keys``' ``keys`` (``owner * k * m + q * m +
    local``), or ``None`` when no row's owner holds one; ``owner``, one per
    row, is ascending.  The mask is built one row per owner and expanded to
    the rows, so no array of an owner by a key is made."""
    nv, base = k * m, q * m
    lo, hi = np.searchsorted(keys, [owner[0] * nv + base, owner[-1] * nv + base + m])
    if lo == hi:
        return None
    new = np.ones(owner.size, dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=new[1:])
    owners, row = owner[new], np.cumsum(new) - 1  # each row's index among the owners
    key_owner, local = np.divmod(keys[lo:hi], nv)
    local -= base
    at = np.searchsorted(owners, key_owner)
    # keys end below the last owner's base + m, so no key's owner passes the last owner
    hit = (owners[at] == key_owner) & (local >= 0) & (local < m)
    mask = np.zeros((owners.size, m), dtype=bool)
    mask[at[hit], local[hit]] = True
    return mask[row]


def _exact(counts: np.ndarray) -> np.ndarray | None:
    """``counts`` itself while every entry lies in its dtype's exact range;
    ``None`` when a float32 entry reaches 2**24, and ``ResourceLimitError``
    when a float64 entry reaches 2**53."""
    top = counts.max(initial=0)
    if top < _EXACT_BELOW[counts.dtype]:
        return counts
    if counts.dtype == np.float32:
        return None
    raise ResourceLimitError("exact float64 counting range exceeded", int(top), 2**53)


def count_proper_cycles(g: LayeredGraph) -> int:
    """Total number of proper cycles (no materialization)."""
    return sum(_closed_walks(g.blocks, 0).tolist())


def cycles_per_vertex(g: LayeredGraph) -> np.ndarray:
    """Proper-cycle count through every vertex, as an int64 array of length k*m."""
    return np.concatenate([_closed_walks(g.blocks, part) for part in range(g.k)])


def cycles_through_vertex(g: LayeredGraph, v: int) -> int:
    """Number of proper cycles containing vertex v: those meeting the set {v}."""
    return count_cycles_meeting(g, [v])


def count_cycles_meeting(g: LayeredGraph, cset) -> int:
    """Number of proper cycles intersecting the vertex set ``cset``.

    First-hit rule: a cycle is counted once, at the first part q (in order
    0..k-1) that holds one of its vertices in ``cset``.  For each q in turn
    the count adds the closed walks through cset's locals in part q that
    skip cset's vertices in parts 0..q-1.  Each chain runs on cset's rows
    only, so the cost grows with |cset|*m**2 per chain step, not with m**3.
    """
    return _meeting_counts(g, [cset])[0]


def _meeting_counts(g: LayeredGraph, csets) -> list[int]:
    """The proper cycles meeting each vertex set of ``csets``, as Python ints
    in set order, by ``count_cycles_meeting``'s first-hit rule.

    Every vertex of every set is checked first.  ``_set_keys`` then stacks
    the sets, the owner being the set's index, so the keys run by owner,
    part and local.  One chain per part q that holds a vertex of some set
    counts the part-q rows of every set, with the keys of parts 0..q-1 as
    its skip: each row skips its own set's vertices there, and its walks are
    added, as Python ints, to its set's count.
    """
    k, m, nv = g.k, g.m, g.num_vertices
    sets = []
    for cset in map(list, csets):
        for v in cset:
            g._check_vertex(v)
        sets.append(np.array(cset, dtype=np.int64))
    owner = np.repeat(np.arange(len(sets)), [cset.size for cset in sets])
    keys = _set_keys(owner, np.concatenate([np.empty(0, dtype=np.int64), *sets]), nv)
    owner, vertex = np.divmod(keys, nv)
    part = vertex // m
    counts = [0] * len(sets)
    for q in range(k):
        at = part == q
        if at.any():
            rows_owner = owner[at]
            walks = _closed_walks(g.blocks, q, vertex[at] - q * m, (rows_owner, keys[part < q]))
            for o, w in zip(rows_owner.tolist(), walks.tolist()):
                counts[o] += w
    return counts


# ---------------------------------------------------------------------------
# enumeration (canonical ascending keys)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _radices(k: int, m: int) -> np.ndarray:
    """Per-part key radices ``m**(k-1-i)`` as uint64, the key dtype;
    read-only, computed once per (k, m)."""
    if m**k >= 2**64:
        raise ResourceLimitError("canonical key space exceeds 64 bits", m**k, 2**64)
    radix = np.array([m ** (k - 1 - i) for i in range(k)], dtype=np.uint64)
    radix.setflags(write=False)
    return radix


def encode_keys(cols, m: int):
    """Canonical keys, as uint64, from k columns of part-local indices
    (column i: part i).

    Columns broadcast against each other, so a scalar column fixes that
    part's index for every key; all-scalar columns give one key.  The terms
    are summed in uint64 and the result is cast to it, so no mix of scalars
    and 0-d arrays changes the keys' dtype.
    """
    radix = _radices(len(cols), m)
    terms = (np.asarray(c).astype(np.uint64, copy=False) * r for c, r in zip(cols, radix))
    return functools.reduce(np.add, terms).astype(np.uint64, copy=False)


def _store_bytes(total: int, rows: int) -> dict[str, int]:
    """Bytes of each layout of a store of ``total`` keys with ``rows``
    prefix paths: a uint64 key per hyperedge (flat), or a uint64 key per
    prefix path plus one more int64 offset than rows (rows)."""
    return {"flat": 8 * total, "rows": 8 * rows + 8 * (rows + 1)}


def _store_layout(total: int, rows: int) -> str:
    """The layout of fewer bytes, ``"flat"`` or ``"rows"`` (flat on a tie)."""
    nbytes = _store_bytes(total, rows)
    return min(nbytes, key=nbytes.__getitem__)


def _prefix_paths(blocks) -> np.ndarray:
    """Prefix paths (proper paths through parts 0..k-2) from each part-0
    vertex, as int64: a matrix-vector chain over ``blocks[:k-2]`` that
    starts from the row counts of ``blocks[k-3]`` and casts each earlier
    block to int64 ``_ROW_BLOCK`` rows at a time.  A count is at most
    m**(k-2), below 2**62 once ``_radices`` has refused a key space beyond 64
    bits, so int64 holds it exactly."""
    paths = np.count_nonzero(blocks[len(blocks) - 3], axis=1).astype(np.int64)
    for b in reversed(blocks[: len(blocks) - 3]):
        rows = range(0, len(b), _ROW_BLOCK)
        paths = np.concatenate([b[lo : lo + _ROW_BLOCK].astype(np.int64) @ paths for lo in rows])
    return paths


def build_hypergraph(g: LayeredGraph) -> TightHypergraph:
    """All proper cycles of g as a ``TightHypergraph`` of their ascending
    canonical keys.

    Counts first via matrix products: each part-0 vertex ``a`` owns the ids
    ``bounds[a]:bounds[a+1]`` by its closed walks and the rows
    ``firsts[a]:firsts[a+1]`` by its prefix paths, and ``_store_layout``
    picks the layout of fewer bytes.  ``ResourceLimitError`` is raised
    before counting when the key space exceeds 64 bits, and before the store
    is allocated (no float row block is held then) when its bytes would
    exceed physical memory.

    One loop then fills the store, a start at a time on this thread: it
    enumerates ``a``'s prefix paths once (``_paths_from``) and encodes their
    keys once.  A rows store writes them and their offsets, from closer
    counts computed by ``_chain_step`` for half a chain pass of starts at a
    time, casting the last block to float32 one column panel of its
    transpose at a time; a flat store tries as closers only the part-(k-1)
    vertices that close back to ``a`` and writes the key ``prefix * m +
    closer`` of each (path, closer) pair whose last edge exists.  A start
    whose prefix paths or cycles differ from its counts raises
    ``InvariantViolationError`` before its keys are written.
    """
    k, m = g.k, g.m
    _radices(k, m)  # refuses a key space beyond 64 bits
    bounds = [0, *itertools.accumulate(_closed_walks(g.blocks, 0).tolist())]
    firsts = [0, *itertools.accumulate(_prefix_paths(g.blocks).tolist())]
    layout = _store_layout(bounds[-1], firsts[-1])
    _check_fits_in_memory("cycle keys", _store_bytes(bounds[-1], firsts[-1])[layout])
    rows = layout == "rows"
    head = np.empty(firsts[-1] if rows else bounds[-1], dtype=np.uint64)
    offsets = np.zeros(firsts[-1] + 1, dtype=np.int64) if rows else None
    last, close = g.blocks[k - 2], g.blocks[k - 1]
    # starts and their counts take one chain prefix, within its charged bytes
    step = max(1, _evened(m, _tile(m)) // 2)
    for a in range(m):
        cols = _paths_from(g, a)
        _check_found(a, "prefix paths", cols[-1].size, firsts[a + 1] - firsts[a])
        prefix = encode_keys([a, *cols], m)
        lo, hi = bounds[a], bounds[a + 1]
        if rows:
            if a % step == 0:
                # counts[i, end]: the part-(k-1) vertices adjacent to both
                # start a + i and end; at most m < 2**22, so exact in float32
                counts = _chain_step(close[:, a : a + step].T.astype(np.float32), last.T)
            ends = np.cumsum(counts[a % step, cols[-1]].astype(np.int64))
            _check_found(a, "proper cycles", int(ends[-1]) if ends.size else 0, hi - lo)
            head[firsts[a] : firsts[a + 1]] = prefix
            offsets[firsts[a] + 1 : firsts[a + 1] + 1] = lo + ends
        else:
            closers = np.flatnonzero(close[:, a])
            # row-major order over (path, closer) is ascending key order
            hits = np.flatnonzero(last[cols[-1]][:, closers])
            _check_found(a, "proper cycles", hits.size, hi - lo)
            table = prefix[:, None] * np.uint64(m) + closers.astype(np.uint64)
            # hits index the table's own shape, so "clip" clips nothing;
            # unlike the default mode, it writes into head without a buffer
            np.take(table.ravel(), hits, out=head[lo:hi], mode="clip")
    return TightHypergraph(g, head, offsets)


def _paths_from(g: LayeredGraph, a: int) -> list[np.ndarray]:
    """The part-local columns (parts 1..k-2) of the prefix paths from
    part-0 vertex ``a``, in ascending key order.  They grow along the rows
    of the dense blocks, and row-major order over (path, next vertex) is
    ascending key order."""
    cols: list[np.ndarray] = []
    ends = np.array([a], dtype=np.int64)
    for part in range(g.k - 2):
        rep, ends = np.nonzero(g.blocks[part][ends])
        cols = [c[rep] for c in cols]
        cols.append(ends)
    return cols


def _check_found(a: int, what: str, found: int, counted: int) -> None:
    if found != counted:
        raise InvariantViolationError(
            f"start vertex {a}: enumerated {found} {what}, counted {counted}"
        )


def _key_array(keys) -> np.ndarray:
    """``keys`` as an array; ``ParameterError`` unless its dtype is an integer one."""
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise ParameterError("keys", f"keys must be integers, got dtype {keys.dtype}")
    return keys


def decode_keys(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """Decode canonical keys (of any integer dtype) into (len, k) int64
    part-local indices.

    ``ParameterError`` for a dtype ``_key_array`` refuses, so that no float
    or bool is truncated into a key, and for a key outside 0..m**k - 1, whose
    leading digit, the quotient by m**(k-1), is m or more: the keys are
    decoded as uint64, where a negative key wraps past m**k.  A digit is a
    floor division by its radix and the remainder a multiply and subtract,
    which together run faster than ``divmod``; digit i is written to row i
    of a (k, len) array, so every write is contiguous, and the result is
    that array's transpose.
    """
    radix = _radices(k, m)
    rem = _key_array(keys).astype(np.uint64, copy=False)
    digits = np.empty((k, rem.size), dtype=np.uint64)
    for i in range(k - 1):
        np.floor_divide(rem, radix[i], out=digits[i])
        rem = rem - digits[i] * radix[i]
    digits[-1] = rem
    if digits[0].max(initial=0) >= m:
        raise ParameterError("keys", f"a key is not below m**k = {m**k}")
    return digits.T.view(np.int64)


# ---------------------------------------------------------------------------
# path extensions
# ---------------------------------------------------------------------------


def _completion_mask(g: LayeredGraph, q: int, before, after) -> np.ndarray:
    """The mask over part q's locals adjacent to the part-(q-1) local
    ``before`` and the part-(q+1) local ``after``: the closers of a path
    between them.  Scalar ends give one path's (m,) mask, read through views
    of the blocks (the greedy's per-step case); arrays of N ends give an
    (N, m) block."""
    return g.blocks[(q - 1) % g.k][before] & g.blocks[q].T[after]


def _extensions(
    g: LayeredGraph, vertices, allowed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Completions of a (k-1)-vertex proper path into proper cycles.

    Returns the completing vertices (ascending global ids), those in
    ``allowed`` (a bool mask over all vertices) when it is given, and the
    canonical keys of the cycles they close.
    """
    k, m = g.k, g.m
    locs = {v // m: v % m for v in vertices}
    (q,) = set(range(k)) - locs.keys()
    mask = _completion_mask(g, q, locs[(q - 1) % k], locs[(q + 1) % k])
    locs[q] = (mask if allowed is None else mask & allowed[q * m : (q + 1) * m]).nonzero()[0]
    if locs[q].size == 0:  # no closer: no keys to encode
        return locs[q], np.empty(0, dtype=np.uint64)
    return locs[q] + q * m, encode_keys([locs[i] for i in range(k)], m)


def _family_masks(g: LayeredGraph, rows: np.ndarray):
    """The closer masks of a stack of family rows (an ``(N, k-1)`` int64
    array, the rows of one or more families), grouped by the part q each
    row misses: yields ``(q, idx, mask, digits)`` for ``idx``, up to
    ``_ROW_BLOCK`` indices into ``rows`` in stack order, their
    ``(len(idx), m)`` ``_completion_mask`` block, and their ``(len(idx), k)``
    part-local digits, digit q zero.  The ends are read from the digits of
    parts q-1 and q+1, so a row gives the same mask in either direction.
    """
    k, m = g.k, g.m
    part = rows // m
    digits = np.zeros((len(rows), k), dtype=np.int64)
    np.put_along_axis(digits, part, rows % m, axis=1)
    # a row holds one vertex in each part but the one it misses
    missing = k * (k - 1) // 2 - part.sum(axis=1)
    for q in range(k):
        group = np.flatnonzero(missing == q)
        for lo in range(0, group.size, _ROW_BLOCK):
            idx = group[lo : lo + _ROW_BLOCK]
            dig = digits[idx]
            yield q, idx, _completion_mask(g, q, dig[:, (q - 1) % k], dig[:, (q + 1) % k]), dig


def _family_counts(g: LayeredGraph, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Property (i)'s two counts for each ``(aset, fam)`` pair, as int64
    arrays in pair order: the cycles extending a path of ``fam`` by a vertex
    of aset or of the family (restricted), and the cycles extending one
    (family), both sums of mask hits.

    One ``_family_masks`` pass walks the rows of every family, stacked in
    pair order, each row tagged with its pair, its owner.  A block's masks
    are summed per owner as they are, for the family count, and after an AND
    with the owner's allowed closers, for the restricted count.  That
    allowed test is built per block by ``_owner_mask`` from the
    ``_set_keys`` of the pairs' allowed vertices (aset and the family's), so
    no array of a pair by a vertex is made.
    """
    k, m, nv = g.k, g.m, g.num_vertices
    fams, asets = [], []
    for aset, fam in pairs:
        aset = list(aset)
        for v in aset:
            g._check_vertex(v)
        asets.append(aset)
        fams.append(fam.rows)
    size = len(fams)
    rows = np.concatenate([np.empty((0, k - 1), dtype=np.int64), *fams])
    owner = np.repeat(np.arange(size), [len(f) for f in fams])
    keys = _set_keys(  # each pair's allowed vertices: its aset and its family's
        np.concatenate([np.repeat(np.arange(size), [len(a) for a in asets]), owner.repeat(k - 1)]),
        np.concatenate([np.array([v for a in asets for v in a], dtype=np.int64), rows.ravel()]),
        nv,
    )
    family = np.zeros(size, dtype=np.int64)
    restricted = np.zeros(size, dtype=np.int64)
    for q, idx, mask, _ in _family_masks(g, rows):
        own = owner[idx]  # ascending: idx is, and the rows are stacked in pair order
        np.add.at(family, own, np.count_nonzero(mask, axis=1))
        allowed = _owner_mask(own, keys, k, q, m)  # each row's allowed part-q locals
        if allowed is not None:
            np.add.at(restricted, own, np.count_nonzero(mask & allowed, axis=1))
    return restricted, family


def count_family_extensions(g: LayeredGraph, fam: TrashFamily) -> int:
    """Number of distinct proper cycles extending at least one family path."""
    return int(_family_counts(g, [((), fam)])[1][0])


def count_restricted_extensions(g: LayeredGraph, aset, fam: TrashFamily) -> int:
    """Distinct cycles extending a family path by a vertex from aset or the family."""
    return int(_family_counts(g, [(aset, fam)])[0][0])


# ---------------------------------------------------------------------------
# tight-path hypergraph
# ---------------------------------------------------------------------------


def _id_array(ids) -> np.ndarray:
    """``ids`` as an array; ``IndexError`` unless its dtype is an integer one."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise IndexError(f"hyperedge ids must be integers, got dtype {ids.dtype}")
    return ids


def _absolute_ids(ids, n: int) -> np.ndarray:
    """Int ``ids`` of n items, a negative one counting from the end, as in numpy;
    ``IndexError`` for an id outside [-n, n) or a dtype ``_id_array`` refuses."""
    ids = _id_array(ids)
    if ids.size and (ids.min() < -n or ids.max() >= n):
        raise IndexError(f"hyperedge id out of range [{-n}, {n})")
    return np.where(ids < 0, ids + n, ids)


class TightHypergraph:
    """The k-uniform hypergraph whose hyperedges are the proper cycles of
    ``graph``, held as their ascending canonical keys in the read-only
    uint64 ``head`` and int64 ``offsets`` that ``build_hypergraph`` fills;
    ids are ranks in key order.

    Flat (``offsets`` is None): ``head`` holds every key whole.  Rows:
    ``head`` holds the keys of every prefix path (proper paths through
    parts 0..k-2, closing or not), and row i holds the ids
    ``offsets[i]:offsets[i + 1]``, its path's closers ranked ascending, read
    through ``_completion_mask`` ``_ROW_BLOCK`` distinct rows at a time,
    with no mask per id.  Lookups run on these arrays, so the structure
    stays usable at tens of millions of hyperedges (a rows store at billions).
    """

    def __init__(self, graph: LayeredGraph, head: np.ndarray, offsets: np.ndarray | None = None):
        self.graph, self.head, self.offsets = graph, head, offsets
        head.setflags(write=False)
        if offsets is not None:
            offsets.setflags(write=False)

    def __len__(self) -> int:
        return self.head.size if self.offsets is None else int(self.offsets[-1])

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def layout(self) -> str:
        return "flat" if self.offsets is None else "rows"

    @property
    def nbytes(self) -> int:
        return self.head.nbytes + (0 if self.offsets is None else self.offsets.nbytes)

    def keys(self, ids=slice(None)) -> np.ndarray:
        """The keys of the ids ``ids`` selects (a slice or an int array; all
        by default), as uint64.  Negative ids count from the end, as in
        numpy; ``IndexError`` for an id out of range or a non-integer array."""
        if self.offsets is None:
            return self.head[ids if isinstance(ids, slice) else _id_array(ids)]
        if isinstance(ids, slice):
            start, stop, step = ids.indices(len(self))
            if step == 1:
                return self._run_keys(start, max(start, stop))
            ids = np.arange(start, stop, step)
        ids = _absolute_ids(ids, len(self))
        rows = np.searchsorted(self.offsets, ids, side="right") - 1
        out = np.empty(ids.shape, dtype=np.uint64)
        for blk, part, t in self._row_blocks(rows):
            counts = self.offsets[blk + 1] - self.offsets[blk]
            first = np.cumsum(counts) - counts  # where each row's keys start
            out[part] = self._row_keys(blk)[first[t] + ids[part] - self.offsets[blk[t]]]
        return out

    def vertex_rows(self, ids=slice(None)) -> np.ndarray:
        """The hyperedges ``ids`` selects (a slice or an int array of ids; all by
        default) as an (N, k) int64 block of part-indexed global ids.  Only the
        selected keys are rebuilt and decoded."""
        g = self.graph
        return decode_keys(self.keys(ids), g.k, g.m) + np.arange(0, g.num_vertices, g.m)

    def hyperedge(self, idx: int) -> tuple[int, ...]:
        """The hyperedge of one int id, under the id rule of ``keys``."""
        idx = range(len(self))[_id_array(idx)]  # counts from the end; IndexError
        return tuple(self.vertex_rows(slice(idx, idx + 1))[0].tolist())

    def edge_id(self, vertices) -> int:
        """Id of the hyperedge with this one-per-part vertex set (any order), or -1."""
        g = self.graph
        locs = [-1] * g.k
        for v in vertices:
            p = g.part_of(v)
            if locs[p] != -1:
                raise InvariantViolationError("vertex set hits a part twice")
            locs[p] = g.local(int(v))
        if -1 in locs:
            raise InvariantViolationError("vertex set misses a part")
        return int(self.ids_for_keys(encode_keys(locs, g.m)))

    def ids_for_keys(self, keys) -> np.ndarray:
        """Ids of the canonical ``keys`` (an array of any integer dtype, as
        ``_key_array`` requires), as int64; -1 where a key is not a hyperedge.

        Both layouts cast the queries to uint64 once and refuse a negative
        one, which wraps past 2**63, where a stored key may lie once
        m**k > 2**63.  No range check is needed: a key at or beyond m**k is
        no stored key, and its prefix, at or beyond m**(k-1), is no row's.
        Flat: the query is searched among the keys.  Rows: it is split into
        its prefix key and its closer; the prefix is looked up among the
        rows, and its id is the row's first id plus the closer's rank among
        the row's closers.
        """
        keys = _key_array(keys)
        query = keys.astype(np.uint64, copy=False)  # a negative key wraps; refused below
        if self.head.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        if self.offsets is None:
            lo = np.searchsorted(self.head, query)
            # past the last key, lo is n, and head[n - 1] < query
            hit = (keys >= 0) & (self.head[np.minimum(lo, self.head.size - 1)] == query)
            return np.where(hit, lo, -1)
        m = self.graph.m
        shape, keys, query = keys.shape, keys.ravel(), query.ravel()
        out = np.full(keys.size, -1, dtype=np.int64)
        prefix, closer = np.divmod(query, np.uint64(m))
        row = np.minimum(np.searchsorted(self.head, prefix), self.head.size - 1)
        sel = np.flatnonzero((keys >= 0) & (self.head[row] == prefix))
        row, closer = row[sel], closer[sel].astype(np.intp)
        for blk, part, t in self._row_blocks(row):
            mask = self._closers(blk)
            # a row's running count of closers is at most m
            rank = np.cumsum(mask, axis=1, dtype=np.min_scalar_type(m))
            c = closer[part]
            found = mask[t, c]
            out[sel[part[found]]] = self.offsets[blk[t[found]]] + rank[t[found], c[found]] - 1
        return out.reshape(shape)

    def extension_ids(self, path) -> np.ndarray:
        """Ids of hyperedges extending a (k-1)-path, ascending: ``family_ids``
        of the path validated as a one-row family."""
        return self.family_ids(trash_family(self.graph, [path]))

    def family_ids(self, fam: TrashFamily) -> np.ndarray:
        """Ids of the hyperedges extending some path of ``fam``, as int64.

        One ``ids_for_keys`` call resolves the hits of every
        ``_family_masks`` block, each encoded from its row's digits with
        the closer as digit q.
        """
        keys = [np.empty(0, dtype=np.uint64)]
        for q, idx, mask, digits in _family_masks(self.graph, fam.rows):
            t, closer = np.nonzero(mask)
            cols = list(digits[t].T)
            cols[q] = closer
            keys.append(encode_keys(cols, self.graph.m))
        ids = self.ids_for_keys(np.concatenate(keys))
        return ids[ids >= 0]

    def save(self, path) -> None:
        """Write ``{"vertices": N, "edges": [...]}`` through ``_write_rows``, which
        decodes a chunk of hyperedges at a time, so memory stays near the
        store's."""
        _write_rows(path, {"vertices": self.num_vertices}, "edges", self.vertex_rows, len(self))

    def _run_keys(self, start: int, stop: int) -> np.ndarray:
        """The keys of the ids ``start:stop`` of a rows store, one block of
        ``_ROW_BLOCK`` rows at a time."""
        off = self.offsets
        out = np.empty(stop - start, dtype=np.uint64)
        first = int(np.searchsorted(off, start, side="right")) - 1
        last = int(np.searchsorted(off, stop, side="left"))  # rows first..last-1 hold them
        for lo in range(first, last, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, last)
            a, b = max(start, int(off[lo])), min(stop, int(off[hi]))
            out[a - start : b - start] = self._row_keys(np.arange(lo, hi))[a - off[lo] : b - off[lo]]
        return out

    def _row_blocks(self, rows: np.ndarray):
        """The distinct entries of ``rows``, ``_ROW_BLOCK`` at a time, as
        ``(blk, part, t)``: the block's rows, ascending, the positions in
        ``rows`` that hold one of them, and the index in ``blk`` of each."""
        order = np.argsort(rows, kind="stable")
        srt = rows[order]
        new = np.ones(srt.size, dtype=bool)
        np.not_equal(srt[1:], srt[:-1], out=new[1:])
        rank = np.cumsum(new) - 1  # each sorted entry's index among the distinct rows
        uniq = srt[new]
        cuts = np.searchsorted(rank, np.arange(0, uniq.size + _ROW_BLOCK, _ROW_BLOCK))
        for lo, c0, c1 in zip(range(0, uniq.size, _ROW_BLOCK), cuts, cuts[1:]):
            yield uniq[lo : lo + _ROW_BLOCK], order[c0:c1], rank[c0:c1] - lo

    def _row_keys(self, rows: np.ndarray) -> np.ndarray:
        """Every key of the ``rows`` (distinct, ascending), ascending: a
        row's prefix key times m plus each of its closers.  The masks'
        flat index is ``i * m`` plus the closer for the i-th row, so each
        key is that index plus ``(prefix - i) * m``, never negative."""
        flat = np.flatnonzero(self._closers(rows)).view(np.uint64)
        shift = (self.head[rows] - np.arange(rows.size, dtype=np.uint64)) * np.uint64(self.graph.m)
        return flat + np.repeat(shift, self.offsets[rows + 1] - self.offsets[rows])

    def _closers(self, rows: np.ndarray) -> np.ndarray:
        """The (len(rows), m) closer masks of the ``rows``: ``_completion_mask``
        at q = k-1 between the last and the first digit of each prefix key."""
        g, prefix = self.graph, self.head[rows]
        before, after = prefix % np.uint64(g.m), prefix // np.uint64(g.m ** (g.k - 2))
        return _completion_mask(g, g.k - 1, before, after)


# ---------------------------------------------------------------------------
# tight-path validation
# ---------------------------------------------------------------------------


def _check_coloring(h: TightHypergraph, col, color: int) -> None:
    """Refuse a coloring that does not give every hyperedge of h a color, then
    a working ``color`` that is not one of its colors."""
    if len(col) != len(h):
        raise ParameterError("col", "coloring is not total over the hypergraph")
    _check_color(color, col.r)


def validate_tight_path_verbose(
    h: TightHypergraph, seq, coloring=None, color: int | None = None
) -> tuple[bool, str | None]:
    """Check a vertex sequence is a tight path of h; returns (ok, reason).

    Reasons: too-short, unknown-vertex, repeated-vertex, window-not-one-per-part,
    window-not-hyperedge, window-wrong-color.  A given coloring must pass
    ``_check_coloring`` with the working ``color``.
    """
    if coloring is not None:
        _check_coloring(h, coloring, color)
    g = h.graph
    seq = list(seq)
    if len(seq) < g.k:
        return False, "too-short"
    for v in seq:
        try:
            g._check_vertex(v)
        except UnknownVertexError:
            return False, "unknown-vertex"
    seq = [int(v) for v in seq]
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
        if coloring is not None and int(coloring[eid]) != color:
            return False, "window-wrong-color"
    return True, None


def validate_tight_path(
    h: TightHypergraph, seq, coloring=None, color: int | None = None
) -> bool:
    """True iff seq is a tight path of h (optionally monochromatic in color)."""
    ok, _ = validate_tight_path_verbose(h, seq, coloring, color)
    return ok
