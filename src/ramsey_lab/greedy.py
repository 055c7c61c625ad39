"""Colorings of the tight-path hypergraph and the greedy path builder.

A round holds three locals: ``path``, a working-color tight path A;
``trash``, this round's (k-1)-vertex proper paths; and ``unused``, the mask
of U, the vertices on neither.  A start edge or an extension vertex moves
from U onto the path; a dead end moves the path's last k-1 vertices to the
trash, and a leftover shorter than k goes back to U.  A round either
reaches a path of n vertices, fills the trash to n paths, or runs out of
eligible starting edges, and returns one ``RoundRecord`` of its path and
trash.  The outer loop keeps the record of each full trash, restarts after
deleting every working-color hyperedge that extends a trashed path, and
finishes with either a found path or an audited certificate.

A coloring holds ``(r - 1).bit_length()`` bit planes over hyperedge ids,
packed one bit per id in ``np.packbits`` order (``ceil(len(h) / 8)`` bytes
each): every coloring is packed a chunk of colors at a time, and its color
tally is taken in the same pass.  The search reads the coloring in place and
never writes it.  An id is live when the planes spell the working color and
no restart has deleted it: the first restart allocates ``kept``, an all-ones
mask packed the same way, and each restart clears the ids it deletes.
``_live_bytes`` is the one reader of both; the scans read only the bytes
they need, and no array of a bool, int or byte per hyperedge is built.
Every choice (starting edge, extension vertex) is the lexicographically
least eligible option, so runs are replayable.  Within a round the
start-edge scan resumes at the last start edge, because the eligible set
only shrinks there (see ``greedy_round``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .cycles import (
    TightHypergraph,
    TrashFamily,
    _absolute_ids,
    _check_coloring,
    count_proper_cycles,
    decode_keys,
    encode_keys,
    trash_family,
    validate_tight_path_verbose,
    _extensions,
)
from .errors import ParameterError, ResourceLimitError
from .layered_graph import (
    LayeredGraph,
    _all_integers,
    _check_fits_in_memory,
    _check_n,
    _check_r,
    _check_seed,
)
from .reporting import _write_rows
from .seeds import spawn_rng
from .verifier import RoundAudit, meeting_check, restricted_check

__all__ = [
    "Coloring",
    "random_coloring",
    "adversarial_coloring",
    "pick_majority_color",
    "RoundOutcome",
    "greedy_round",
    "FoundPath",
    "Certificate",
    "RoundRecord",
    "CertificateAudit",
    "run_outer",
    "audit_certificate",
    "outcome_to_json",
]

# must stay a multiple of 8: a chunk packs into whole bytes and draws whole raw words
_SCAN_CHUNK = 1 << 20
_FIRST_SCAN_CHUNK = 1 << 6
_BALANCED_GREEDY_CAP = 200_000
# the bit of id i in its byte of a packed mask is _BIT[i % 8] (np.packbits order)
_BIT = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


class Coloring:
    """Total assignment of one of r colors to every hyperedge, in canonical order.

    The colors are held as ``B = (r - 1).bit_length()`` packed bit planes:
    ``planes`` is a read-only ``(B, ceil(N / 8))`` uint8 array whose row b
    holds bit b of each hyperedge's color in ``np.packbits`` order, so r = 2
    takes N/8 bytes and r = 256 takes N.  ``len(col)`` is N, ``col[ids]``
    unpacks the colors of a slice or of ids in -N..N-1, and ``counts()``
    returns the tally taken while the planes were packed.
    """

    def __init__(self, r: int, colors) -> None:
        _check_r(r)
        colors = np.asarray(colors)
        if colors.ndim != 1:
            raise ParameterError("colors", f"must be a flat array, got shape {colors.shape}")
        self._pack(r, colors.size, lambda lo, hi: colors[lo:hi])

    @classmethod
    def _from_chunks(cls, r: int, size: int, chunk) -> "Coloring":
        """The coloring of ``size`` ids packed from ``chunk`` (see ``_pack``)."""
        col = cls.__new__(cls)
        col._pack(r, size, chunk)
        return col

    def _pack(self, r: int, size: int, chunk) -> None:
        """Pack ``chunk(lo, hi)``, the integer colors of ids lo..hi-1, called a
        ``_SCAN_CHUNK`` at a time in id order: each chunk is range-checked,
        tallied and packed into the planes, whose bytes are refused before
        allocation when they would exceed physical memory."""
        _check_fits_in_memory("colors", _plane_bytes(r, size))
        planes = np.empty((int(r - 1).bit_length(), -(-size // 8)), dtype=np.uint8)
        counts = np.zeros(r, dtype=np.int64)
        for lo in range(0, size, _SCAN_CHUNK):
            hi = min(lo + _SCAN_CHUNK, size)
            values = chunk(lo, hi)
            if values.dtype.kind not in "iu" or values.min() < 0 or values.max() >= r:
                raise ParameterError("colors", f"must be integers in 0..{r - 1}")
            values = values.astype(np.uint8, copy=False)
            if r == 2:  # the colors are plane 0's bits: no comparison temporary
                ones = np.count_nonzero(values)
                counts += (hi - lo - ones, ones)
            else:
                counts += [np.count_nonzero(values == c) for c in range(r)]
            for b, plane in enumerate(planes):
                plane[lo // 8 : -(-hi // 8)] = np.packbits(values if r == 2 else values & 1 << b)
            del values  # freed before the next chunk is made
        planes.setflags(write=False)
        self.r, self.planes, self._counts, self._size = r, planes, counts, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, ids) -> np.ndarray:
        """The uint8 colors of a slice of ids, or of int ids (a scalar or an
        array): a negative id counts from the end, as in numpy, and an id
        outside [-N, N) or an array of another dtype (a boolean mask) raises
        ``IndexError``, as ``TightHypergraph.keys``."""
        if isinstance(ids, slice):
            ids = np.arange(*ids.indices(self._size))
        else:
            ids = _absolute_ids(ids, self._size)
        bits = (self.planes[:, ids >> 3] & _BIT[ids & 7]) != 0
        return np.packbits(bits, axis=0, bitorder="little")[0]

    def counts(self) -> np.ndarray:
        """Hyperedges per color, as int64."""
        return self._counts.copy()

    @classmethod
    def from_json(cls, doc: dict) -> "Coloring":
        r, colors = doc["r"], doc["colors"]
        _check_r(r)
        if not (isinstance(colors, list) and _all_integers(colors)):
            raise ParameterError("colors", "must be a flat array of integers")
        values = iter(colors)
        try:  # read through int64 a chunk at a time
            return cls._from_chunks(
                r, len(colors), lambda lo, hi: np.fromiter(values, np.int64, hi - lo)
            )
        except OverflowError:  # an integer beyond int64
            raise ParameterError("colors", f"must be integers in 0..{r - 1}") from None

    def save(self, path) -> None:
        """Write ``{"r": r, "colors": [...]}`` through ``_write_rows``."""
        _write_rows(path, {"r": self.r}, "colors", self.__getitem__, len(self))


def _plane_bytes(r: int, size: int) -> int:
    """Bytes of the bit planes of ``size`` colors out of r."""
    return int(r - 1).bit_length() * -(-size // 8)


def random_coloring(h: TightHypergraph, r: int, seed: int) -> Coloring:
    """I.i.d. uniform colors from the Philox stream for ``seed``.

    For r = 2^b, color i is the top b bits of byte i of the stream's raw
    64-bit words (``bit_generator.random_raw``) read as little-endian bytes,
    which is what numpy's uint8 ``integers(0, r)`` returns: it never rejects
    at a power of two.  The colors are drawn a ``_SCAN_CHUNK`` at a time,
    shifted in place, and no array of N colors is made; a chunk is a whole
    number of words (a multiple of 8 ids), so the chunks continue the
    one-shot stream.  Other r sample by rejection, so their colors are drawn
    in one shot, then packed.
    """
    _check_r(r)
    _check_seed(seed)
    rng = spawn_rng(seed)
    if r & (r - 1) == 0:
        shift = np.uint8(8 - int(r - 1).bit_length())

        def chunk(lo: int, hi: int) -> np.ndarray:
            words = rng.bit_generator.random_raw(-(-(hi - lo) // 8))
            values = words.astype("<u8", copy=False).view(np.uint8)[: hi - lo]
            values >>= shift
            return values

        return Coloring._from_chunks(r, len(h), chunk)
    _check_fits_in_memory("colors", _plane_bytes(r, len(h)) + len(h))
    return Coloring(r, rng.integers(0, r, size=len(h), dtype=np.uint8))


def _vertex_cut_coloring(h: TightHypergraph, r: int, seed: int) -> Coloring:
    g = h.graph
    size = max(1, g.num_vertices // 4)
    cut = np.zeros(g.num_vertices, dtype=bool)
    cut[spawn_rng(seed).choice(g.num_vertices, size=size, replace=False)] = True
    return Coloring._from_chunks(
        r, len(h), lambda lo, hi: (~cut[h.vertex_rows(slice(lo, hi))].any(axis=1)).view(np.uint8)
    )


def _balanced_greedy_coloring(h: TightHypergraph, r: int) -> Coloring:
    """Chain-averse coloring: each edge takes the color minimizing the number
    of already-colored tight neighbors (edges differing in one part slot),
    breaking ties toward the least-used color, then the smallest index."""
    if len(h) > _BALANCED_GREEDY_CAP:
        raise ResourceLimitError(
            "balanced-greedy strategy is for small hypergraphs", len(h), _BALANCED_GREEDY_CAP
        )
    g = h.graph
    locs = decode_keys(h.keys(), g.k, g.m)
    # slot[q][eid]: the key of edge eid with part q's index zeroed, shared by
    # every edge that differs from it in part q only
    slot = [
        encode_keys([0 if i == q else locs[:, i] for i in range(g.k)], g.m).tolist()
        for q in range(g.k)
    ]
    neighbor_counts: dict[tuple[int, int], np.ndarray] = {}
    used = np.zeros(r, dtype=np.int64)
    colors = np.empty(len(h), dtype=np.uint8)
    for eid in range(len(h)):
        wildcards = [(q, slot[q][eid]) for q in range(g.k)]
        score = np.zeros(r, dtype=np.int64)
        for w in wildcards:
            cnt = neighbor_counts.get(w)
            if cnt is not None:
                score += cnt
        best = min(range(r), key=lambda c: (int(score[c]), int(used[c]), c))
        colors[eid] = best
        used[best] += 1
        for w in wildcards:
            cnt = neighbor_counts.setdefault(w, np.zeros(r, dtype=np.int64))
            cnt[best] += 1
    return Coloring(r, colors)


def adversarial_coloring(
    h: TightHypergraph, r: int, strategy: str, seed: int = 0
) -> Coloring:
    """Structured colorings for stress tests.

    balanced_greedy: chain-averse (see above); vertex_cut: edges meeting a
    random quarter of the vertices get color 0, the rest color 1;
    round_robin: colors cycle 0..r-1 in canonical edge order.
    """
    _check_r(r)
    _check_seed(seed)
    if strategy == "round_robin":
        # a chunk's colors are a window of the cycle 0..r-1 repeated in uint8
        cycle = np.arange(r, dtype=np.uint8)
        return Coloring._from_chunks(
            r, len(h), lambda lo, hi: np.tile(cycle, (hi - lo) // r + 2)[lo % r : lo % r + hi - lo]
        )
    if strategy == "vertex_cut":
        return _vertex_cut_coloring(h, r, seed)
    if strategy == "balanced_greedy":
        return _balanced_greedy_coloring(h, r)
    raise ParameterError("strategy", f"unknown adversarial strategy {strategy!r}")


def pick_majority_color(counts: np.ndarray) -> int:
    """Color with the most edges in a ``Coloring.counts`` tally; ties break to
    the smallest color index."""
    if not counts.any():
        raise ParameterError("counts", "cannot pick a majority color of an empty hypergraph")
    return int(np.argmax(counts))


# ---------------------------------------------------------------------------
# live ids, read from the planes
# ---------------------------------------------------------------------------


def _live_bytes(col: Coloring, color: int, kept, at) -> np.ndarray:
    """The bytes ``at`` (a slice or byte indices) of the packed mask of live
    ids: the AND of each plane where ``color`` has its bit set, of the plane's
    inverse where not, and of ``kept`` when given; padding bits are not cleared."""
    live = None
    for b, plane in enumerate(col.planes):
        bits = plane[at] if color >> b & 1 else ~plane[at]
        live = bits if live is None else live & bits
    return live if kept is None else live & kept[at]


def _live_bits(col: Coloring, color: int, kept, ids: np.ndarray) -> np.ndarray:
    """Whether each of ``ids`` is live (see ``_live_bytes``)."""
    return (_live_bytes(col, color, kept, ids >> 3) & _BIT[ids & 7]) != 0


def _clear_bits(mask: np.ndarray, ids: np.ndarray) -> None:
    """Clear the bits of ``ids`` in the packed ``mask``; ``np.bitwise_and.at``
    applies every id, also where several ids (or one id twice) share a byte."""
    np.bitwise_and.at(mask, ids >> 3, ~_BIT[ids & 7])


# ---------------------------------------------------------------------------
# one greedy round
# ---------------------------------------------------------------------------


class RoundOutcome(Enum):
    PATH_FOUND = "path_found"
    TRASH_FULL = "trash_full"
    NO_WORKING_EDGE = "no_working_edge"


@dataclass
class RoundRecord:
    """One round's end: its path (for a certificate, the snapshot at
    trash-full time) and its trash family."""

    path_snapshot: list[int]
    trash: TrashFamily


def _check_round(
    h: TightHypergraph, col: Coloring, color: int, kept, path: list[int], trash: list, unused
) -> None:
    """Assert a round's invariants: path and trash are disjoint, U is the
    rest, and a path of k or more vertices is tight on live hyperedges."""
    g = h.graph
    in_path = set(path)
    in_trash = {v for p in trash for v in p}
    assert len(in_path) == len(path), "path repeats a vertex"
    assert not (in_path & in_trash), "path and trash overlap"
    expected = np.ones(g.num_vertices, dtype=bool)
    expected[sorted(in_path | in_trash)] = False
    assert np.array_equal(expected, unused), "unused mask out of sync"
    if len(path) >= g.k:
        deleted = np.unpackbits(_live_bytes(col, color, kept, slice(None)), count=len(h)) == 0
        ok, reason = validate_tight_path_verbose(h, path, deleted=deleted)
        assert ok, f"path is not a tight path of live hyperedges: {reason}"


def _find_start_edge(
    h: TightHypergraph, col: Coloring, color: int, kept, unused: np.ndarray, lo: int = 0
) -> int | None:
    """Least live hyperedge inside U with id >= ``lo``.

    The scan reads a chunk of ``_FIRST_SCAN_CHUNK`` ids at a time, doubling
    up to ``_SCAN_CHUNK``, reads and unpacks only the live bytes that cover
    the chunk, and decodes only the chunk's live ids, so a hit near ``lo``
    decodes few keys.
    """
    step = _FIRST_SCAN_CHUNK
    while lo < len(h):
        hi = min(lo + step, len(h))
        skip = lo % 8  # bits of the first byte below lo
        live = np.unpackbits(_live_bytes(col, color, kept, slice(lo // 8, -(-hi // 8))))
        ids = live.view(bool)[skip : skip + hi - lo].nonzero()[0] + lo
        if ids.size:
            ok = unused[h.vertex_rows(ids)].all(axis=1)
            if ok.any():
                return int(ids[ok][0])
        lo = hi
        step = min(2 * step, _SCAN_CHUNK)
    return None


def _eligible_extensions(
    h: TightHypergraph, col: Coloring, color: int, kept, unused: np.ndarray, path: list[int]
) -> np.ndarray:
    """Unused vertices extending the last k-1 of the path by a live hyperedge."""
    ext, keys = _extensions(h.graph, path[-(h.graph.k - 1) :], unused)
    if ext.size == 0:
        return ext
    ids = h.ids_for_keys(keys)
    ok = ids >= 0
    ok[ok] = _live_bits(col, color, kept, ids[ok])
    return ext[ok]


def greedy_round(
    h: TightHypergraph, col: Coloring, color: int, n: int,
    kept: np.ndarray | None = None, debug: bool = False,
) -> tuple[RoundOutcome, RoundRecord]:
    """Run one greedy round against the live hyperedges: those of ``color``
    in ``col`` whose bits are set in ``kept``, packed as a plane is (all of
    ``color``'s when ``kept`` is None).  Neither is written.

    Its state is three locals: ``path``; ``trash``, a list of (k-1)-vertex
    tuples; and ``unused``, the mask of U.  A start edge (the least live
    hyperedge inside U) or an extension vertex leaves U for the path; a dead
    end moves the path's last k-1 vertices to the trash, still out of U, and
    a leftover shorter than k, no tight path, goes back to U.  It returns
    the outcome and the record of the final path (empty when no start edge
    is left) and trash.  ``debug`` asserts the invariants after every move.

    Each start-edge scan resumes at the last start edge (the cursor ``lo``).
    This is exact: every scan runs with an empty path, so U = V \\ trash;
    the trash only grows, and the live ids do not change within a round; so
    the eligible set only shrinks, and its least id never decreases.
    """
    g = h.graph
    _check_n(n, g.k)
    _check_coloring(h, col, color)
    shape = (-(-len(h) // 8),)
    packed = isinstance(kept, np.ndarray) and kept.dtype == np.uint8 and kept.shape == shape
    if not (kept is None or packed):
        raise ParameterError("kept", f"must be a packed uint8 bit mask of shape {shape}")
    live = (col, color, kept)  # what the live test reads
    path: list[int] = []
    trash: list[tuple[int, ...]] = []
    unused = np.ones(g.num_vertices, dtype=bool)
    lo = 0
    while True:
        if debug:
            _check_round(h, *live, path, trash, unused)
        if len(path) >= n:
            kind = RoundOutcome.PATH_FOUND
            break
        if not path:
            eid = _find_start_edge(h, *live, unused, lo)
            if debug:
                assert eid == _find_start_edge(h, *live, unused), "cursor skipped a start edge"
            if eid is None:
                kind = RoundOutcome.NO_WORKING_EDGE
                break
            lo = eid
            path = list(h.hyperedge(eid))
            unused[path] = False
            continue
        ext = _eligible_extensions(h, *live, unused, path)
        if ext.size:
            path.append(int(ext[0]))
            unused[path[-1]] = False
            continue
        # dead end: trash the last k-1 vertices and retreat
        trash.append(tuple(path[-(g.k - 1) :]))
        del path[-(g.k - 1) :]
        if len(trash) >= n:
            kind = RoundOutcome.TRASH_FULL
            break
        if len(path) < g.k:
            unused[path] = True
            path = []
    if debug:
        _check_round(h, *live, path, trash, unused)
    return kind, RoundRecord(path_snapshot=path, trash=trash_family(g, trash))


# ---------------------------------------------------------------------------
# outer loop and certificate audit
# ---------------------------------------------------------------------------


@dataclass
class FoundPath:
    color: int
    vertices: list[int]


@dataclass
class CertificateAudit:
    """Recomputed counting facts behind a certificate.

    Checks: (a) working-color edges <= sum of per-round restricted extension
    counts plus the final intersecting count; (b) every round's restricted
    count stays under family_extensions/(2kr); (c) the intersecting count
    stays under total/(2r); (d) the rounds' family extension counts sum to
    at most k * total; (e) the working color holds strictly less than 1/r
    of all hyperedges.

    (d) always holds for ``run_outer``'s certificates: a trashed path P is
    the tail of a path of at least k vertices, whose last window is a live
    working edge extending P; the round deletes every working edge extending
    P, so no path is trashed twice; and a cycle has exactly k (k-1)-subpaths.
    """

    k: int
    r: int
    color: int
    total_cycles: int
    working_color_edges: int
    rounds: list[RoundAudit]
    meeting_final_trash: int
    meeting_bound: float
    accounting_ok: bool  # (a)
    per_round_ok: bool  # (b)
    meeting_ok: bool  # (c)
    extension_budget_ok: bool  # (d)
    minority_ok: bool  # (e)
    minority_margin: float


@dataclass
class Certificate:
    color: int
    rounds: list[RoundRecord]
    final_trash: TrashFamily
    intersecting_set: list[int]
    audit: CertificateAudit | None = None


GreedyOutcome = FoundPath | Certificate


def audit_certificate(
    outcome: Certificate,
    h: TightHypergraph,
    g: LayeredGraph,
    col: Coloring,
) -> CertificateAudit:
    """Recompute every certificate quantity from scratch on the graph.

    The total and the meeting count each run their block chains on the
    graph's own blocks, one after the other, and copy no block; one
    ``restricted_check`` pass checks property (i) on every round.
    """
    if g is not h.graph:
        raise ParameterError("g", "hypergraph was built over a different graph")
    color = outcome.color
    _check_coloring(h, col, color)
    total = count_proper_cycles(g)
    if total != len(h):
        raise ParameterError("h", "hypergraph does not enumerate all proper cycles of g")
    working = int(col._counts[color])
    k, r = g.k, col.r
    (meeting,), meeting_bound = meeting_check(g, [outcome.intersecting_set], r, total)
    rounds = restricted_check(g, [(rec.path_snapshot, rec.trash) for rec in outcome.rounds], r)
    sum_y = sum(a.restricted_extensions for a in rounds)
    sum_fam = sum(a.family_extensions for a in rounds)
    return CertificateAudit(
        k=k,
        r=r,
        color=color,
        total_cycles=total,
        working_color_edges=working,
        rounds=rounds,
        meeting_final_trash=meeting,
        meeting_bound=meeting_bound,
        accounting_ok=working <= sum_y + meeting,
        per_round_ok=all(a.ok for a in rounds),
        meeting_ok=meeting < meeting_bound,
        extension_budget_ok=sum_fam <= k * total,
        minority_ok=working < total / r,
        minority_margin=total / r - working,
    )


def run_outer(
    h: TightHypergraph, col: Coloring, n: int, color: int | None = None
) -> GreedyOutcome:
    """Greedy rounds on the host ``h.graph`` with restarts until a path is
    found or edges run out; the working color defaults to col's majority.

    After each trash-full round, every working-color hyperedge extending a
    trashed path is deleted, all of them found in one ``h.family_ids`` pass
    over the round's trash, and the round restarts with a fresh trash set;
    vertices stay usable.  Terminates because each trashed path forces at
    least one fresh deletion (the window that carried it into the path).
    A certificate is returned with its audit attached.
    """
    _check_n(n, h.graph.k)
    # totality before the tally; the majority is one of col's colors, as 0 is
    _check_coloring(h, col, 0 if color is None else color)
    if color is None:
        color = pick_majority_color(col.counts())
    kept = None  # every id is kept until the first restart deletes some
    rounds: list[RoundRecord] = []
    for _ in range(len(h) + 2):
        kind, rec = greedy_round(h, col, color, n, kept)
        if kind is RoundOutcome.PATH_FOUND:
            return FoundPath(color=color, vertices=rec.path_snapshot)
        if kind is RoundOutcome.TRASH_FULL:
            rounds.append(rec)
            if kept is None:
                _check_fits_in_memory("kept flags", col.planes.shape[1])
                kept = np.full(col.planes.shape[1], 255, dtype=np.uint8)
            _clear_bits(kept, h.family_ids(rec.trash))
            continue
        cset = sorted(rec.trash.rows.ravel().tolist())
        cert = Certificate(
            color=color, rounds=rounds, final_trash=rec.trash, intersecting_set=cset
        )
        cert.audit = audit_certificate(cert, h, h.graph, col)
        return cert
    raise AssertionError("outer loop failed to terminate")  # pragma: no cover


def outcome_to_json(outcome: GreedyOutcome) -> dict:
    """JSON form of a greedy outcome for run reports."""
    if isinstance(outcome, FoundPath):
        return {
            "kind": "path",
            "color": outcome.color,
            "vertices": list(map(int, outcome.vertices)),
        }
    audit = outcome.audit
    return {
        "kind": "certificate",
        "color": outcome.color,
        "rounds": [
            {
                "path_snapshot": list(map(int, rec.path_snapshot)),
                "trash": rec.trash.rows.tolist(),
            }
            for rec in outcome.rounds
        ],
        "final_trash": outcome.final_trash.rows.tolist(),
        "intersecting_set": list(map(int, outcome.intersecting_set)),
        "audit": None if audit is None else asdict(audit),
    }
