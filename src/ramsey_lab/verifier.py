"""Monte Carlo checks of the construction's counting properties.

Properties (i) and (ii) are one function each, ``restricted_check`` and
``meeting_check``, shared by the sampled checks and the certificate audit.

The structural claims are universally quantified over exponentially many
family/set choices, so desk-scale verification samples them: random
disjoint path families with random restriction sets for the extension
ratio, random (plus one adversarial, highest-traffic) vertex sets for the
intersection ratio, and repeated graph regeneration for concentration of
the counting statistics.  Every trial derives its RNG stream from
(master seed, trial index), so reports are reproducible.  Trials run one
after another; the only parallelism is the BLAS library behind numpy's
matrix products.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import chernoff_lower, chernoff_upper, expected_stats, poly_concentration_scale
from .cycles import (
    TrashFamily,
    count_cycles_meeting,
    count_family_extensions,
    count_proper_cycles,
    count_restricted_extensions,
    cycles_per_vertex,
    cycles_through_vertex,
    proper_path,
    trash_family,
)
from .errors import ConfigError, ParameterError
from .layered_graph import GraphParams, LayeredGraph, generate_random
from .seeds import derive_seed, spawn_rng

__all__ = [
    "EPSILON_GRID",
    "PropertyReport",
    "RatioReport",
    "ConcentrationReport",
    "RoundAudit",
    "restricted_check",
    "meeting_check",
    "sample_trash_family",
    "check_property_i",
    "check_property_ii",
    "check_property_iii",
    "concentration_experiment",
    "CONCENTRATION_STATISTICS",
]

EPSILON_GRID = (0.1, 0.25, 0.5)

CONCENTRATION_STATISTICS = (
    "total_cycles",
    "cycles_through_vertex",
    "single_path_extensions",
)


@dataclass
class PropertyReport:
    """Outcome of sampled checks of one structural property."""

    property_id: str
    trials: int
    violations: int
    passes: int
    skips: int
    margin_min: float | None
    margin_mean: float | None
    params: dict
    rows: list[dict] | None = None

    def __post_init__(self):
        if self.violations + self.passes + self.skips != self.trials:
            raise ParameterError("trial counts do not add up")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RatioReport:
    """Total cycle count against the (n ln n)^(k/2) scaling denominators."""

    total_cycles: int
    c_eff: float
    ratio_c: float
    ratio_r: float
    params: dict

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RoundAudit:
    """Property (i) on one family; its fields are the report's ``audit.rounds`` keys."""

    restricted_extensions: int  # cycles extending a family path by a vertex of aset or the family
    family_extensions: int  # cycles extending some family path
    bound: float  # family_extensions / (2kr)
    margin: float
    ok: bool


def restricted_check(g: LayeredGraph, aset, fam: TrashFamily, r: int) -> RoundAudit:
    """Property (i): restricted extensions of ``fam`` stay under family/(2kr)."""
    y = count_restricted_extensions(g, aset, fam)
    t_fam = count_family_extensions(g, fam)
    bound = t_fam / (2 * g.k * r)
    return RoundAudit(y, t_fam, bound, margin=bound - y, ok=y < bound)


def meeting_check(g: LayeredGraph, cset, r: int, total: int) -> tuple[int, float]:
    """Property (ii): cycles meeting ``cset`` against total/(2r); returns (count, bound)."""
    return count_cycles_meeting(g, cset), total / (2 * r)


def sample_trash_family(
    g: LayeredGraph, n_paths: int, rng: np.random.Generator, budget: int | None = None
) -> TrashFamily | None:
    """Greedy random packing of disjoint (k-1)-vertex proper paths.

    Each attempt picks a uniform unused start vertex and walks forward
    through unused vertices; ``None`` on starvation (budget exhausted,
    default 100*n attempts) rather than an error.
    """
    if budget is None:
        budget = 100 * n_paths
    nv = g.num_vertices
    used = np.zeros(nv, dtype=bool)
    paths = []
    unused_ids = np.arange(nv)
    attempts = 0
    while len(paths) < n_paths:
        if attempts >= budget:
            return None
        attempts += 1
        if unused_ids.size == 0:
            return None
        start = int(rng.choice(unused_ids))
        seq = [start]
        ok = True
        for _ in range(g.k - 2):
            part = (g.part_of(seq[-1]) + 1) % g.k
            mask = g.forward_mask(seq[-1]) & ~used[part * g.m : (part + 1) * g.m]
            cand = np.nonzero(mask)[0]
            if cand.size == 0:
                ok = False
                break
            seq.append(int(rng.choice(cand)) + part * g.m)
        if not ok:
            continue
        paths.append(proper_path(g, seq))
        used[seq] = True
        unused_ids = np.nonzero(~used)[0]
    return trash_family(g, paths)


def _finish(prop: str, trials: int, outcomes: list, params: dict, emit) -> PropertyReport:
    violations = sum(1 for o in outcomes if o[0] == "violation")
    passes = sum(1 for o in outcomes if o[0] == "pass")
    skips = sum(1 for o in outcomes if o[0] == "skip")
    margins = [o[1] for o in outcomes if o[0] != "skip"]
    rows = None
    if emit:
        rows = [
            {
                "trial": i,
                "statistic": o[2],
                "value": o[3],
                "expectation": o[4],
                "ratio": (o[3] / o[4]) if o[4] else None,
            }
            for i, o in enumerate(outcomes)
            if o[0] != "skip"
        ]
    return PropertyReport(
        property_id=prop,
        trials=trials,
        violations=violations,
        passes=passes,
        skips=skips,
        margin_min=min(margins) if margins else None,
        margin_mean=(sum(margins) / len(margins)) if margins else None,
        params=params,
        rows=rows,
    )


def check_property_i(
    g: LayeredGraph,
    r: int,
    n: int,
    trials: int,
    seed: int,
    emit_trials: bool = False,
) -> PropertyReport:
    """Sampled check that restricted extensions stay under family/(2kr).

    Per trial: a family of n disjoint (k-1)-paths (skip on starvation), a
    disjoint vertex set of size min(n, rest), then a violation iff the
    restricted extension count reaches family_extensions/(2kr).
    """
    if r < 2 or n < 1 or trials < 0:
        raise ConfigError("trials", f"need r >= 2, n >= 1, trials >= 0; got {r}, {n}, {trials}")
    k = g.k

    def one(trial: int):
        rng = spawn_rng(seed, trial)
        fam = sample_trash_family(g, n, rng)
        if fam is None:
            return ("skip", None, "restricted_extensions", None, None)
        rest = np.nonzero(~np.isin(np.arange(g.num_vertices), sorted(fam.vertex_set())))[0]
        a_size = min(n, rest.size)
        aset = rng.choice(rest, size=a_size, replace=False) if a_size else np.empty(0, int)
        a = restricted_check(g, aset, fam, r)
        kind = "pass" if a.ok else "violation"
        return (kind, a.margin, "restricted_extensions", a.restricted_extensions, a.bound)

    outcomes = [one(t) for t in range(trials)]
    params = {
        "k": k,
        "m": g.m,
        "r": r,
        "n": n,
        "seed": seed,
        "trials": trials,
        # the canonical-scale comparator mean for restricted extensions is
        # 2*n*ln(n); the check itself counts per the definition, which admits
        # up to k*n^2 candidate pairs, so the two are reported side by side
        "restricted_pairs_reference_mean": 2.0 * n * math.log(n) if n > 1 else 0.0,
    }
    return _finish("i", trials, outcomes, params, emit_trials)


def check_property_ii(
    g: LayeredGraph,
    r: int,
    n: int,
    trials: int,
    seed: int,
    include_adversarial: bool = True,
    emit_trials: bool = False,
) -> PropertyReport:
    """Sampled check that cycles meeting a (k-1)n-set stay under total/(2r).

    Trial 0 (when included) uses the adversarial set of the (k-1)n vertices
    carrying the most cycles; remaining trials sample uniformly.  Trials on
    a cycle-free graph are vacuous skips.
    """
    if r < 2 or n < 1 or trials < 0:
        raise ConfigError("trials", f"need r >= 2, n >= 1, trials >= 0; got {r}, {n}, {trials}")
    k = g.k
    c_size = (k - 1) * n
    if g.num_vertices < c_size:
        raise ConfigError("n", f"graph has {g.num_vertices} vertices, need {c_size}")
    total = count_proper_cycles(g)
    heavy: np.ndarray | None = None
    if include_adversarial and trials > 0 and total > 0:
        per_vertex = cycles_per_vertex(g)
        heavy = np.argsort(-per_vertex, kind="stable")[:c_size]

    def one(trial: int):
        if total == 0:
            return ("skip", None, "meeting_count", None, None)
        if trial == 0 and heavy is not None:
            cset = heavy
        else:
            rng = spawn_rng(seed, trial)
            cset = rng.choice(g.num_vertices, size=c_size, replace=False)
        z, bound = meeting_check(g, cset, r, total)
        kind = "violation" if z >= bound else "pass"
        return (kind, bound - z, "meeting_count", z, bound)

    outcomes = [one(t) for t in range(trials)]
    params = {
        "k": k,
        "m": g.m,
        "r": r,
        "n": n,
        "seed": seed,
        "trials": trials,
        "set_size": c_size,
        "adversarial_first": bool(heavy is not None),
    }
    return _finish("ii", trials, outcomes, params, emit_trials)


def check_property_iii(
    g: LayeredGraph, r: int, n: int, c_eff: float | None = None
) -> RatioReport:
    """Total cycle count relative to c^k (n ln n)^(k/2) and r^k (n ln n)^(k/2)."""
    if n < 2:
        raise ConfigError("n", f"need n >= 2 for the ln n scaling, got {n}")
    k = g.k
    if c_eff is None:
        c_eff = g.m / n
    if not (math.isfinite(c_eff) and c_eff > 0):
        raise ConfigError("c_eff", f"must be positive and finite, got {c_eff!r}")
    total = count_proper_cycles(g)
    scale = (n * math.log(n)) ** (k / 2.0)
    ratio_c = total / ((c_eff**k) * scale)
    ratio_r = total / ((r**k) * scale)
    return RatioReport(
        total_cycles=total,
        c_eff=c_eff,
        ratio_c=ratio_c,
        ratio_r=ratio_r,
        params={"k": k, "m": g.m, "r": r, "n": n},
    )


# ---------------------------------------------------------------------------
# concentration experiments
# ---------------------------------------------------------------------------


@dataclass
class ConcentrationReport:
    statistic: str
    trials: int
    skips: int
    expectation: float
    mean: float | None
    variance: float | None
    minimum: float | None
    maximum: float | None
    outside_fraction: dict[str, float]
    analytic_bounds: dict[str, dict[str, float]]
    params: dict
    rows: list[dict] | None = None

    def to_json(self) -> dict:
        return asdict(self)


def concentration_experiment(
    base: GraphParams,
    statistic: str,
    trials: int,
    seed: int,
    fixed_vertex: int = 0,
    emit_trials: bool = False,
) -> ConcentrationReport:
    """Regenerate the random graph per trial and track one counting statistic.

    Reports mean/variance/min/max, the fraction of trials outside
    (1 +- eps) * expectation for eps in EPSILON_GRID, and the binomial-style
    analytic tail bounds at those deviations.  For cycles_through_vertex the
    degree-k concentration threshold inversion is reported as well (with the
    vertex count standing in for the union-bound range).
    """
    if statistic not in CONCENTRATION_STATISTICS:
        raise ConfigError("statistic", f"unknown statistic {statistic!r}")
    if trials < 0:
        raise ConfigError("trials", "trials must be >= 0")
    stats = expected_stats(base.k, base.part_size, base.edge_prob)
    expectation = {
        "total_cycles": stats.total_cycles,
        "cycles_through_vertex": stats.cycles_per_vertex,
        "single_path_extensions": stats.extensions_per_path,
    }[statistic]

    def one(trial: int):
        params = GraphParams(
            k=base.k,
            part_size=base.part_size,
            edge_prob=base.edge_prob,
            seed=derive_seed(seed, trial, 0),
        )
        g = generate_random(params)
        if statistic == "total_cycles":
            return float(count_proper_cycles(g))
        if statistic == "cycles_through_vertex":
            return float(cycles_through_vertex(g, fixed_vertex))
        fam = sample_trash_family(g, 1, spawn_rng(seed, trial, 1))
        if fam is None:
            return None
        return float(count_family_extensions(g, fam))

    values = [one(t) for t in range(trials)]
    kept = [v for v in values if v is not None]
    skips = len(values) - len(kept)
    arr = np.array(kept, dtype=np.float64)
    outside = {}
    analytic = {}
    for eps in EPSILON_GRID:
        key = f"{eps:g}"
        if arr.size and expectation > 0:
            frac = float((np.abs(arr - expectation) > eps * expectation).mean())
        else:
            frac = 0.0
        outside[key] = frac
        if expectation > 0:
            lam = eps * expectation
            analytic[key] = {
                "binomial_lower": chernoff_lower(expectation, lam),
                "binomial_upper": chernoff_upper(expectation, lam),
            }
            if statistic == "cycles_through_vertex" and stats.cycles_per_vertex_prime > 0:
                scale = poly_concentration_scale(base.k) * math.sqrt(
                    stats.cycles_per_vertex * stats.cycles_per_vertex_prime
                )
                lam_poly = (lam / scale) ** (1.0 / base.k)
                analytic[key]["poly_lambda"] = lam_poly
                analytic[key]["poly_tail_exponent"] = -lam_poly + (
                    base.k - 1
                ) * math.log(base.k * base.part_size)
        else:
            analytic[key] = {}
    rows = None
    if emit_trials:
        rows = [
            {
                "trial": i,
                "statistic": statistic,
                "value": v,
                "expectation": expectation,
                "ratio": (v / expectation) if (v is not None and expectation) else None,
            }
            for i, v in enumerate(values)
            if v is not None
        ]
    return ConcentrationReport(
        statistic=statistic,
        trials=trials,
        skips=skips,
        expectation=expectation,
        mean=float(arr.mean()) if arr.size else None,
        variance=float(arr.var(ddof=1)) if arr.size > 1 else None,
        minimum=float(arr.min()) if arr.size else None,
        maximum=float(arr.max()) if arr.size else None,
        outside_fraction=outside,
        analytic_bounds=analytic,
        params={
            "k": base.k,
            "m": base.part_size,
            "p": base.edge_prob,
            "seed": seed,
            "trials": trials,
            "fixed_vertex": fixed_vertex,
        },
        rows=rows,
    )
