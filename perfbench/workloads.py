"""The benchmark's workloads and the checks on the reports they produce.

A workload maps the benchmark seed to the argument lists of the
``ramsey_lab.cli`` processes that make up one operation.  The graphs are
pinned: instance D (dense), S (sparse, restart-heavy) and C (canonical)
are the ones the ROADMAP names, and their sizes and restart history are
what each workload is for.  The seed moves only what a run samples and
whose cost does not depend on the draw: D's coloring seed on
``dense-greedy`` and the trial seeds on ``dense-verify``.  Seed 0 gives
the default seeds.  S's coloring stays at 11 because its 672 restart
rounds (and the audit failure they expose) belong to that one coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

D_GRAPH = ("--k", "3", "--m", "1200", "--p", "0.3367094386194203", "--seed", "20260810")
S_GRAPH = ("--k", "3", "--m", "1200", "--p", "0.02", "--seed", "7")
# the CLI's default coloring seed for D, derive_seed(20260810, 1)
D_COLORING_SEED = 911408174054462060


def _offset(base: int, seed: int) -> str:
    return str((base + seed) % 2**64)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Callable[[int], list[list[str]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-greedy",
            "instance D: enumeration of 65.8M hyperedges and the color tallies dominate; "
            "the greedy finds a path at once",
            lambda seed: [
                ["greedy", *D_GRAPH, "--r", "2", "--n", "30", "--coloring", "random",
                 "--coloring-seed", _offset(D_COLORING_SEED, seed)],
            ],
        ),
        Workload(
            "sparse-restart",
            "instance S: 672 restart rounds, start-edge scans and the certificate audit "
            "dominate; writes the only large report",
            lambda seed: [
                ["greedy", *S_GRAPH, "--r", "2", "--n", "10", "--coloring", "random",
                 "--coloring-seed", "11"],
            ],
        ),
        Workload(
            "dense-verify",
            "instance D: property i and ii sampling, 81 exact counts in a loop, "
            "nothing enumerated",
            lambda seed: [
                ["verify", "--property", "i", *D_GRAPH, "--r", "2", "--n", "30",
                 "--trials", "200", "--trial-seed", _offset(4101, 2 * seed)],
                ["verify", "--property", "ii", *D_GRAPH, "--r", "2", "--n", "30",
                 "--trials", "40", "--trial-seed", _offset(4102, 2 * seed)],
            ],
        ),
        # Not in BENCHMARK.json: one sample takes 13-18 s here, too few fit a gated
        # run to make it steady (see README.md).  Run it by hand for paper scale.
        Workload(
            "canonical-count",
            "instance C (m=8640): the only workload where generation is heavy; "
            "one count of 24.6e9 proper cycles",
            # --r/--n repeat the canonical R and N: verify drops them otherwise
            lambda seed: [
                ["verify", "--property", "iii", "--canonical", "3", "2", "30", "--seed", "1",
                 "--r", "2", "--n", "30"],
            ],
        ),
        # Not in BENCHMARK.json: a seconds-long run of every check, for the tests.
        Workload(
            "smoke",
            "k=3, m=60: a certificate, a path and all three properties in seconds",
            lambda seed: [
                ["greedy", "--k", "3", "--m", "60", "--p", "0.1", "--seed", "1", "--r", "2",
                 "--n", "8", "--coloring", "random", "--coloring-seed", _offset(11, seed)],
                ["greedy", "--k", "3", "--m", "60", "--p", "0.15", "--seed", "1", "--r", "2",
                 "--n", "8", "--coloring", "random", "--coloring-seed", _offset(11, seed)],
                ["verify", "--property", "i", "--k", "3", "--m", "60", "--p", "0.3", "--seed",
                 "1", "--r", "2", "--n", "6", "--trials", "10", "--trial-seed", _offset(1, seed)],
                ["verify", "--property", "ii", "--k", "3", "--m", "60", "--p", "0.3", "--seed",
                 "1", "--r", "2", "--n", "6", "--trials", "5", "--trial-seed", _offset(2, seed)],
                ["verify", "--property", "iii", "--canonical", "3", "2", "30", "--m", "60",
                 "--seed", "1", "--r", "2", "--n", "30"],
            ],
        ),
    )
}

# verify exits 2 when it found property violations; that is a result, not a failure
ALLOWED_EXIT = {"greedy": {0}, "verify": {0, 2}}


def unsound_certificate(doc: dict) -> bool:
    """True when an emitted certificate fails one of its own soundness checks.

    Checks (a) accounting, (d) extension budget and the rule that (b) and (c)
    force (e).  Checks (b), (c) and (e) alone say whether the graph has the
    paper's properties and may be false at desk scale.
    """
    outcome = doc["results"].get("outcome")
    if not outcome or outcome["kind"] != "certificate":
        return False
    a = outcome["audit"]
    consistent = a["minority_ok"] or not (a["per_round_ok"] and a["meeting_ok"])
    return not (a["accounting_ok"] and a["extension_budget_ok"] and consistent)


def rotated_total(blocks: list[np.ndarray]) -> int:
    """Proper-cycle total as trace(B1 ... B(k-1) B0), an order the library does not use.

    Entries of the partial product count paths, at most m**(k-2); float32
    holds them exactly below 2**24, and the final sum is taken in float64.
    """
    order = blocks[1:] + blocks[:1]
    m, k = blocks[0].shape[0], len(blocks)
    dtype = np.float32 if m ** (k - 2) < 2**24 else np.float64
    prod = order[0].astype(dtype)
    for b in order[1:-1]:
        prod = prod @ b.astype(dtype)
    return int(np.add.reduce(prod * order[-1].T, axis=None, dtype=np.float64))


def _graph(config: dict):
    from ramsey_lab.layered_graph import GraphParams, generate_random

    return generate_random(
        GraphParams(int(config["k"]), int(config["m"]), float(config["p"]), int(config["seed"]))
    )


def _check_greedy(doc: dict) -> list[str]:
    from ramsey_lab.cycles import build_hypergraph, trash_family, validate_tight_path
    from ramsey_lab.greedy import (
        Certificate,
        RoundRecord,
        audit_certificate,
        outcome_to_json,
        random_coloring,
    )

    config, results = doc["config"], doc["results"]
    if config["coloring"] != "random":
        return [f"no check for coloring {config['coloring']!r}"]
    g = _graph(config)
    h = build_hypergraph(g)
    col = random_coloring(h, int(config["r"]), int(config["coloring_seed"]))
    problems = []
    if results["total_cycles"] != len(h):
        problems.append(f"total_cycles {results['total_cycles']} != {len(h)}")
    outcome = results["outcome"]
    if outcome["kind"] == "path":
        if len(outcome["vertices"]) != int(config["n"]):
            problems.append(f"path has {len(outcome['vertices'])} vertices, n={config['n']}")
        if not validate_tight_path(h, outcome["vertices"], col, outcome["color"]):
            problems.append("path is not a tight path of the working color")
        return problems
    cert = Certificate(
        color=outcome["color"],
        rounds=[
            RoundRecord(path_snapshot=rec["path_snapshot"], trash=trash_family(g, rec["trash"]))
            for rec in outcome["rounds"]
        ],
        final_trash=trash_family(g, outcome["final_trash"]),
        intersecting_set=outcome["intersecting_set"],
    )
    cert.audit = audit_certificate(cert, h, g, col)
    if outcome_to_json(cert)["audit"] != outcome["audit"]:
        problems.append("recomputed audit differs from the report's audit block")
    return problems


def _check_verify(doc: dict) -> list[str]:
    config, results = doc["config"], doc["results"]
    if config["property"] == "iii":
        recount = rotated_total(_graph(config).blocks)
        if results["total_cycles"] != recount:
            return [f"total_cycles {results['total_cycles']} != rotated recount {recount}"]
        return []
    tally = results["passes"] + results["violations"] + results["skips"]
    if tally != results["trials"] or results["trials"] != int(config["trials"]):
        return [f"passes+violations+skips={tally}, trials={results['trials']}"]
    return []


def check_report(doc: dict) -> list[str]:
    """Problems found in one report; empty when its outputs check out."""
    return {"greedy": _check_greedy, "verify": _check_verify}[doc["mode"]](doc)
