"""Experiment runner: generation, enumeration, coloring, greedy runs,
property verification, concentration experiments, and brute-force checks.

One process runs one mode.  A run is configured by a JSON document
(``--config run.json``) and/or flags; flag names mirror config keys 1:1 and
flags win.  Every run emits a JSON report (to ``--report`` or stdout) whose
bytes depend only on the resolved config and seeds, timestamp aside.

Exit codes: 0 success, 2 when a verify run found property violations,
1 on configuration or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cycles as _cycles
from .cycles import (
    DEFAULT_CYCLE_CAP,
    TightHypergraph,
    build_hypergraph,
    count_proper_cycles,
)
from .errors import ConfigError, InvariantViolationError, ParameterError, ResourceLimitError
from .greedy import (
    Coloring,
    adversarial_coloring,
    outcome_to_json,
    pick_majority_color,
    random_coloring,
    run_outer,
)
from .layered_graph import GraphParams, LayeredGraph, canonical_params, generate_random
from .oracle import arrow_check, brute_force_cycle_keys, tight_path_exists
from .reporting import canonical_json, make_report, write_report, write_trials_csv
from .seeds import derive_seed
from .verifier import (
    CONCENTRATION_STATISTICS,
    check_property_i,
    check_property_ii,
    check_property_iii,
    concentration_experiment,
)

__all__ = ["main", "run", "resolve_config", "build_parser"]

MODES = ("generate", "enumerate", "color", "greedy", "verify", "concentration", "oracle")

COLORING_STRATEGIES = ("random", "round_robin", "vertex_cut", "balanced_greedy")

# the JSON kind of every config key (every flag's destination), named as the
# error names it; see _has_kind.
_INT, _NUMBER, _STRING = "an integer", "a finite number", "a string"
_TRIPLE = "three integers K R N"
_CONFIG_KINDS = {
    "graph": _STRING, "k": _INT, "m": _INT, "p": _NUMBER, "seed": _INT, "canonical": _TRIPLE,
    "report": _STRING, "out": _STRING, "cycle_cap": _INT, "export_hypergraph": _STRING,
    "r": _INT, "n": _INT, "strategy": _STRING, "coloring": _STRING, "coloring_seed": _INT,
    "color": _INT, "property": _STRING, "trials": _INT, "trial_seed": _INT, "c_eff": _NUMBER,
    "emit_trials": _STRING, "statistic": _STRING,
    "fixed_vertex": _INT, "check": _STRING,
}


# ---------------------------------------------------------------------------
# argument parsing and config resolution
# ---------------------------------------------------------------------------


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", help="read the graph from a JSON file")
    sub.add_argument("--k", type=int, help="number of parts (>= 3)")
    sub.add_argument("--m", type=int, help="vertices per part")
    sub.add_argument("--p", type=float, help="edge probability")
    sub.add_argument("--seed", type=int, help="graph seed (64-bit)")
    sub.add_argument(
        "--canonical",
        nargs=3,
        type=int,
        metavar=("K", "R", "N"),
        help="canonical parameterization: c=16k^2r, m=c*n, p=sqrt(ln n/n); "
        "--m/--p still override",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ramsey-lab", description=__doc__)
    subs = parser.add_subparsers(dest="mode", required=True)

    common: dict[str, argparse.ArgumentParser] = {}
    for mode in MODES:
        sub = subs.add_parser(mode)
        sub.add_argument("--config", help="JSON config file; flags override")
        sub.add_argument("--report", help="report output path (default: stdout)")
        common[mode] = sub

    _add_graph_source(common["generate"])
    common["generate"].add_argument("--out", help="graph file output path")

    for mode in ("enumerate", "color", "greedy", "verify", "oracle"):
        _add_graph_source(common[mode])
        common[mode].add_argument("--cycle-cap", dest="cycle_cap", type=int)

    common["enumerate"].add_argument(
        "--export-hypergraph", dest="export_hypergraph", help="hypergraph JSON output path"
    )

    common["color"].add_argument("--r", type=int)
    common["color"].add_argument("--strategy", choices=COLORING_STRATEGIES)
    common["color"].add_argument("--coloring-seed", dest="coloring_seed", type=int)
    common["color"].add_argument("--out", help="coloring file output path")

    common["greedy"].add_argument("--r", type=int)
    common["greedy"].add_argument("--n", type=int)
    common["greedy"].add_argument(
        "--coloring",
        help="one of random/round_robin/vertex_cut/balanced_greedy or @file.json",
    )
    common["greedy"].add_argument("--coloring-seed", dest="coloring_seed", type=int)
    common["greedy"].add_argument("--color", type=int, help="working color (default: majority)")

    common["verify"].add_argument("--property", choices=("i", "ii", "iii"))
    common["verify"].add_argument("--r", type=int)
    common["verify"].add_argument("--n", type=int)
    common["verify"].add_argument("--trials", type=int)
    common["verify"].add_argument("--trial-seed", dest="trial_seed", type=int)
    common["verify"].add_argument("--c-eff", dest="c_eff", type=float)
    common["verify"].add_argument("--emit-trials", dest="emit_trials", help="CSV output path")

    common["concentration"].add_argument("--statistic", choices=CONCENTRATION_STATISTICS)
    common["concentration"].add_argument("--k", type=int)
    common["concentration"].add_argument("--m", type=int)
    common["concentration"].add_argument("--p", type=float)
    common["concentration"].add_argument("--trials", type=int)
    common["concentration"].add_argument("--seed", type=int)
    common["concentration"].add_argument("--fixed-vertex", dest="fixed_vertex", type=int)
    common["concentration"].add_argument("--emit-trials", dest="emit_trials")

    common["oracle"].add_argument("--check", choices=("cycles", "tight-path", "arrow"))
    common["oracle"].add_argument("--n", type=int)
    common["oracle"].add_argument("--r", type=int)
    common["oracle"].add_argument("--coloring", help="@file.json coloring for tight-path")
    common["oracle"].add_argument("--color", type=int)

    return parser


def _has_kind(value, kind: str) -> bool:
    """Whether a JSON or flag value is of a config kind; a bool is never a number."""
    if kind == _NUMBER:
        # refuses NaN, +-inf and ints beyond float range in one comparison
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if kind == _TRIPLE:
        return type(value) is list and len(value) == 3 and all(type(x) is int for x in value)
    return type(value) is (int if kind == _INT else str)


def resolve_config(mode: str, args: argparse.Namespace) -> dict:
    """Merge config file and flags (flags win) into one resolved mapping.

    The one place config values are checked: every key must be a flag of
    the mode and every value of its key's kind.  A null counts as unset, so
    the resolved mapping holds JSON-native values only.
    """
    config: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError("config", str(exc))
        if not isinstance(loaded, dict):
            raise ConfigError("config", "config file must hold a JSON object")
        config.update(loaded)
    flags = {key: value for key, value in vars(args).items() if key not in ("mode", "config")}
    config.update((key, value) for key, value in flags.items() if value is not None)
    for key, value in config.items():
        kind = _CONFIG_KINDS.get(key)
        if kind is not None and value is not None and not _has_kind(value, kind):
            raise ConfigError(key, f"must be {kind}, got {value!r:.40}")
    unknown = sorted(config.keys() - flags.keys())
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    config = {key: value for key, value in config.items() if value is not None}
    if config.get("cycle_cap", 1) <= 0:
        raise ConfigError("cycle_cap", "must be positive")
    return config


def _required(config: dict, field: str):
    """The value of a config key the mode cannot run without."""
    if field not in config:
        raise ConfigError(field, "required")
    return config[field]


def _expand_canonical(config: dict) -> None:
    """Apply the canonical parameterization in place, keeping explicit overrides."""
    if "canonical" not in config:
        return
    k, r, n = config["canonical"]
    params = canonical_params(k, r, n)
    config["k"] = k
    config.setdefault("r", r)
    config.setdefault("n", n)
    config.setdefault("m", params.part_size)
    config.setdefault("p", params.p)
    config["canonical_expansion"] = {
        "c": params.c,
        "part_size": params.part_size,
        "p": params.p,
    }


def _resolve_graph(config: dict) -> LayeredGraph:
    """Build or load the graph, recording its resolved source in config."""
    if config.get("graph"):
        clash = [f for f in ("k", "m", "p", "seed", "canonical") if f in config]
        if clash:
            raise ConfigError(
                "graph", f"give either a graph file or generation parameters, not both ({', '.join(clash)})"
            )
        try:
            g = LayeredGraph.load(config["graph"])
        except (OSError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError("graph", f"cannot read graph file {config['graph']}: {exc}")
        config.update(k=g.k, m=g.m)
        return g
    _expand_canonical(config)
    for fieldname in ("k", "m", "p", "seed"):
        if fieldname not in config:
            raise ConfigError(fieldname, "required (or provide --graph/--canonical)")
    config["p"] = float(config["p"])
    return generate_random(
        GraphParams(k=config["k"], part_size=config["m"], edge_prob=config["p"], seed=config["seed"])
    )


def _hypergraph(config: dict, g: LayeredGraph) -> TightHypergraph:
    return build_hypergraph(g, config.get("cycle_cap", DEFAULT_CYCLE_CAP))


def _resolve_coloring(config: dict, h: TightHypergraph, default_seed: int) -> Coloring:
    """Read or draw the run's coloring of h, recording its resolved source in config."""
    choice = config.get("coloring", "random")
    r = _required(config, "r")
    if choice.startswith("@"):
        path = choice[1:]
        try:
            with open(path) as fh:
                col = Coloring.from_json(json.load(fh))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError("coloring", f"cannot read coloring file {path}: {exc}")
        if col.r != r:
            raise ConfigError("coloring", f"file has r={col.r}, run has r={r}")
        if col.colors.size != len(h):
            raise ConfigError(
                "coloring", f"file colors {col.colors.size} edges, hypergraph has {len(h)}"
            )
        return col
    if choice not in COLORING_STRATEGIES:
        raise ConfigError("coloring", f"unknown strategy {choice!r}")
    config["coloring"] = choice
    seed = config.setdefault("coloring_seed", default_seed)
    if choice == "random":
        return random_coloring(h, r, seed)
    return adversarial_coloring(h, r, choice, seed)


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------


def _mode_generate(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    out = config.get("out")
    if out:
        g.save(out)
    return 0, {
        "vertex_count": g.num_vertices,
        "edge_count": g.edge_count(),
        "written": bool(out),
    }


def _mode_enumerate(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    cap = config.get("cycle_cap", DEFAULT_CYCLE_CAP)
    total = count_proper_cycles(g)
    results = {
        "total_cycles": total,
        "vertex_count": g.num_vertices,
        "edge_count": g.edge_count(),
    }
    export = config.get("export_hypergraph")
    if export:
        h = build_hypergraph(g, cap)
        with open(export, "w") as fh:
            json.dump(h.to_json(), fh, separators=(",", ":"))
            fh.write("\n")
        results["exported"] = export
    elif total > cap:
        raise ResourceLimitError("proper cycle count exceeds cap", total, cap)
    return 0, results


def _mode_color(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    h = _hypergraph(config, g)
    config["coloring"] = config.get("strategy", "random")
    col = _resolve_coloring(config, h, default_seed=derive_seed(config.get("seed", 0), 1))
    out = config.get("out")
    if out:
        with open(out, "w") as fh:
            json.dump(col.to_json(), fh, separators=(",", ":"))
            fh.write("\n")
    return 0, {
        "hyperedges": len(h),
        "color_counts": [int(c) for c in col.counts()],
        "written": bool(out),
    }


def _mode_greedy(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    n = _required(config, "n")
    h = _hypergraph(config, g)
    col = _resolve_coloring(config, h, default_seed=derive_seed(config.get("seed", 0), 1))
    if len(h) == 0:
        raise ParameterError("graph has no proper cycles; nothing to color or traverse")
    counts = col.counts()
    majority = pick_majority_color(counts)
    color = config.get("color", majority)
    outcome = run_outer(h, g, col, n, color=color)
    return 0, {
        "total_cycles": len(h),
        "color_counts": counts.tolist(),
        "majority_color": majority,
        "working_color": color,
        "n": n,
        "outcome": outcome_to_json(outcome),
    }


def _trials_doc(report, config: dict) -> dict:
    """The report's JSON with its trial rows moved to the ``emit_trials`` CSV, if any."""
    doc = report.to_json()
    emit = config.get("emit_trials")
    if emit:
        write_trials_csv(report.rows, emit)
        doc["trials_csv"] = emit
    doc["rows"] = None  # rows live in the CSV; keep the JSON report compact
    return doc


def _mode_verify(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    prop = config.get("property")
    if prop not in ("i", "ii", "iii"):
        raise ConfigError("property", "must be one of i, ii, iii")
    r, n = config.get("r", 0), config.get("n", 0)
    if r < 2:
        raise ConfigError("r", "required, must be >= 2")
    if n < 1:
        raise ConfigError("n", "required, must be >= 1")
    if prop == "iii":
        report = check_property_iii(g, r, n, c_eff=config.get("c_eff"))
        return 0, report.to_json()
    trial_seed = config.setdefault("trial_seed", derive_seed(config.get("seed", 0), 2))
    check = check_property_i if prop == "i" else check_property_ii
    report = check(g, r, n, config.get("trials", 0), trial_seed)
    return (2 if report.violations else 0), _trials_doc(report, config)


def _mode_concentration(config: dict) -> tuple[int, dict]:
    k, m, p, statistic, trials = (
        _required(config, f) for f in ("k", "m", "p", "statistic", "trials")
    )
    report = concentration_experiment(
        GraphParams(k=k, part_size=m, edge_prob=float(p), seed=0),
        statistic,
        trials,
        config.get("seed", 0),
        fixed_vertex=config.get("fixed_vertex", 0),
    )
    return 0, _trials_doc(report, config)


def _mode_oracle(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    check = config.get("check")
    if check == "cycles":
        keys = brute_force_cycle_keys(g)
        fast = _cycles.cycle_keys(g)
        return 0, {
            "check": "cycles",
            "count": int(keys.size),
            "agrees_with_enumeration": bool(np.array_equal(keys, fast)),
        }
    if check not in ("tight-path", "arrow"):
        raise ConfigError("check", "must be one of cycles, tight-path, arrow")
    h = _hypergraph(config, g)
    n = _required(config, "n")
    if check == "tight-path":
        col = None
        color = config.get("color")
        if config.get("coloring"):
            col = _resolve_coloring(config, h, default_seed=0)
            if color is None:
                raise ConfigError("color", "required when a coloring is given")
        res = tight_path_exists(h, n, col, color)
        return 0, {
            "check": "tight-path",
            "verdict": res.verdict.value,
            "witness": res.witness,
            "expanded": res.expanded,
        }
    res = arrow_check(h, n, _required(config, "r"))
    return 0, {
        "check": "arrow",
        "verdict": res.verdict,
        "counterexample": res.counterexample,
        "colorings_checked": res.colorings_checked,
    }


_MODE_IMPL = {
    "generate": _mode_generate,
    "enumerate": _mode_enumerate,
    "color": _mode_color,
    "greedy": _mode_greedy,
    "verify": _mode_verify,
    "concentration": _mode_concentration,
    "oracle": _mode_oracle,
}


def run(mode: str, config: dict) -> tuple[int, dict]:
    """Execute one mode; returns (exit_code, report document)."""
    if mode not in _MODE_IMPL:
        raise ConfigError("mode", f"unknown mode {mode!r}")
    config = dict(config)
    code, results = _MODE_IMPL[mode](config)
    return code, make_report(mode, config, results)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args.mode, args)
        code, report_doc = run(args.mode, config)
        report_path = config.get("report")
        if report_path:
            write_report(report_doc, report_path)
        else:
            sys.stdout.write(canonical_json(report_doc))
        return code
    except (ConfigError, ParameterError, InvariantViolationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
