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
import math
import sys

import numpy as np

from . import cycles as _cycles
from .cycles import (
    DEFAULT_CYCLE_CAP,
    build_hypergraph,
    count_proper_cycles,
)
from .errors import ConfigError, InvariantViolationError, ParameterError, ResourceLimitError
from .greedy import (
    Coloring,
    adversarial_coloring,
    outcome_to_json,
    random_coloring,
    run_outer,
)
from .layered_graph import GraphParams, LayeredGraph, canonical_params, generate_random
from .oracle import arrow_check, brute_force_cycle_keys, tight_path_exists
from .reporting import make_report, write_report, write_trials_csv
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

# the JSON kind of every config key (every flag's destination), as accepted
# Python types and a noun for the error; a bool is never a number.
# ``canonical`` (three integers) is checked by _expand_canonical.
_INT, _NUMBER = ((int,), "an integer"), ((int, float), "a number")
_STRING = ((str,), "a string")
_CONFIG_KINDS = {
    "graph": _STRING, "k": _INT, "m": _INT, "p": _NUMBER, "seed": _INT, "canonical": None,
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


def resolve_config(mode: str, args: argparse.Namespace) -> dict:
    """Merge config file and flags (flags win) into one resolved mapping."""
    config: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc))
        if not isinstance(loaded, dict):
            raise ConfigError("config", "config file must hold a JSON object")
        config.update(loaded)
    for key, value in vars(args).items():
        if key in ("mode", "config") or value is None:
            continue
        config[key] = value
    for key, value in config.items():
        kind = _CONFIG_KINDS.get(key)
        if kind is None or value is None:
            continue
        types, noun = kind
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(key, f"must be {noun}, got {value!r}")
    unknown = sorted(config.keys() - vars(args).keys())
    if unknown:
        raise ConfigError(unknown[0], "unknown config key")
    if config.get("cycle_cap") is not None and config["cycle_cap"] <= 0:
        raise ConfigError("cycle_cap", "must be positive")
    return config


def _expand_canonical(config: dict) -> None:
    """Apply the canonical parameterization in place, keeping explicit overrides."""
    if "canonical" not in config:
        return
    trio = config["canonical"]
    if not (
        isinstance(trio, (list, tuple))
        and len(trio) == 3
        and all(isinstance(x, int) and not isinstance(x, bool) for x in trio)
    ):
        raise ConfigError("canonical", "expected three integers K R N")
    k, r, n = trio
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


def _resolve_graph(config: dict) -> tuple[LayeredGraph, dict]:
    """Build or load the graph; returns (graph, resolved source echo)."""
    if config.get("graph"):
        clash = [f for f in ("k", "m", "p", "seed", "canonical") if config.get(f) is not None]
        if clash:
            raise ConfigError(
                "graph", f"give either a graph file or generation parameters, not both ({', '.join(clash)})"
            )
        try:
            g = LayeredGraph.load(config["graph"])
        except (OSError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError("graph", f"cannot read graph file {config['graph']}: {exc}")
        return g, {"graph": config["graph"], "k": g.k, "m": g.m}
    _expand_canonical(config)
    for fieldname in ("k", "m", "p", "seed"):
        if config.get(fieldname) is None:
            raise ConfigError(fieldname, "required (or provide --graph/--canonical)")
    params = GraphParams(
        k=int(config["k"]),
        part_size=int(config["m"]),
        edge_prob=float(config["p"]),
        seed=int(config["seed"]),
    )
    echo = {"k": params.k, "m": params.part_size, "p": params.edge_prob, "seed": int(config["seed"])}
    return generate_random(params), echo


def _resolve_coloring(config: dict, h, default_seed: int) -> tuple[Coloring, dict]:
    choice = config.get("coloring", "random")
    r = config.get("r")
    if r is None:
        raise ConfigError("r", "required")
    r = int(r)
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
        return col, {"coloring": choice}
    seed = int(config.get("coloring_seed", default_seed))
    if choice == "random":
        return random_coloring(h, r, seed), {"coloring": "random", "coloring_seed": seed}
    if choice in COLORING_STRATEGIES:
        return (
            adversarial_coloring(h, r, choice, seed),
            {"coloring": choice, "coloring_seed": seed},
        )
    raise ConfigError("coloring", f"unknown strategy {choice!r}")


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------


def _mode_generate(config: dict) -> tuple[int, dict]:
    g, echo = _resolve_graph(config)
    config.update(echo)
    out = config.get("out")
    if out:
        g.save(out)
    return 0, {
        "vertex_count": g.num_vertices,
        "edge_count": g.edge_count(),
        "written": bool(out),
    }


def _mode_enumerate(config: dict) -> tuple[int, dict]:
    g, echo = _resolve_graph(config)
    config.update(echo)
    cap = int(config.get("cycle_cap", DEFAULT_CYCLE_CAP))
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
    g, echo = _resolve_graph(config)
    config.update(echo)
    cap = int(config.get("cycle_cap", DEFAULT_CYCLE_CAP))
    h = build_hypergraph(g, cap)
    strategy = config.get("strategy", "random")
    config["coloring"] = strategy
    col, col_echo = _resolve_coloring(config, h, default_seed=derive_seed(int(config.get("seed", 0)), 1))
    config.update(col_echo)
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
    g, echo = _resolve_graph(config)
    config.update(echo)
    n = config.get("n")
    if n is None:
        raise ConfigError("n", "required")
    n = int(n)
    cap = int(config.get("cycle_cap", DEFAULT_CYCLE_CAP))
    h = build_hypergraph(g, cap)
    col, col_echo = _resolve_coloring(config, h, default_seed=derive_seed(int(config.get("seed", 0)), 1))
    config.update(col_echo)
    if len(h) == 0:
        raise ParameterError("graph has no proper cycles; nothing to color or traverse")
    counts = col.counts()
    majority = int(np.argmax(counts))  # ties break to the smallest color, as in pick_majority_color
    color = majority if config.get("color") is None else int(config["color"])
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
    g, echo = _resolve_graph(config)
    config.update(echo)
    prop = config.get("property")
    if prop not in ("i", "ii", "iii"):
        raise ConfigError("property", "must be one of i, ii, iii")
    r = int(config.get("r") or 0)
    n = int(config.get("n") or 0)
    if r < 2:
        raise ConfigError("r", "required, must be >= 2")
    if n < 1:
        raise ConfigError("n", "required, must be >= 1")
    if prop == "iii":
        report = check_property_iii(g, r, n, c_eff=config.get("c_eff"))
        return 0, report.to_json()
    trials = int(config.get("trials") or 0)
    trial_seed = int(config.get("trial_seed", derive_seed(int(config.get("seed", 0)), 2)))
    config["trial_seed"] = trial_seed
    check = check_property_i if prop == "i" else check_property_ii
    report = check(g, r, n, trials, trial_seed)
    return (2 if report.violations else 0), _trials_doc(report, config)


def _mode_concentration(config: dict) -> tuple[int, dict]:
    for fieldname in ("k", "m", "p", "statistic", "trials"):
        if config.get(fieldname) is None:
            raise ConfigError(fieldname, "required")
    base = GraphParams(
        k=int(config["k"]),
        part_size=int(config["m"]),
        edge_prob=float(config["p"]),
        seed=0,
    )
    report = concentration_experiment(
        base,
        config["statistic"],
        int(config["trials"]),
        int(config.get("seed", 0)),
        fixed_vertex=int(config.get("fixed_vertex", 0)),
    )
    return 0, _trials_doc(report, config)


def _mode_oracle(config: dict) -> tuple[int, dict]:
    g, echo = _resolve_graph(config)
    config.update(echo)
    check = config.get("check")
    if check == "cycles":
        keys = brute_force_cycle_keys(g)
        fast = _cycles.cycle_keys(g)
        return 0, {
            "check": "cycles",
            "count": int(keys.size),
            "agrees_with_enumeration": bool(np.array_equal(keys, fast)),
        }
    h = build_hypergraph(g, int(config.get("cycle_cap", DEFAULT_CYCLE_CAP)))
    n = config.get("n")
    if n is None:
        raise ConfigError("n", "required")
    n = int(n)
    if check == "tight-path":
        col = None
        color = config.get("color")
        if config.get("coloring"):
            col, _ = _resolve_coloring(config, h, default_seed=0)
            if color is None:
                raise ConfigError("color", "required when a coloring is given")
        res = tight_path_exists(h, n, col, color)
        return 0, {
            "check": "tight-path",
            "verdict": res.verdict.value,
            "witness": res.witness,
            "expanded": res.expanded,
        }
    if check == "arrow":
        r = config.get("r")
        if r is None:
            raise ConfigError("r", "required")
        res = arrow_check(h, n, int(r))
        return 0, {
            "check": "arrow",
            "verdict": res.verdict,
            "counterexample": res.counterexample,
            "colorings_checked": res.colorings_checked,
        }
    raise ConfigError("check", "must be one of cycles, tight-path, arrow")


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
    report_doc = make_report(mode, _jsonable(config), results)
    return code, report_doc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


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
            from .reporting import canonical_json

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
