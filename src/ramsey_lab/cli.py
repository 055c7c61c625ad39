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
from .cycles import TightHypergraph, build_hypergraph, count_proper_cycles
from .errors import InvariantViolationError, ParameterError, ResourceLimitError
from .greedy import (
    Coloring,
    adversarial_coloring,
    outcome_to_json,
    pick_majority_color,
    random_coloring,
    run_outer,
)
from .layered_graph import (
    GraphParams,
    LayeredGraph,
    _check_color,
    _check_n,
    _check_r,
    canonical_params,
    generate_random,
)
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

COLORING_STRATEGIES = ("random", "round_robin", "vertex_cut", "balanced_greedy")

# the JSON kind of a config value, named as the error names it; see _has_kind
_INT, _NUMBER, _STRING = "an integer", "a finite number", "a string"
_SEED, _TRIPLE = "a 64-bit unsigned integer", "three integers K R N"
_ARGPARSE_TYPE = {_INT: int, _SEED: int, _NUMBER: float, _STRING: str, _TRIPLE: int}

# every config key, i.e. every flag's destination: (kind, choices, help).  The
# flag is the key with '-' for '_'; argparse and resolve_config both read the row.
_FLAGS = {
    "report": (_STRING, (), "report output path (default: stdout)"),
    "graph": (_STRING, (), "read the graph from a JSON file"),
    "k": (_INT, (), "number of parts (>= 3)"),
    "m": (_INT, (), "vertices per part"),
    "p": (_NUMBER, (), "edge probability"),
    "seed": (_SEED, (), "graph seed, or concentration's master seed (64-bit)"),
    "canonical": (
        _TRIPLE, (), "canonical parameterization: c=16k^2r, m=c*n, p=sqrt(ln n/n); "
        "--m/--p still override",
    ),
    "out": (_STRING, (), "graph (generate) or coloring (color) output path"),
    "export_hypergraph": (_STRING, (), "hypergraph JSON output path"),
    "r": (_INT, (), "number of colors"),
    "n": (_INT, (), "tight-path length in vertices"),
    "strategy": (_STRING, COLORING_STRATEGIES, "coloring strategy"),
    "coloring": (_STRING, (), f"one of {'/'.join(COLORING_STRATEGIES)} or @file.json"),
    "coloring_seed": (_SEED, (), "coloring seed"),
    "color": (_INT, (), "working color (greedy default: majority)"),
    "property": (_STRING, ("i", "ii", "iii"), "property to sample"),
    "trials": (_INT, (), "number of trials"),
    "trial_seed": (_SEED, (), "master seed of the property trials"),
    "emit_trials": (_STRING, (), "trial CSV output path"),
    "statistic": (_STRING, CONCENTRATION_STATISTICS, "counting statistic"),
    "fixed_vertex": (_INT, (), "vertex of cycles_through_vertex"),
    "check": (_STRING, ("cycles", "tight-path", "arrow"), "brute-force check"),
}

_GRAPH_SOURCE = ("graph", "k", "m", "p", "seed", "canonical")
# the config keys of each mode, beside report (and --config, the file itself)
_MODE_FLAGS = {
    "generate": (*_GRAPH_SOURCE, "out"),
    "enumerate": (*_GRAPH_SOURCE, "export_hypergraph"),
    "color": (*_GRAPH_SOURCE, "r", "strategy", "coloring_seed", "out"),
    "greedy": (*_GRAPH_SOURCE, "r", "n", "coloring", "coloring_seed", "color"),
    "verify": (*_GRAPH_SOURCE, "property", "r", "n", "trials", "trial_seed", "emit_trials"),
    "concentration": ("statistic", "k", "m", "p", "trials", "seed", "fixed_vertex", "emit_trials"),
    "oracle": (*_GRAPH_SOURCE, "check", "n", "r", "coloring", "color"),
}
MODES = tuple(_MODE_FLAGS)


# ---------------------------------------------------------------------------
# argument parsing and config resolution
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ramsey-lab", description=__doc__, allow_abbrev=False)
    subs = parser.add_subparsers(dest="mode", required=True)
    for mode, keys in _MODE_FLAGS.items():
        sub = subs.add_parser(mode, allow_abbrev=False)
        sub.add_argument("--config", help="JSON config file; flags override")
        for key in ("report", *keys):
            kind, choices, help_text = _FLAGS[key]
            shape = {"nargs": 3, "metavar": ("K", "R", "N")} if kind == _TRIPLE else {}
            sub.add_argument(
                "--" + key.replace("_", "-"), type=_ARGPARSE_TYPE[kind],
                choices=choices or None, help=help_text, **shape,
            )
    return parser


def _has_kind(value, kind: str) -> bool:
    """Whether a JSON or flag value is of a config kind; a bool is never a number."""
    if kind == _NUMBER:
        # refuses NaN, +-inf and ints beyond float range in one comparison
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if kind == _TRIPLE:
        return type(value) is list and len(value) == 3 and all(type(x) is int for x in value)
    if kind == _SEED:
        return type(value) is int and 0 <= value < 2**64
    return type(value) is (int if kind == _INT else str)


def resolve_config(mode: str, args: argparse.Namespace) -> dict:
    """Merge config file and flags (flags win) into one resolved mapping.

    The one place config values are checked: every key must be a flag of
    the mode and every value of its key's kind and among its choices.  A
    null counts as unset, so the resolved mapping holds JSON-native values
    only.
    """
    config: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParameterError("config", str(exc))
        if not isinstance(loaded, dict):
            raise ParameterError("config", "config file must hold a JSON object")
        config.update(loaded)
    flags = {key: value for key, value in vars(args).items() if key not in ("mode", "config")}
    config.update((key, value) for key, value in flags.items() if value is not None)
    for key, value in config.items():
        if key not in _FLAGS or value is None:
            continue
        kind, choices, _ = _FLAGS[key]
        if not _has_kind(value, kind):
            raise ParameterError(key, f"must be {kind}, got {value!r:.40}")
        if choices and value not in choices:
            raise ParameterError(key, f"must be one of {', '.join(choices)}, got {value!r:.40}")
    unknown = sorted(config.keys() - flags.keys())
    if unknown:
        raise ParameterError(unknown[0], "unknown config key")
    return {key: value for key, value in config.items() if value is not None}


def _required(config: dict, field: str):
    """The value of a config key the mode cannot run without."""
    if field not in config:
        raise ParameterError(field, "required")
    return config[field]


def _working_color(config: dict, col: Coloring | None, default: int | None = None) -> int | None:
    """The run's working color (config's, else default), given iff col is; the
    library call that takes it checks it is one of col's r colors."""
    color = config.get("color", default)
    if col is None:
        if color is not None:
            raise ParameterError("color", "needs a coloring")
    elif color is None:
        raise ParameterError("color", "required when a coloring is given")
    return color


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
            raise ParameterError(
                "graph", f"give either a graph file or generation parameters, not both ({', '.join(clash)})"
            )
        try:
            g = LayeredGraph.load(config["graph"])
        except (OSError, LookupError, TypeError, ValueError) as exc:
            raise ParameterError("graph", f"cannot read graph file {config['graph']}: {exc}")
        config.update(k=g.k, m=g.m)
        return g
    _expand_canonical(config)
    for fieldname in ("k", "m", "p", "seed"):
        if fieldname not in config:
            raise ParameterError(fieldname, "required (or provide --graph/--canonical)")
    config["p"] = float(config["p"])
    return generate_random(
        GraphParams(k=config["k"], part_size=config["m"], edge_prob=config["p"], seed=config["seed"])
    )


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
            raise ParameterError("coloring", f"cannot read coloring file {path}: {exc}")
        if col.r != r:
            raise ParameterError("coloring", f"file has r={col.r}, run has r={r}")
        if col.colors.size != len(h):
            raise ParameterError(
                "coloring", f"file colors {col.colors.size} edges, hypergraph has {len(h)}"
            )
        return col
    if choice not in COLORING_STRATEGIES:
        raise ParameterError("coloring", f"unknown strategy {choice!r}")
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
    export = config.get("export_hypergraph")
    if export:
        h = build_hypergraph(g)
        total = len(h)
        h.save(export)
    else:
        total = count_proper_cycles(g)
    results = {
        "total_cycles": total,
        "vertex_count": g.num_vertices,
        "edge_count": g.edge_count(),
    }
    if export:
        results["exported"] = export
    return 0, results


def _mode_color(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    _check_r(_required(config, "r"))
    h = build_hypergraph(g)
    config["coloring"] = config.get("strategy", "random")
    col = _resolve_coloring(config, h, default_seed=derive_seed(config.get("seed", 0), 1))
    out = config.get("out")
    if out:
        col.save(out)
    return 0, {
        "hyperedges": len(h),
        "color_counts": [int(c) for c in col.counts()],
        "written": bool(out),
    }


def _mode_greedy(config: dict) -> tuple[int, dict]:
    g = _resolve_graph(config)
    n = _required(config, "n")
    # refuse the run's own numbers before enumerating, which dominates its memory
    _check_n(n, g.k)
    r = _required(config, "r")
    _check_r(r)
    if "color" in config:
        _check_color(config["color"], r)
    h = build_hypergraph(g)
    col = _resolve_coloring(config, h, default_seed=derive_seed(config.get("seed", 0), 1))
    if len(h) == 0:
        raise ParameterError("graph", "has no proper cycles; nothing to color or traverse")
    counts = col.counts()
    majority = pick_majority_color(counts)
    color = _working_color(config, col, default=majority)
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
    prop = _required(config, "property")
    r, n = _required(config, "r"), _required(config, "n")
    if prop == "iii":
        return 0, check_property_iii(g, r, n).to_json()
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
    check = _required(config, "check")
    if check == "cycles":
        keys = brute_force_cycle_keys(g)
        fast = _cycles.cycle_keys(g)
        return 0, {
            "check": "cycles",
            "count": int(keys.size),
            "agrees_with_enumeration": bool(np.array_equal(keys, fast)),
        }
    h = build_hypergraph(g)
    n = _required(config, "n")
    if check == "tight-path":
        col = _resolve_coloring(config, h, default_seed=0) if config.get("coloring") else None
        res = tight_path_exists(h, n, col, _working_color(config, col))
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
        raise ParameterError("mode", f"unknown mode {mode!r}")
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
    except (ParameterError, InvariantViolationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
