"""Layer spans for the traced run, installed from outside the program.

Every public function listed in ``TARGETS`` is wrapped at the module that
defines it and at every ``ramsey_lab`` module that imported it by name
(``cli`` imports ``build_hypergraph`` and ``run_outer`` this way, ``greedy``
imports ``decode_keys``, ``verifier`` imports ``count_cycles_meeting``).
Methods are wrapped on their class.  A span records its name, start, end,
parent span, an optional item count and, for the two allocation-heavy
stages, the process's RSS high-water mark when the span closes.  Spans
stay in memory and are written once the run ends.

Run as a script, this file is the traced child process:

    python3 perfbench/spans.py SPANS.json -- greedy --k 3 --m 60 ...

It imports ``ramsey_lab.cli`` (the harness puts ``src/`` on PYTHONPATH),
installs the wrappers, runs ``cli.main`` on the arguments after ``--``,
removes the wrappers, checks that none is left behind, writes SPANS.json
and exits with the CLI's code.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

MARK = "__perfbench_span__"


def _arg_size(args, kwargs, result):
    return int(args[0].size)


def _result_len(args, kwargs, result):
    return len(result)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[1])


# (module, attribute or Class.method, span name, item count, record RSS)
TARGETS = (
    ("ramsey_lab.layered_graph", "generate_random", "layered_graph.generate", None, True),
    ("ramsey_lab.cycles", "count_proper_cycles", "cycles.count", None, False),
    ("ramsey_lab.cycles", "count_cycles_meeting", "cycles.meeting", None, False),
    ("ramsey_lab.cycles", "cycles_per_vertex", "cycles.per_vertex", None, False),
    ("ramsey_lab.cycles", "count_restricted_extensions", "cycles.restricted_ext", None, False),
    ("ramsey_lab.cycles", "count_family_extensions", "cycles.family_ext", None, False),
    ("ramsey_lab.cycles", "build_hypergraph", "cycles.enumerate", _result_len, True),
    ("ramsey_lab.cycles", "decode_keys", "cycles.decode_keys", _arg_size, False),
    ("ramsey_lab.cycles", "TightHypergraph.extension_ids", "cycles.extension_ids", None, False),
    ("ramsey_lab.cycles", "TightHypergraph.ids_for_keys", "cycles.ids_for_keys", None, False),
    ("ramsey_lab.cycles", "TightHypergraph.hyperedge", "cycles.hyperedge", None, False),
    ("ramsey_lab.greedy", "random_coloring", "greedy.color", None, False),
    ("ramsey_lab.greedy", "Coloring.counts", "greedy.color_counts", None, False),
    ("ramsey_lab.greedy", "greedy_round", "greedy.round", None, False),
    ("ramsey_lab.greedy", "run_outer", "greedy.outer", None, False),
    ("ramsey_lab.greedy", "audit_certificate", "greedy.audit", None, False),
    ("ramsey_lab.verifier", "check_property_i", "verifier.prop_i", None, False),
    ("ramsey_lab.verifier", "check_property_ii", "verifier.prop_ii", None, False),
    ("ramsey_lab.verifier", "sample_trash_family", "verifier.sample_family", None, False),
    ("ramsey_lab.reporting", "write_report", "reporting.serialize", _file_size, False),
    ("ramsey_lab.cli", "run", "cli.run", None, False),
)


class Tracer:
    """In-memory span log of one process; spans are
    ``[name, start, end, parent index or -1, items or None, maxrss KiB or None]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, items=None, rss: bool = False) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = items
        if rss:
            span[5] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def wrap(self, fn, name: str, count, rss: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                items = count(args, kwargs, result) if returned and count is not None else None
                self.close(idx, items, rss)

        setattr(wrapper, MARK, name)
        return wrapper


def _program_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ramsey_lab" or name.startswith("ramsey_lab."))
    ]


def install(tracer: Tracer, targets=TARGETS) -> list[tuple]:
    """Wrap every target wherever the program holds it; returns the undo list."""
    modules = _program_modules()
    undo: list[tuple] = []
    for modname, attr, name, count, rss in targets:
        home = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(original, name, count, rss))
            undo.append((cls, meth, original))
            continue
        original = getattr(home, attr)
        wrapper = tracer.wrap(original, name, count, rss)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo: list[tuple]) -> list[str]:
    """Restore every original; returns the places where a wrapper is still found."""
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
    return leftover_wrappers()


def leftover_wrappers() -> list[str]:
    found = []
    for mod in _program_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{key}.{meth}")
    return found


# ---------------------------------------------------------------------------
# turning spans into per-layer figures
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The process is single-threaded, so children of one span never overlap
    and the self times of all spans sum to the top-level durations.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def tally(docs: list[dict]) -> dict:
    """Per span name over the traced processes of one operation: summed self
    time, calls and items, the highest RSS, and the start edges of greedy rounds."""
    out = {
        "self_s": defaultdict(float),
        "calls": defaultdict(int),
        "items": defaultdict(int),
        "rss_kb": defaultdict(int),
        "start_edges": 0,
    }
    for doc in docs:
        spans = doc["spans"]
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            out["self_s"][name] += own
            out["calls"][name] += 1
            if span[4] is not None:
                out["items"][name] += span[4]
            if span[5] is not None:
                out["rss_kb"][name] = max(out["rss_kb"][name], span[5])
        out["start_edges"] += sum(
            1
            for i, span in enumerate(spans)
            if span[0] == "cycles.hyperedge" and _has_ancestor(spans, i, "greedy.round")
        )
    return out


# ---------------------------------------------------------------------------
# the traced child process
# ---------------------------------------------------------------------------


def _child(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- <ramsey-lab arguments>", file=sys.stderr)
        return 1
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    from ramsey_lab import cli

    tracer.close(idx)
    undo = install(tracer)
    idx = tracer.open("cli.main")
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.close(idx)
        leftovers = uninstall(undo)
    doc = {
        "code": code,
        "module": cli.__file__,
        "wrapped": len(undo),
        "leftover_wrappers": leftovers,
        "wall_s": time.perf_counter() - _T0,
        "spans": tracer.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
