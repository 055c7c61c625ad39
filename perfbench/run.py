"""Benchmark for ramsey-lab: one workload, run as fresh CLI processes.

Run from the repository root:

    python3 perfbench/run.py --workload dense-greedy --seed 0 --seconds 10 --trace 0

Each operation runs the workload's ``python3 -m ramsey_lab.cli`` processes
one after another (closed loop, one client); operations repeat until
``--seconds`` have passed, and at least one runs.  Wall time is taken
around each child, CPU time and peak RSS from that child's own
``os.wait4`` rusage.  Set-up time comes from separate probe processes
that stop at the first pipeline call.

With ``--trace 1`` each operation runs twice, untraced and then through
``perfbench/spans.py``, which wraps the program's public functions from
outside and records layer spans; the per-layer figures come from the
traced copy and the tracing overhead from the pair.

After the timed loop the reports are checked once: every operation's
reports must be byte-identical with the timestamp stripped, and each
distinct report is checked against the program (see ``workloads.py``).
The last line of standard output is the JSON result; the line before it
records the environment and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from workloads import ALLOWED_EXIT, WORKLOADS, check_report, unsound_certificate

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 90
SCRATCH = ".perfbench_tmp"
# removed from the children's environment so that OpenBLAS runs its default pool
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RAMSEY_LAB_THREADS")

# Stops the CLI at its first pipeline call (graph generation, for every
# workload here): what remains is interpreter start, import and config.
SETUP_PROBE = (
    "import os, sys\n"
    "from ramsey_lab import cli\n"
    "cli.generate_random = lambda params: os._exit(0)\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("layered_graph.generate_s", "s"),
    ("layered_graph.generate_rss_mb", "MB"),
    ("cycles.count_s", "s"),
    ("cycles.count_calls", "count"),
    ("cycles.meeting_s", "s"),
    ("cycles.meeting_calls", "count"),
    ("cycles.per_vertex_s", "s"),
    ("cycles.restricted_ext_s", "s"),
    ("cycles.restricted_ext_calls", "count"),
    ("cycles.family_ext_s", "s"),
    ("cycles.family_ext_calls", "count"),
    ("cycles.enumerate_s", "s"),
    ("cycles.hyperedges", "count"),
    ("cycles.enumerate_rate", "1/s"),
    ("cycles.enumerate_rss_mb", "MB"),
    ("cycles.decode_keys_s", "s"),
    ("cycles.decoded_keys", "count"),
    ("cycles.extension_ids_s", "s"),
    ("cycles.extension_ids_calls", "count"),
    ("cycles.ids_for_keys_calls", "count"),
    ("greedy.color_s", "s"),
    ("greedy.color_counts_s", "s"),
    ("greedy.color_counts_calls", "count"),
    ("greedy.rounds", "count"),
    ("greedy.round_s", "s"),
    ("greedy.start_edges", "count"),
    ("greedy.keys_per_start", "ratio"),
    ("greedy.audit_s", "s"),
    ("verifier.prop_i_s", "s"),
    ("verifier.prop_ii_s", "s"),
    ("verifier.sample_family_s", "s"),
    ("verifier.skip_frac", "frac"),
    ("reporting.serialize_s", "s"),
    ("reporting.report_bytes", "bytes"),
    ("cli.import_s", "s"),
    ("failed_frac", "frac"),
    ("trace.overhead_s", "s"),
)

# figures that must repeat exactly from one traced operation to the next
EXACT = {name for name, unit in PER_LAYER if unit in ("count", "bytes")}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Op:
    procs: list[Proc]
    reports: list[str | None]  # report text, timestamp stripped
    failed: int = 0
    traces: list[dict] = field(default_factory=list)  # spans.py output per process

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], env: dict, log_path: Path) -> Proc:
    """Run ``python3 *args`` to completion; wall time, and rusage from wait4."""
    with open(log_path, "ab") as log:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    return Proc(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


class Runner:
    """Runs one workload's processes inside a scratch directory of the checkout."""

    def __init__(self, root: Path, argvs: list[list[str]], scratch: Path):
        from ramsey_lab.reporting import strip_timestamp

        self.strip = strip_timestamp
        self.argvs = argvs
        self.scratch = scratch
        self.log = scratch / "children.log"
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.env["PYTHONPATH"] = str(root / "src")

    def setup_sample(self, i: int) -> float:
        argv = self.argvs[i % len(self.argvs)]
        proc = spawn(["-c", SETUP_PROBE, *argv], self.env, self.log)
        if proc.code != 0:
            raise RuntimeError(f"set-up probe exited {proc.code}; see {self.log}")
        return proc.wall_s

    def op(self, traced: bool) -> Op:
        op = Op(procs=[], reports=[])
        for i, argv in enumerate(self.argvs):
            report = self.scratch / f"report-{i}.json"
            cli_args = [*argv, "--report", os.path.relpath(report)]
            span_path = self.scratch / f"spans-{i}.json"
            if traced:
                args = [str(HERE / "spans.py"), str(span_path), "--", *cli_args]
            else:
                args = ["-m", "ramsey_lab.cli", *cli_args]
            proc = spawn(args, self.env, self.log)
            op.procs.append(proc)
            text = report.read_text() if report.exists() else None
            report.unlink(missing_ok=True)
            op.reports.append(self.strip(text) if text is not None else None)
            if traced and span_path.exists():
                op.traces.append(json.loads(span_path.read_text()))
                span_path.unlink()
            if (
                proc.code not in ALLOWED_EXIT[argv[0]]
                or text is None
                or unsound_certificate(json.loads(text))
            ):
                op.failed += 1
        return op


def check_set(ops: list[Op], argvs: list[list[str]]) -> list[str]:
    """Output checks, once per set of operations (outside the timed loop)."""
    problems = []
    for i, argv in enumerate(argvs):
        texts = {op.reports[i] for op in ops}
        if None in texts:
            problems.append(f"process {i} ({argv[0]}) wrote no report")
            continue
        if len(texts) != 1:
            problems.append(f"process {i} ({argv[0]}): reports differ between operations")
        problems += [f"process {i}: {p}" for p in check_report(json.loads(next(iter(texts))))]
    for op in ops:
        for doc in op.traces:
            if doc["leftover_wrappers"]:
                problems.append(f"wrappers left behind: {doc['leftover_wrappers']}")
    return problems


def layer_figures(op: Op, overhead_s: float) -> dict[str, float]:
    t = spans.tally(op.traces)
    s, c, items, rss = (t[key] for key in ("self_s", "calls", "items", "rss_kb"))  # defaultdicts

    docs = [json.loads(text) for text in op.reports if text is not None]
    sampled = [d["results"] for d in docs if d["mode"] == "verify" and "skips" in d["results"]]
    trials = sum(r["trials"] for r in sampled)
    return {
        "layered_graph.generate_s": s["layered_graph.generate"],
        "layered_graph.generate_rss_mb": rss["layered_graph.generate"] / 1024,
        "cycles.count_s": s["cycles.count"],
        "cycles.count_calls": c["cycles.count"],
        "cycles.meeting_s": s["cycles.meeting"],
        "cycles.meeting_calls": c["cycles.meeting"],
        "cycles.per_vertex_s": s["cycles.per_vertex"],
        "cycles.restricted_ext_s": s["cycles.restricted_ext"],
        "cycles.restricted_ext_calls": c["cycles.restricted_ext"],
        "cycles.family_ext_s": s["cycles.family_ext"],
        "cycles.family_ext_calls": c["cycles.family_ext"],
        "cycles.enumerate_s": s["cycles.enumerate"],
        "cycles.hyperedges": items["cycles.enumerate"],
        "cycles.enumerate_rate": (
            items["cycles.enumerate"] / s["cycles.enumerate"] if c["cycles.enumerate"] else 0.0
        ),
        "cycles.enumerate_rss_mb": rss["cycles.enumerate"] / 1024,
        "cycles.decode_keys_s": s["cycles.decode_keys"],
        "cycles.decoded_keys": items["cycles.decode_keys"],
        "cycles.extension_ids_s": s["cycles.extension_ids"],
        "cycles.extension_ids_calls": c["cycles.extension_ids"],
        "cycles.ids_for_keys_calls": c["cycles.ids_for_keys"],
        "greedy.color_s": s["greedy.color"],
        "greedy.color_counts_s": s["greedy.color_counts"],
        "greedy.color_counts_calls": c["greedy.color_counts"],
        "greedy.rounds": c["greedy.round"],
        "greedy.round_s": s["greedy.round"],
        "greedy.start_edges": t["start_edges"],
        "greedy.keys_per_start": (
            items["cycles.decode_keys"] / t["start_edges"] if t["start_edges"] else 0.0
        ),
        "greedy.audit_s": s["greedy.audit"],
        "verifier.prop_i_s": s["verifier.prop_i"],
        "verifier.prop_ii_s": s["verifier.prop_ii"],
        "verifier.sample_family_s": s["verifier.sample_family"],
        "verifier.skip_frac": sum(r["skips"] for r in sampled) / trials if trials else 0.0,
        "reporting.serialize_s": s["reporting.serialize"],
        "reporting.report_bytes": items["reporting.serialize"],
        "cli.import_s": s["cli.import"] / max(1, len(op.traces)),
        "failed_frac": op.failed / len(op.procs),
        "trace.overhead_s": overhead_s,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit id, read from ``.git`` without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": git_commit(root),
    }


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    argvs = WORKLOADS[workload].argvs(seed)
    base = root / SCRATCH
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        runner = Runner(root, argvs, scratch)
        setup = []
        if not trace:
            runner.setup_sample(0)  # warm the page cache; not counted
            setup = [runner.setup_sample(i) for i in range(SETUP_SAMPLES)]
        ops: list[Op] = []
        pairs: list[tuple[Op, Op]] = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            if trace:
                plain, traced = runner.op(traced=False), runner.op(traced=True)
                pairs.append((plain, traced))
                ops += [plain, traced]
            else:
                ops.append(runner.op(traced=False))
        problems = check_set(ops, argvs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    if trace:
        figures = [layer_figures(t, t.wall_s - p.wall_s) for p, t in pairs]
        for name in sorted(EXACT):
            if len({f[name] for f in figures}) != 1:
                problems.append(f"{name} differs between traced operations")
        units = dict(PER_LAYER)
        values = {
            name: figures[0][name] if name in EXACT else statistics.median(f[name] for f in figures)
            for name in units
        }
    else:
        per_op = [
            {
                "wall_s": op.wall_s,
                "cpu_s": sum(p.cpu_s for p in op.procs),
                "peak_rss_mb": max(p.rss_mb for p in op.procs),
            }
            for op in ops
        ]
        values = {
            name: statistics.median(v[name] for v in per_op)
            for name in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
    attempted = sum(len(op.procs) for op in ops)
    failed = attempted if problems else sum(op.failed for op in ops)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": argvs,
        "environment": environment(root),
        "setup_samples_s": setup,
        "ops": [
            [{"code": p.code, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb}
             for p in op.procs]
            for op in ops
        ],
        "problems": problems,
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ramsey_lab" / "cli.py").is_file():
        print("error: run from the repository root; src/ramsey_lab/cli.py not found", file=sys.stderr)
        return 2
    result, detail = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
