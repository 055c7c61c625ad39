"""Every file the lab writes: reports, the trial CSV and the data files.

Reports serialize with sorted keys and no NaN/Inf, so identical configs
produce byte-identical files; the only run-varying value is the timestamp,
confined to the single ``metadata.timestamp`` key.  The data files (graph,
hypergraph and coloring) are one line of compact JSON each, written by
``_write_rows`` a chunk of rows at a time, so writing one holds no more than
a chunk beyond the arrays its rows are sliced from.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json

REPORT_SCHEMA_VERSION = 1

TRIAL_CSV_HEADER = ["trial", "statistic", "value", "expectation", "ratio"]

# rows serialized at a time by ``_write_rows``
_WRITE_CHUNK = 65_536

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "TRIAL_CSV_HEADER",
    "canonical_json",
    "make_report",
    "write_report",
    "write_trials_csv",
    "strip_timestamp",
]


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _library_version() -> str:
    try:
        from importlib.metadata import version

        return version("ramsey-lab")
    except Exception:
        return "unknown"


def make_report(mode: str, config: dict, results: dict) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "mode": mode,
        "config": config,
        "metadata": {
            "library_version": _library_version(),
            "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        },
        "results": results,
    }


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(report))


def _write_rows(path, head: dict, key: str, rows, count: int) -> None:
    """Write ``{**head, key: [row, ...]}`` as one line of compact JSON, where
    ``rows(lo, hi)`` returns rows lo..hi-1 of ``count`` as an array, serializing
    ``_WRITE_CHUNK`` rows at a time."""
    with open(path, "w") as fh:
        fh.write(json.dumps({**head, key: []}, separators=(",", ":"))[:-2])  # up to "["
        for lo in range(0, count, _WRITE_CHUNK):
            if lo:
                fh.write(",")
            chunk = rows(lo, min(lo + _WRITE_CHUNK, count)).tolist()
            fh.write(json.dumps(chunk, separators=(",", ":"))[1:-1])
        fh.write("]}\n")


def write_trials_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRIAL_CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key) for key in TRIAL_CSV_HEADER})


def strip_timestamp(report_text: str) -> str:
    """Re-serialize a report with the timestamp removed, for byte comparisons."""
    doc = json.loads(report_text)
    doc.get("metadata", {}).pop("timestamp", None)
    return canonical_json(doc)
