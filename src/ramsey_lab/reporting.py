"""Report emission: canonical JSON and the trial CSV.

Reports serialize with sorted keys and no NaN/Inf, so identical configs
produce byte-identical files; the only run-varying value is the timestamp,
confined to the single ``metadata.timestamp`` key.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json

REPORT_SCHEMA_VERSION = 1

TRIAL_CSV_HEADER = ["trial", "statistic", "value", "expectation", "ratio"]

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
