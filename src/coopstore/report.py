"""Structured run reports: versioned JSON, CSV capacity tables, text tables."""

from __future__ import annotations

import json

from .record import Record
from .shardfile import write_atomic

REPORT_VERSION = 1


class ReportDoc(Record):
    """One command's report: its config echo, then results, failures and timings_ms."""

    __slots__ = ("command", "config", "results", "failures", "timings_ms")

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.results = {}
        self.failures = []
        self.timings_ms = {}

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        self.failures.append(message)

    def to_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "pass": self.passed,
            "failures": self.failures,
            "timings_ms": self.timings_ms,
        }

    def write_json(self, path) -> None:
        # one line: without indent, json.dumps takes its C encoder
        text = json.dumps(self.to_dict(), sort_keys=True) + "\n"
        write_atomic(path, text.encode())


def capacity_rows(cells):
    rows = []
    for c in cells:
        rows.append(
            {
                "l1": c.l1,
                "l2": c.l2,
                "E": ",".join(map(str, c.E)),
                "F": ",".join(map(str, c.F)),
                "measured": c.measured,
                "predicted": c.predicted,
                "match": bool(c.matches),
            }
        )
    return rows


def write_capacity_csv(path, cells) -> None:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["l1", "l2", "E", "F", "measured", "predicted", "match"]
    )
    writer.writeheader()
    for row in capacity_rows(cells):
        writer.writerow(row)
    write_atomic(path, buf.getvalue().encode())


def text_table(headers, rows) -> str:
    cols = [headers] + [[str(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cols):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
