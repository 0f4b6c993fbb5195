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


class _Joined(dict):
    """Each node tuple's comma-joined string, built once on first lookup."""

    def __missing__(self, nodes):
        text = self[nodes] = ",".join(map(str, nodes))
        return text


def capacity_rows(cells):
    joined = _Joined()  # a sweep repeats each E and F tuple across many cells
    return [
        {
            "l1": c.l1,
            "l2": c.l2,
            "E": joined[c.E],
            "F": joined[c.F],
            "measured": c.measured,
            "predicted": c.predicted,
            "match": bool(c.matches),
        }
        for c in cells
    ]


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
    """Left-aligned columns two spaces apart, a dash rule under the headers."""
    cols = [headers] + [[str(v) for v in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*cols)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    lines = [line(*row).rstrip() for row in cols]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
