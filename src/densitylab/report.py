"""Check records and deterministic JSON/CSV report emission.

A report is a flat list of named checks; every check carries both sides of
its inequality exactly.  Rational sides serialize as "p/q"; values in
Q(sqrt 2) serialize as their coordinate pair {"a": "p/q", "b": "p/q"}, which
still carries the exact content (certificates over irrational thresholds are
additionally broken into sign and squared comparisons upstream, so their
rows are plain rationals).  JSON output is sorted and newline-terminated, so
identical (instance, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .bits import format_rational
from .errors import SchemaError
from .instances import GENERATOR_NOTE
from .roottwo import QuadValue

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Check:
    """One asserted inequality: the relation is spelled out in the name."""

    name: str
    lhs: object
    rhs: object
    ok: bool
    note: str = ""


def check_rows(rows, prefix: str = "") -> list[Check]:
    """Checks from the modules' (name, lhs, rhs, ok) tuples or from Checks,
    which keep their note; a prefix is put before each name as "prefix: "."""
    out = []
    for row in rows:
        c = row if isinstance(row, Check) else Check(*row[:3], bool(row[3]))
        if prefix:
            c = Check(f"{prefix}: {c.name}", c.lhs, c.rhs, c.ok, c.note)
        out.append(c)
    return out


def render_value(v) -> object:
    if isinstance(v, QuadValue):
        return v.to_json()
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return format_rational(Fraction(v))
    raise SchemaError(f"cannot serialize report value {v!r}")


def _csv_value(v) -> str:
    if isinstance(v, QuadValue):
        return f"{format_rational(v.a)}+{format_rational(v.b)}*sqrt2"
    if isinstance(v, bool):
        return str(v).lower()
    return format_rational(Fraction(v))


@dataclass
class Report:
    command: str
    seed: int
    checks: list[Check] = field(default_factory=list)
    budget_exhausted: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def all_hold(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "generator": GENERATOR_NOTE,
            "meta": self.meta,
            "checks": [
                {
                    "name": c.name,
                    "lhs": render_value(c.lhs),
                    "rhs": render_value(c.rhs),
                    "ok": c.ok,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "budget_exhausted": list(self.budget_exhausted),
            "all_hold": self.all_hold(),
        }


def to_json_bytes(report: Report) -> bytes:
    return (
        json.dumps(report.to_dict(), sort_keys=True, indent=2, ensure_ascii=True)
        + "\n"
    ).encode("ascii")


def to_csv_bytes(report: Report) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", SCHEMA_VERSION])
    writer.writerow(["command", report.command])
    writer.writerow(["seed", report.seed])
    writer.writerow(["generator", GENERATOR_NOTE])
    writer.writerow(["name", "lhs", "rhs", "ok", "note"])
    for c in report.checks:
        writer.writerow([c.name, _csv_value(c.lhs), _csv_value(c.rhs),
                         str(c.ok).lower(), c.note])
    for msg in report.budget_exhausted:
        writer.writerow(["budget_exhausted", msg, "", "", ""])
    writer.writerow(["all_hold", str(report.all_hold()).lower(), "", "", ""])
    return buf.getvalue().encode("ascii", errors="backslashreplace")
