"""Check records and deterministic JSON/CSV report emission.

A report is a flat list of named checks; every check carries both sides of
its inequality exactly.  Rational sides serialize as "p/q"; values in
Q(sqrt 2) serialize as their coordinate pair {"a": "p/q", "b": "p/q"}, which
still carries the exact content (the spike verifier,
``counterexample.verify_denjoy_failure``, also splits a certificate over an
irrational threshold into its sign and squared comparison, so those rows are
plain rationals).  ``render_value`` is the one serializer of exact
values; a CSV side is its JSON value in one field.  JSON output is sorted and
newline-terminated, so identical (instance, seed) pairs produce
byte-identical files.

Every row is a ``Check``, from the kernel that decides it to the report.
A row is laid out as report text, by ``lay_out``, when it is added to a
``Report`` with ``add(rows, prefix)``, and the report keeps only that text
and its failure count.  A battery adds its rows to its ``suite.BatteryRows``
the same way, so verify-all's batteries lay out their rows in the child
processes that run them (``suite.run_all``), and the parent only joins text.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bits import format_rational
from .errors import SchemaError
from .roottwo import QuadValue

SCHEMA_VERSION = 1

# how instances.battery_rng seeds every generated batch
GENERATOR_NOTE = (
    "instances derive from random.Random('<seed>:<battery>:<index>'); string "
    "seeding is SHA-512 based, so batches are identical across runs and hosts"
)


@dataclass(frozen=True)
class Check:
    """One asserted inequality, the one row type of every report: the
    relation is spelled out in the name."""

    name: str
    lhs: object
    rhs: object
    ok: bool
    note: str = ""


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


def _json_text(v) -> str:
    """A check field as json.dumps(v, sort_keys=True, indent=2,
    ensure_ascii=True) writes it at a row's indent; strings and bools, all
    but a few fields, skip the encoder."""
    if type(v) is str:
        return encode_basestring_ascii(v)
    if v is True or v is False:
        return "true" if v else "false"
    return json.dumps(v, sort_keys=True, indent=2, ensure_ascii=True).replace("\n", "\n      ")


def _json_row(name: str, lhs, rhs, ok: bool, note: str) -> str:
    """A check row as the indenting encoder writes it inside the report's
    "checks" list, keys sorted, without the separating comma."""
    return (
        "    {\n"
        f'      "lhs": {_json_text(render_value(lhs))},\n'
        f'      "name": {_json_text(name)},\n'
        f'      "note": {_json_text(note)},\n'
        f'      "ok": {_json_text(ok)},\n'
        f'      "rhs": {_json_text(render_value(rhs))}\n'
        "    }"
    )


def _csv_side(v) -> str:
    """A side's JSON value in one CSV field; a value in Q(sqrt 2) is spelled
    "a+b*sqrt2"."""
    r = render_value(v)
    if type(r) is dict:
        return f"{r['a']}+{r['b']}*sqrt2"
    return r if type(r) is str else _json_text(r)


class _Line:
    """A file whose write hands back the text: a csv writer's writerow over it
    returns the row's line."""

    write = staticmethod(str)


_csv_line = csv.writer(_Line(), lineterminator="\n").writerow


def _csv_row(name: str, lhs, rhs, ok: bool, note: str) -> str:
    """A check row as the report's CSV writer writes it, newline included."""
    return _csv_line((name, _csv_side(lhs), _csv_side(rhs), str(ok).lower(), note))


def lay_out(rows, prefix: str, as_csv: bool) -> tuple[list[str], int]:
    """The report text of each Check in rows, in JSON or, with as_csv, in
    CSV, and the count of rows that fail; a nonempty prefix is put before
    each name as "prefix: "."""
    row_text = _csv_row if as_csv else _json_row
    head = f"{prefix}: " if prefix else ""
    texts, failed = [], 0
    for c in rows:
        texts.append(row_text(head + c.name, c.lhs, c.rhs, c.ok, c.note))
        failed += not c.ok
    return texts, failed


@dataclass
class Report:
    """A report being written: each check row is laid out in the report's
    format, JSON or, with as_csv, CSV, when it is added."""

    command: str
    seed: int
    as_csv: bool = False
    rows: list[str] = field(default_factory=list)
    failed: int = 0
    budget_exhausted: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, rows, prefix: str = "") -> None:
        """Lay out rows as lay_out does and append them."""
        self.add_laid_out(*lay_out(rows, prefix, self.as_csv))

    def add_laid_out(self, texts: list[str], failed: int) -> None:
        """Append rows that lay_out gave in this report's format, failed of
        them failing."""
        self.rows += texts
        self.failed += failed

    def all_hold(self) -> bool:
        return not self.failed


def to_json_bytes(report: Report) -> bytes:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=True) and a newline, for the report's document doc.  Python's
    indenting encoder is pure Python, so the check rows, nearly all of a
    report, are laid out by _json_row and put in place of the encoder's empty
    list.  That list's line is the only match: only top-level keys sit two
    spaces in, and no encoded string holds a raw newline."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": report.command,
        "seed": report.seed,
        "generator": GENERATOR_NOTE,
        "meta": report.meta,
        "checks": [],
        "budget_exhausted": list(report.budget_exhausted),
        "all_hold": report.all_hold(),
    }
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)
    if report.rows:
        text = text.replace('\n  "checks": []',
                            '\n  "checks": [\n' + ",\n".join(report.rows) + "\n  ]", 1)
    return (text + "\n").encode("ascii")


def to_csv_bytes(report: Report) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema_version", SCHEMA_VERSION])
    writer.writerow(["command", report.command])
    writer.writerow(["seed", report.seed])
    writer.writerow(["generator", GENERATOR_NOTE])
    writer.writerow(["name", "lhs", "rhs", "ok", "note"])
    buf.writelines(report.rows)
    for msg in report.budget_exhausted:
        writer.writerow(["budget_exhausted", msg, "", "", ""])
    writer.writerow(["all_hold", str(report.all_hold()).lower(), "", "", ""])
    return buf.getvalue().encode("ascii", errors="backslashreplace")
