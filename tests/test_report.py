from fractions import Fraction as F

import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.bits import format_rational
from densitylab.errors import SchemaError
from densitylab.report import (
    GENERATOR_NOTE,
    SCHEMA_VERSION,
    Check,
    Report,
    render_value,
    to_csv_bytes,
    to_json_bytes,
)
from densitylab.roottwo import QuadValue


def test_render_value_covers_the_wire_types():
    assert render_value(F(3, 7)) == "3/7"
    assert render_value(5) == "5/1"
    assert render_value(True) is True
    assert render_value(QuadValue(F(1), F(-2))) == {"a": "1/1", "b": "-2/1"}
    with pytest.raises(SchemaError):
        render_value(0.5)
    with pytest.raises(SchemaError):
        render_value(None)


def sample_report(as_csv: bool = False) -> Report:
    rep = Report("covering", 9, as_csv)
    rep.add([Check("a <= b", F(1, 4), F(1, 2), True)])
    rep.add([Check("c <= d", F(2, 3), F(1, 3), False, note="tight")])
    rep.budget_exhausted.append("window search stopped at depth 8")
    rep.meta["grid_depth"] = 8
    return rep


def test_report_verdicts():
    rep = sample_report()
    assert rep.failed == 1
    rows = json.loads(to_json_bytes(rep))["checks"]
    assert [row["name"] for row in rows if not row["ok"]] == ["c <= d"]


def test_json_bytes_are_deterministic_and_versioned():
    blob = to_json_bytes(sample_report())
    assert blob == to_json_bytes(sample_report())
    assert blob.endswith(b"\n")
    doc = json.loads(blob)
    assert doc["schema_version"] == 1
    assert doc["command"] == "covering"
    assert doc["seed"] == 9
    assert doc["checks"][0] == {
        "name": "a <= b", "lhs": "1/4", "rhs": "1/2", "ok": True, "note": "",
    }
    assert doc["all_hold"] is False
    assert doc["budget_exhausted"] == ["window search stopped at depth 8"]
    assert "generator" in doc


def test_csv_bytes_spell_out_every_row():
    lines = to_csv_bytes(sample_report(as_csv=True)).decode("ascii").splitlines()
    assert lines[0] == "schema_version,1"
    assert lines[1] == "command,covering"
    assert lines[2] == "seed,9"
    assert lines[4] == "name,lhs,rhs,ok,note"
    assert lines[5] == "a <= b,1/4,1/2,true,"
    assert lines[6] == "c <= d,2/3,1/3,false,tight"
    assert any("window search stopped" in line for line in lines)
    assert lines[-1] == "all_hold,false,,,"


def test_csv_renders_quadratic_values_inline():
    rep = Report("counterexample", 1, as_csv=True)
    rep.add([Check("slope at scale 3", QuadValue(F(0), F(-2)), F(0), True)])
    lines = to_csv_bytes(rep).decode("ascii").splitlines()
    assert "0/1+-2/1*sqrt2" in lines[5]


texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["checks", '"', "\\", 'x "q" \\ y', "\u00e9\u221e", "\U0001d538", "\n\t", ""]),
)
fractions = st.builds(F, st.integers(-50, 50), st.integers(1, 50))
values = st.one_of(
    fractions,
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.builds(QuadValue, fractions, fractions),
)
metas = st.dictionaries(texts, st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), texts),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
), max_size=4)


checks_lists = st.lists(st.builds(Check, texts, values, values, st.booleans(), texts),
                       max_size=6)


@settings(max_examples=200, deadline=None)
@given(texts, st.integers(0, 10**6), checks_lists, st.lists(texts, max_size=3), metas)
def test_json_bytes_are_the_indenting_encoders_bytes(command, seed, checks, exhausted, meta):
    rep = Report(command, seed)
    rep.budget_exhausted, rep.meta = exhausted, meta
    rep.add(checks)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "generator": GENERATOR_NOTE,
        "meta": meta,
        "checks": [{"name": c.name, "lhs": render_value(c.lhs), "rhs": render_value(c.rhs),
                    "ok": c.ok, "note": c.note} for c in checks],
        "budget_exhausted": exhausted,
        "all_hold": all(c.ok for c in checks),
    }
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert to_json_bytes(rep) == want.encode("ascii")


def reference_csv_value(v) -> str:
    """A CSV side as each type spells itself, apart from render_value."""
    if isinstance(v, QuadValue):
        return f"{format_rational(v.a)}+{format_rational(v.b)}*sqrt2"
    if isinstance(v, bool):
        return str(v).lower()
    return format_rational(F(v))


@settings(max_examples=200, deadline=None)
@given(texts, st.integers(0, 10**6), checks_lists, st.lists(texts, max_size=3))
def test_csv_bytes_are_the_csv_writers_bytes(command, seed, checks, exhausted):
    rep = Report(command, seed, as_csv=True)
    rep.budget_exhausted = exhausted
    rep.add(checks, "p")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([["schema_version", SCHEMA_VERSION], ["command", command], ["seed", seed],
                      ["generator", GENERATOR_NOTE], ["name", "lhs", "rhs", "ok", "note"]])
    writer.writerows([f"p: {c.name}", reference_csv_value(c.lhs), reference_csv_value(c.rhs),
                      str(c.ok).lower(), c.note] for c in checks)
    writer.writerows(["budget_exhausted", msg, "", "", ""] for msg in exhausted)
    writer.writerow(["all_hold", str(all(c.ok for c in checks)).lower(), "", "", ""])
    assert to_csv_bytes(rep) == buf.getvalue().encode("ascii", errors="backslashreplace")
