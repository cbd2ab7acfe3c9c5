import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import densitylab
from densitylab.cli import COMMANDS, build_parser, main
from densitylab.instances import escape_instance, extension_instance
from densitylab.report import Report
from densitylab.suite import DEFAULT_SEED, criterion_escape, criterion_extension


def write_instance(tmp_path, doc) -> str:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_covering_on_the_full_interval_reports_an_empty_cover(tmp_path):
    inst = write_instance(tmp_path, {"holes": [], "epsilons": ["1/2"]})
    code, blob = run(tmp_path, "covering", "--instance", inst)
    assert code == 0
    doc = json.loads(blob)
    assert doc["all_hold"] is True
    size = next(c for c in doc["checks"] if "lambda(U)" in c["name"])
    assert size["lhs"] == "0/1" and size["rhs"] == "0/1"


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def test_verify_all_bytes_match_the_benchmark_reference(tmp_path):
    # a change that keeps the reports keeps these bytes; the file is only read
    want = json.loads(REFERENCE.read_text())["workloads"]["verify-all"]["1"]
    code, blob = run(tmp_path, "verify-all", "--json", "--seed", "1")
    assert code == 0
    assert [hashlib.sha256(blob).hexdigest()] == want


def test_reports_are_byte_identical_for_fixed_instance_and_seed(tmp_path):
    _, first = run(tmp_path, "tests", "--seed", "7")
    _, second = run(tmp_path, "tests", "--seed", "7")
    assert first == second
    _, other = run(tmp_path, "tests", "--seed", "8")
    assert first != other


def test_malformed_rational_is_a_schema_error(tmp_path, capfd):
    inst = write_instance(
        tmp_path, {"holes": [["1/4", "3/0"]], "epsilons": ["1/2"]}
    )
    code, blob = run(tmp_path, "covering", "--instance", inst)
    assert code == 2
    assert blob == b""
    err = json.loads(capfd.readouterr().err)
    assert err["kind"] == "SchemaError"
    assert "3/0" in err["error"]
    assert err["schema_version"] == 1


def test_instance_dash_reads_stdin(tmp_path, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"holes": [], "epsilons": ["1/2"]}')
    )
    code, blob = run(tmp_path, "covering", "--instance", "-")
    assert code == 0
    assert json.loads(blob)["all_hold"] is True


def test_missing_instance_file_is_a_schema_error(tmp_path, capfd):
    code, _ = run(tmp_path, "porosity", "--instance", str(tmp_path / "nope"))
    assert code == 2
    assert json.loads(capfd.readouterr().err)["kind"] == "SchemaError"


def test_csv_switch_changes_the_wire_format(tmp_path):
    inst = write_instance(
        tmp_path, {"holes": [["1/4", "1/2"]], "epsilons": ["1/4"]}
    )
    code, blob = run(tmp_path, "covering", "--instance", inst, "--csv")
    assert code == 0
    lines = blob.decode("ascii").splitlines()
    assert lines[0] == "schema_version,1"
    assert lines[-1] == "all_hold,true,,,"


def test_violated_component_cap_exits_nonzero(tmp_path):
    inst = write_instance(tmp_path, {
        "escape": [{
            "holes": [],
            "components": {"1": ["0", "10"]},
            "r": 0,
            "m_max": 1,
            "z": "1/3",
            "flavor": "manual",
        }],
    })
    code, blob = run(tmp_path, "tests", "--instance", inst)
    assert code == 1
    doc = json.loads(blob)
    assert doc["all_hold"] is False
    bad = [c for c in doc["checks"] if not c["ok"]]
    assert bad and bad[0]["lhs"] == "3/4" and bad[0]["rhs"] == "1/2"


def test_exhausted_domination_search_is_not_a_violation(tmp_path):
    inst = write_instance(tmp_path, {
        "domination": [{
            "words": ["11"],
            "z": "1/8",
            "eps": "1/100",
            "depth": 8,
            "case": 1,
            "n_blocks": 1,
        }],
    })
    code, blob = run(tmp_path, "tests", "--instance", inst)
    assert code == 0
    doc = json.loads(blob)
    assert doc["all_hold"] is True
    assert doc["budget_exhausted"]


def test_martingale_default_run_reports_fairness_and_windows(tmp_path):
    code, blob = run(tmp_path, "martingale", "--depth", "8")
    assert code == 0
    doc = json.loads(blob)
    names = [c["name"] for c in doc["checks"]]
    assert any("fairness violations" in n for n in names)
    assert any("s - d_hat" in n for n in names)


def test_counterexample_report_carries_the_plan(tmp_path):
    code, blob = run(tmp_path, "counterexample", "--depth", "6")
    assert code == 0
    doc = json.loads(blob)
    assert doc["meta"]["k_max"] == 6
    assert "plan" in doc["meta"] and "trace" in doc["meta"]
    limit = next(c for c in doc["checks"] if "limit" in c["name"])
    assert limit["ok"] is True
    assert "no claim" in limit["note"]


def test_extend_depth_flag_sets_the_evaluation_grid(tmp_path):
    code, blob = run(tmp_path, "extend", "--depth", "6")
    assert code == 0
    doc = json.loads(blob)
    assert doc["meta"]["grid_depth"] == 6
    assert doc["all_hold"] is True


@pytest.mark.parametrize("argv, doc", [
    (["--depth", "-1"], None),
    ([], {"holes": [], "h": {"xs": ["0", "1"], "ys": ["0", "1"]}, "n": -2}),
    ([], {"holes": [], "h": {"xs": ["0", "1"], "ys": ["0", "1"]}, "n": "abc"}),
])
def test_extend_rejects_bad_grid_parameters(tmp_path, capfd, argv, doc):
    if doc is not None:
        argv = [*argv, "--instance", write_instance(tmp_path, doc)]
    code, blob = run(tmp_path, "extend", *argv)
    assert code == 2
    assert blob == b""
    assert json.loads(capfd.readouterr().err)["kind"] == "SchemaError"


def test_extend_runs_at_n_40_with_hole_ends_off_every_dyadic_grid(tmp_path):
    # internal grid depth 43: the build keeps runs, not rows of 2^43 entries
    doc = {"holes": [["1/3", "1/2"], ["5/7", "3/4"]],
           "h": {"xs": ["0", "1/2", "1"], "ys": ["0", "1/4", "1/2"]}, "n": 40}
    code, blob = run(tmp_path, "extend", "--depth", "40", "--instance",
                     write_instance(tmp_path, doc))
    assert code == 0
    report = json.loads(blob)
    assert report["budget_exhausted"] == []
    drops, worst = report["checks"]
    assert drops["lhs"] == "0/1" and drops["ok"]
    assert Fraction(worst["lhs"]) <= 2 * Fraction(1, 1 << 40) and worst["ok"]


def test_porosity_scans_a_hole_that_first_holds_a_cylinder_past_level_400(tmp_path):
    # the hole [1/D, 2/D], D = 2^420, holds a whole cylinder from level 421
    d = 1 << 420
    doc = {"holes": [[f"1/{d}", f"2/{d}"]], "levels": 1}
    code, blob = run(tmp_path, "porosity", "--instance", write_instance(tmp_path, doc))
    assert code == 0
    checks = json.loads(blob)["checks"]
    assert len(checks) == 7 and all(c["ok"] for c in checks)


DOMINATION = {"words": ["1"], "z": "1/3", "eps": "2/3"}
TABLE = {"depth": 1, "values": {"": "1", "0": "1/2", "1": "3/2"}}


@pytest.mark.parametrize("command, doc, kind", [
    ("tests", {"domination": [{**DOMINATION, "depth": "abc"}]}, "SchemaError"),
    ("tests", {"domination": [{**DOMINATION, "case": "1"}]}, "SchemaError"),
    ("tests", {"domination": [{**DOMINATION, "n_blocks": 1.5}]}, "SchemaError"),
    ("counterexample", {"intervals": [["0", "1/2"]], "k_max": "16"}, "SchemaError"),
    ("martingale", {"martingale": {"depth": 1}, "q": "2"}, "SchemaError"),
    ("counterexample", {"intervals": [["0", "1"]]}, "DomainError"),
    ("tests", {"escape": [{"components": {}, "r": "abc", "m_max": 1, "z": "1/3"}]},
     "SchemaError"),
    ("extend", {"h": {}}, "SchemaError"),
    ("counterexample", {"intervals": 5}, "SchemaError"),
    ("tests", {"escape": [{"components": {"x": []}, "r": 0, "m_max": 1, "z": "1/3"}]},
     "SchemaError"),
    ("tests", {"escape": [{"components": [], "r": 0, "m_max": 1, "z": "1/3"}]},
     "SchemaError"),
    ("extend", {"holes": [], "h": {"xs": ["0", "3/4"], "ys": ["0", "3/4"]}},
     "DomainError"),
    ("density --depth -1", {"holes": [], "epsilon": "1/2"}, "SchemaError"),
    ("porosity", {"holes": [], "levels": "x"}, "SchemaError"),
    ("counterexample --stages -1", {"intervals": [["0", "1/2"], ["1/2", "3/4"]]},
     "SchemaError"),
    ("counterexample --depth -1", {"intervals": [["0", "1/2"]]}, "SchemaError"),
    ("porosity --depth -1", {"holes": []}, "SchemaError"),
    ("porosity --stages -1", {"holes": []}, "SchemaError"),
    ("martingale --depth -1", {"martingale": TABLE, "q": "2"}, "SchemaError"),
    ("tests", {"escape": 5}, "SchemaError"),
    ("tests", {"domination": [5]}, "SchemaError"),
    ("tests", {"domination": [{**DOMINATION, "words": 5}]}, "SchemaError"),
    ("covering", {"epsilons": 5}, "SchemaError"),
    ("tests", {"escape": [{"components": {"0": ["0"]}, "r": 0, "m_max": 1, "z": "2"}]},
     "DomainError"),
    # n = 58 puts the internal grid depth at 61, one past the cap
    ("extend", {"holes": [["1/4", "1/2"]], "h": {"xs": ["0", "1"], "ys": ["0", "1"]}, "n": 58},
     "SchemaError"),
    # a Lipschitz bound of 2^48 puts it at 10 + 3 + 48
    ("extend", {"holes": [], "h": {"xs": ["0", f"1/{1 << 48}", "1"], "ys": ["0", "1", "1"]}},
     "SchemaError"),
    ("extend --depth 61", {"holes": [], "h": {"xs": ["0", "1"], "ys": ["0", "1"]}},
     "SchemaError"),
    ("martingale --depth 40", {"martingale": TABLE, "q": "2"}, "SchemaError"),
    ("martingale --depth 21", {"martingale": TABLE, "q": "2"}, "SchemaError"),
    ("martingale", {"martingale": {**TABLE, "values": {**TABLE["values"], "x": "1"}}, "q": "2"},
     "DomainError"),
    ("tests", {"domination": [{**DOMINATION, "case": 3}]}, "DomainError"),
    ("tests", {"domination": [{**DOMINATION, "case": 0}]}, "DomainError"),
    ("tests", {"domination": [{**DOMINATION, "case": 7}]}, "DomainError"),
    ("density --depth 21", {"holes": [], "epsilon": "1/2"}, "SchemaError"),
    # bit strings are JSON strings; numbers are refused, not coerced
    ("martingale", {"martingale": TABLE, "q": "2", "sigma": 0}, "SchemaError"),
    ("tests", {"domination": [{**DOMINATION, "words": [1, 0]}]}, "SchemaError"),
], ids=["depth", "case", "n_blocks", "k_max", "table", "full-cover", "escape-r", "h-xs",
        "intervals", "escape-key", "escape-components", "h-domain", "density-depth",
        "porosity-levels", "counterexample-stages", "counterexample-depth",
        "porosity-depth", "porosity-stages", "martingale-depth", "escape-list",
        "domination-entry", "domination-words", "covering-epsilons", "escape-z",
        "extend-n-cap", "extend-lipschitz-cap", "extend-depth-cap", "martingale-depth-cap",
        "martingale-depth-21", "table-stray-key", "domination-case-3", "domination-case-0",
        "domination-case-7", "density-depth-21", "martingale-sigma-number",
        "domination-word-numbers"])
def test_bad_documents_exit_2_with_json_on_stderr(tmp_path, capfd, command, doc, kind):
    # a command may carry flags: "density --depth -1"
    code, blob = run(tmp_path, *command.split(), "--instance", write_instance(tmp_path, doc))
    assert code == 2
    assert blob == b""
    assert json.loads(capfd.readouterr().err)["kind"] == kind


@pytest.mark.parametrize("argv", [
    ["martingale", "--seed", "1", "--json"],
    ["extend", "--seed", "1", "--depth", "16", "--json"],
    ["covering", "--seed", "1", "--json"],
    ["porosity", "--seed", "1", "--json"],
    ["tests", "--seed", "1", "--json"],
    ["density", "--seed", "1", "--json"],
    ["counterexample", "--seed", "1", "--json"],
    ["verify-all", "--seed", "1", "--json"],
], ids=["martingale", "extend", "covering", "porosity", "tests", "density", "counterexample",
        "verify-all"])
def test_martingale_report_is_the_same_with_asserts_stripped(tmp_path, argv):
    # python -O removes every assert; no check may depend on one
    _, plain = run(tmp_path, *argv)
    src = str(Path(densitylab.__file__).resolve().parent.parent)
    stripped = subprocess.run(
        [sys.executable, "-O", "-m", "densitylab.cli", *argv],
        capture_output=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert stripped.returncode == 0, stripped.stderr.decode()
    assert stripped.stdout == plain


def _rendered(checks) -> list[dict]:
    return Report("battery", 1, checks=list(checks)).to_dict()["checks"]


def _swap_prefix(rows: list[dict], old: str, new: str) -> list[dict]:
    swapped = [{**r, "name": new + r["name"][len(old):]} for r in rows
               if r["name"].startswith(old)]
    assert swapped
    return swapped


def test_cli_rows_equal_the_battery_rows(tmp_path):
    # battery 9 against `extend` on each battery document; its rows carry no prefix
    battery = _rendered(criterion_extension(1))
    for i in range(20):
        h, enum = extension_instance(1, i)
        doc = {"holes": [g.to_json() for g in enum.items], "h": h.to_json(), "n": 10}
        code, blob = run(tmp_path, "extend", "--depth", "12", "--instance",
                         write_instance(tmp_path, doc))
        assert code == 0
        assert json.loads(blob)["checks"] == _swap_prefix(battery, f"instance {i}: ", "")
    # battery 4 against `tests`, whose prefix also names the escape verdict; the
    # battery's own row compares that verdict with the instance's flavor
    instances = [escape_instance(1, i) for i in range(30)]
    code, blob = run(tmp_path, "tests", "--instance",
                     write_instance(tmp_path, {"escape": [x.to_json() for x in instances]}))
    assert code == 0
    battery = [r for r in _rendered(criterion_escape(1)) if "verdict matches" not in r["name"]]
    expected = []
    for i, x in enumerate(instances):
        params = f"(r={x.r}, m_max={x.m_max}"
        expected += _swap_prefix(battery, f"instance {i} {params}): ",
                                 f"escape {i} {params}, verdict {x.flavor}): ")
    assert json.loads(blob)["checks"] == expected


OPTIONS = ["--instance", "doc.json", "--seed", "7", "--depth", "5", "--stages", "3",
           "--csv", "--output", "out.csv"]


def parsed(argv) -> tuple:
    args = build_parser().parse_args(argv)
    return (args.command, args.instance, args.seed, args.depth, args.stages, args.json,
            args.csv, args.output)


@pytest.mark.parametrize("name", [name for name, _run, _help in COMMANDS])
def test_every_command_takes_every_option(name):
    # the options may come before or after the command
    want = (name, "doc.json", 7, 5, 3, False, True, "out.csv")
    assert parsed([name, *OPTIONS]) == parsed([*OPTIONS, name]) == want
    assert parsed([name, "--json"]) == (name, None, DEFAULT_SEED, None, None, True, False, "-")


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["extend", "--json", "--csv"],
    [],
    ["extend", "covering"],
], ids=["unknown-command", "json-and-csv", "no-command", "two-commands"])
def test_bad_command_lines_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_help_names_every_command_with_its_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, _run, helptext in COMMANDS:
        assert any(line.split() == [name, *helptext.split()] for line in lines), name
