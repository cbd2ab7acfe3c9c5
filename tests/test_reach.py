"""Reachability by execution: every library function is entered by a battery
or a command, or is listed here with a tag and a one-line reason.

``reach.py`` runs the batteries and the commands under a call tracer; a
function it never enters and that is not listed is dead code, and an entry
for a function it enters is stale.
"""

import ast

from reach import NOT_YET_WIRED, PACKAGE, library_functions, never_entered

TAGS = {
    "unwired": "a NOT_YET_WIRED function of ROADMAP item 2, or what only they call",
    "failure": "runs only when a check fails or a budget runs out",
    "input": "a path that only a user document takes",
    "child": "runs only in a forked child",
    "reference": "a definition that tests compare a kernel against",
    "protocol": "a dunder that must stay consistent with one that runs",
}

# "module:qualname" -> (tag, reason), beside the NOT_YET_WIRED functions and
# the functions nested in them, which unwired() lists
LISTED = {
    "bits:is_dyadic": (
        "unwired", "difference_test_from_porosity's cylinder_items checks its parts with it"),
    "randomness:cylinder_items": (
        "unwired", "difference_test_from_porosity cuts its stage increments into cylinders"),
    "randomness:TestFamily.component_union": (
        "unwired", "the V_n of density_difference_test's family, for capture_check"),
    "randomness:TestFamily.measure_records": (
        "unwired", "the bound that makes density_difference_test's family a difference test"),
    "randomness:CaptureReport.captured": ("unwired", "the verdict of capture_check"),
    "intervals:IntervalSet.intersect": (
        "unwired", "density_difference_test's stage increments and measure records"),
    "intervals:StagedOpenEnumeration.check_stage": (
        "unwired", "stage_class and union_at, for density_difference_test's family"),
    "intervals:StagedOpenEnumeration.stage_class": (
        "unwired", "final_class, for density_difference_test's family and capture_check"),
    "intervals:StagedOpenEnumeration.union_at": (
        "unwired", "component_union, for density_difference_test's family"),
    "intervals:StagedOpenEnumeration.final_class": (
        "unwired", "C_final of density_difference_test's family and capture_check"),
    "martingales:Martingale.level": ("unwired", "negativity_witnesses writes rows out"),
    "martingales:Martingale.approx_level": (
        "unwired", "anti_debt_strategy reads the approximants of with_floor_adapter"),
    "martingales:_on_cone": ("unwired", "anti_debt_strategy's frozen strategy"),
    "martingales:_on_cone.<locals>.kernel": ("unwired", "anti_debt_strategy's frozen strategy"),
    "porosity:PorosityTest.decay": (
        "unwired", "difference_test_from_porosity's level for component n"),
    "porosity:PorosityWitness.__init__": ("unwired", "the witness porosity_witness returns"),
    "randomness:TestFamily.__init__": ("unwired", "the family density_difference_test returns"),
    "randomness:CaptureReport.__init__": ("unwired", "the verdict capture_check returns"),
    "calculus:MonotoneExtension.value": (
        "reference", "the extension at one point, which tests compare the grid check against"),
    "calculus:MonotoneExtension._check_monotone_on_class.<locals>.fail": (
        "failure", "names the point where h decreases on the class"),
    "errors:BudgetExhausted.__init__": ("failure", "a search runs out of its budget"),
    "piecewise:PiecewiseLinear._outside": ("failure", "a point outside h's domain"),
    "cli:_usage_error": ("input", "a bad command line"),
    "suite:_battery_child": ("child", "verify-all's children run the batteries"),
    "suite:_aborted": ("failure", "a battery raises, or its child ends without its rows"),
    "roottwo:QuadValue.__hash__": ("protocol", "equal values hash alike, as __eq__ says"),
    "intervals:Interval.__hash__": ("protocol", "equal intervals hash alike, as __eq__ says"),
    "intervals:Interval.__repr__": (
        "protocol", "spells an interval in a DomainError message by the fields __init__ set"),
    "errors:Frozen.__setattr__": ("protocol", "a record's __init__ sets its fields once"),
    "errors:Frozen.__delattr__": ("protocol", "a record's __init__ sets its fields once"),
    "density:DensityEstimate.__eq__": (
        "protocol", "estimates are equal by the fields __init__ set"),
    "instances:EscapeInstance.__eq__": (
        "protocol", "instances are equal by the fields __init__ set"),
    "intervals:StagedOpenEnumeration.__eq__": (
        "protocol", "enumerations are equal by the items __init__ set"),
    "porosity:PorousExtensions.__eq__": (
        "protocol", "antichains are equal by the fields __init__ set"),
    "randomness:DominationScenario.__eq__": (
        "protocol", "scenarios are equal by the four fields __init__ takes, not the memo"),
    "randomness:DominationScenario.__hash__": (
        "protocol", "equal scenarios hash alike, as __eq__ says"),
    "randomness:DominationScenario.__repr__": (
        "protocol", "spells a scenario by the four fields __init__ takes, not the memo"),
    "report:Check.__eq__": ("protocol", "checks are equal by the fields __init__ set"),
}


def unwired(functions) -> dict[str, tuple[str, str]]:
    """An unwired entry for each NOT_YET_WIRED function and each function
    nested in one."""
    return {
        key: ("unwired", "ROADMAP item 2: no battery checks it yet")
        for key in functions
        if key.split(":")[1].split(".")[0] in NOT_YET_WIRED
    }


def problems(never: set[str], listed: dict[str, tuple[str, str]]) -> list[str]:
    """What is wrong with listed against the never-entered functions: a
    function with no entry, an entry for a function that is entered or does
    not exist, an entry without a known tag or a reason, and an unwired
    entry whose reason names no NOT_YET_WIRED function."""
    found = [f"{key}: never entered and not listed" for key in sorted(never - set(listed))]
    for key, entry in sorted(listed.items()):
        tag, reason = entry if isinstance(entry, tuple) and len(entry) == 2 else (None, None)
        if key not in never:
            found.append(f"{key}: stale entry, the function is entered or gone")
        if tag not in TAGS or not isinstance(reason, str) or not reason.strip():
            found.append(f"{key}: entry without a tag and a reason: {entry!r}")
        elif tag == "unwired" and not any(name in reason or name in key
                                          for name in NOT_YET_WIRED):
            found.append(f"{key}: unwired entry names no NOT_YET_WIRED function")
    return found


def test_every_never_entered_function_is_listed():
    listed = {**LISTED, **unwired(library_functions().values())}
    assert problems(never_entered(), listed) == []


def test_the_code_objects_name_every_function_the_source_defines():
    """library_functions reads the imported code objects; a function it
    missed would escape the audit.  Names only, so that an edit that shifts
    lines does not matter here."""
    defined = set()

    def walk(body, module: str, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(f"{module}:{prefix}{node.name}")
                walk(node.body, module, f"{prefix}{node.name}.<locals>.")

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()).body, path.stem, "")
    assert set(library_functions().values()) == defined


def test_the_gate_reports_an_unlisted_function():
    assert problems({"m:f", "m:g"}, {"m:f": ("failure", "a budget")}) == [
        "m:g: never entered and not listed"]


def test_the_gate_reports_a_stale_entry():
    assert problems(set(), {"m:f": ("failure", "a budget")}) == [
        "m:f: stale entry, the function is entered or gone"]


def test_the_gate_reports_an_entry_without_a_tag():
    listed = {"m:f": ("", "a reason"), "m:g": ("dead", "a reason"), "m:h": ("input", " "),
              "m:i": "input"}
    assert problems(set(listed), listed) == [
        f"m:{name}: entry without a tag and a reason: {listed[f'm:{name}']!r}"
        for name in "fghi"]


def test_an_unwired_entry_names_a_not_yet_wired_function():
    wired = next(iter(NOT_YET_WIRED))
    listed = {"m:f": ("unwired", "nothing calls it"), "m:g": ("unwired", f"{wired} calls it"),
              f"m:{wired}": ("unwired", "item 2")}
    assert problems(set(listed), listed) == [
        "m:f: unwired entry names no NOT_YET_WIRED function"]
