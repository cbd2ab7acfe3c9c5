"""The tracer reaches every alias and leaves the library as it found it;
BENCHMARK.json names the metrics the benchmark reports.

    python3 -m pytest bench -q
"""

import inspect
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import densitylab.cli  # noqa: E402
from run import end_to_end, per_layer  # noqa: E402
from tracer import LAYERS, Tracer, library_modules, traced_members  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import cli_stream_ops  # noqa: E402


def _references():
    """(place, object) for every value a densitylab module holds: module
    attributes, the items of tuples, lists and dicts among them, and the
    members of classes the library defines."""
    found = []

    def walk(place, value, depth=0):
        found.append((place, value))
        if depth > 4:
            return
        if isinstance(value, (tuple, list)):
            for i, v in enumerate(value):
                walk(f"{place}[{i}]", v, depth + 1)
        elif isinstance(value, dict):
            for k, v in value.items():
                walk(f"{place}[{k!r}]", v, depth + 1)

    for module in library_modules():
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            walk(f"{module.__name__}.{name}", value)
            if inspect.isclass(value) and value.__module__.startswith("densitylab"):
                for attr, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    found.append((f"{module.__name__}.{name}.{attr}", member))
    return found


def _snapshot():
    return {place: id(value) for place, value in _references()}


def test_install_rebinds_every_alias_and_uninstall_restores():
    before = _snapshot()
    originals = {
        fn for layer in LAYERS
        for _owner, _attr, _member, fn in traced_members(sys.modules[f"densitylab.{layer}"])
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert set(tracer.wrapped) == originals
        stale = [place for place, value in _references()
                 if inspect.isfunction(value) and value in originals]
        assert stale == []
        # suite and cli hold library functions under their own names, in
        # CRITERIA and in RUNNERS; calls through each reach the tracer.
        assert densitylab.suite.fairness_violations is tracer.wrapped[
            sys.modules["densitylab.martingales"].fairness_violations.__wrapped__]
        densitylab.suite.run_criterion(8, 1)
        ops = [op for op in cli_stream_ops(1) if op.argv[0] == "martingale"][:1]
        records, _wall, _rss = run_ops(ops, densitylab.cli.main, tracer)
        assert records[0]["exit"] == 0
    finally:
        tracer.uninstall()
    assert tracer.stats["suite.criterion_counterexample"][0] == 1
    assert [s[0] for s in tracer.spans].count("suite.criterion_counterexample") == 1
    assert tracer.stats["cli.run_martingale"][0] == 1
    assert tracer.stats["martingales.fairness_violations"][0] >= 1
    assert _snapshot() == before


def test_traced_pass_is_transparent():
    ops = cli_stream_ops(2)[:12]
    plain, _wall, _rss = run_ops(ops, densitylab.cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        traced, wall, _rss = run_ops(ops, densitylab.cli.main, tracer)
    finally:
        tracer.uninstall()
    assert [r["sha256"] for r in traced] == [r["sha256"] for r in plain]
    assert all(r["exit"] == 0 and not r["error"] for r in traced)
    spans = [s for s in tracer.spans if s[0] == "cli.main"]
    assert [s[4] for s in spans] == list(range(len(ops)))
    self_total = sum(s for _calls, s in tracer.layer_totals().values())
    assert 0 < self_total <= wall


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    ops = cli_stream_ops(1)[:6]
    tracer = Tracer()
    tracer.install()
    try:
        records, wall, rss = run_ops(ops, densitylab.cli.main, tracer)
    finally:
        tracer.uninstall()
    layers = per_layer(tracer.export(), wall, wall)
    assert [m["name"] for m in declared["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in declared["per_layer"])
    timed, _samples = end_to_end([{"records": records, "wall_s": wall, "peak_rss_mb": rss}],
                                 [0.1], 0)
    assert all(timed[m["name"]][1] == m["unit"] for m in declared["end_to_end"])
