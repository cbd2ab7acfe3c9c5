"""densitylab benchmark runner.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One closed-loop client in a single process: every pass runs the workload's
ops back to back, through ``densitylab.cli.main``, in a fresh worker process
(``bench/worker.py``).  With ``--trace 0`` the run measures set-up time, then
runs passes for ``--seconds`` (at least one pass; no pass starts that would
likely overrun), and reports the end-to-end metrics.  With ``--trace 1`` it
runs pairs of an untraced and a traced pass the same way, the two passes of a
pair side by side so that both see the same host conditions, and reports the
per-layer metrics of the traced passes and the tracing overhead.

Every op is checked: exit code 0, a report that parses and holds, and report
bytes equal to the committed reference digest (seeds with a reference) or to
the first pass's bytes (other seeds; in a traced run the untraced pass is the
first).  The last line of standard output is one JSON object; the results
file under bench/out/ adds the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from tracer import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170.0

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import densitylab.cli; "
    "print(time.perf_counter() - t)"
)


def measure_setup() -> list[float]:
    """Seconds to import densitylab.cli in fresh interpreters; one unmeasured
    import first, so byte-compilation is not counted."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                             capture_output=True, text=True, timeout=60)
        if i:
            times.append(float(out.stdout))
    return times


def run_passes(workload: str, seed: int, traces: list[bool]) -> list[dict]:
    """One pass per entry of ``traces``, each in its own worker process, all
    side by side; every worker has ended when this returns."""
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
             "1" if trace else "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for trace in traces
    ]
    try:
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
            results.append(json.loads(out.splitlines()[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def load_reference(workload: str, seed: int) -> list[str] | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(seed))


def count_failures(passes: list[list[dict]], reference: list[str] | None) -> tuple[int, list[str]]:
    """Failed ops over all passes, with a note for each.  An op fails on a
    nonzero exit, an exception, a report that does not hold, or bytes that
    differ from the reference digest (or, without one, from the first pass)."""
    expected = reference or [r["sha256"] for r in passes[0]]
    failed, notes = 0, []
    for p, records in enumerate(passes):
        for i, rec in enumerate(records):
            if rec["exit"] != 0 or rec["error"]:
                why = f"exit {rec['exit']}: {rec['error']}"
            elif i >= len(expected) or rec["sha256"] != expected[i]:
                why = "report bytes differ from the " + (
                    "reference digest" if reference else "first pass")
            else:
                continue
            failed += 1
            notes.append(f"pass {p} op {i} ({rec['command']}): {why}")
    return failed, notes


def quantile_with_tail(values: list[float], q: float) -> float | None:
    """The q-quantile, when at least ten samples lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100)[round(q * 100) - 1]
    return cut if sum(1 for v in values if v > cut) >= 10 else None


def end_to_end(passes: list[dict], setup: list[float], failed: int) -> tuple[dict, dict]:
    """(metrics, sample counts) of a timed run."""
    latencies = [r["seconds"] for p in passes for r in p["records"]]
    rows = sum(r["rows"] for p in passes for r in p["records"])
    wall = sum(p["wall_s"] for p in passes)
    metrics = {
        "checks_per_s": (rows / wall, "checks/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    extra = {"failed_frac": (failed / len(latencies), "ratio")}
    p90 = quantile_with_tail(latencies, 0.9)
    if p90 is not None:
        extra["op_p90_s"] = (p90, "s")
    samples = {"checks_per_s": len(passes), "op_p50_s": len(latencies),
               "op_p90_s": len(latencies), "setup_s": len(setup),
               "peak_rss_mb": len(passes), "failed_frac": len(latencies)}
    return {**metrics, **extra}, samples


def per_layer(trace: dict, wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    stats, counters, layers = trace["stats"], trace["counters"], trace["layers"]

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0]

    def inclusive(key):
        return stats.get(key, [0, 0.0, 0.0])[1]

    raised = {(key, exc): n for key, exc, n in trace["raised"]}
    m = {}
    for number, key in enumerate(trace["batteries"], 1):
        m[f"suite.battery{number:02d}_s"] = (inclusive(key), "s")
    m.update({
        "martingales.self_s": (layers["martingales"][1], "s"),
        "martingales.value_calls": (calls("martingales.Martingale.value"), "count"),
        "martingales.fairness_s": (inclusive("martingales.fairness_violations"), "s"),
        "martingales.to_function_s": (inclusive("martingales.martingale_to_function"), "s"),
        "martingales.savings_calls": (calls("martingales.savings_extension"), "count"),
        "martingales.savings_exhausted": (
            raised.get(("martingales.savings_extension", "BudgetExhausted"), 0), "count"),
        "piecewise.self_s": (layers["piecewise"][1], "s"),
        "piecewise.value_calls": (calls("piecewise.PiecewiseLinear.value"), "count"),
        "calculus.extension_build_s": (inclusive("calculus.MonotoneExtension.__init__"), "s"),
        "calculus.extension_builds": (calls("calculus.MonotoneExtension.__init__"), "count"),
        "calculus.extension_query_s": (inclusive("calculus.MonotoneExtension.value"), "s"),
        "calculus.extension_queries": (calls("calculus.MonotoneExtension.value"), "count"),
        "calculus.sample_calls": (calls("calculus.PointFunctionOracle.sample"), "count"),
        "calculus.self_s": (layers["calculus"][1], "s"),
        "density.oracle_s": (inclusive("density.brute_force_low_density_oracle"), "s"),
        "density.oracle_calls": (calls("density.brute_force_low_density_oracle"), "count"),
        "density.oracle_points": (counters.get("density.oracle_points", 0), "count"),
        "density.cover_s": (inclusive("density.low_density_open_set"), "s"),
    })
    for layer in ("intervals", "porosity", "randomness"):
        m[f"{layer}.self_s"] = (layers[layer][1], "s")
        m[f"{layer}.calls"] = (layers[layer][0], "count")
    m.update({
        "counterexample.self_s": (layers["counterexample"][1], "s"),
        "roottwo.self_s": (layers["roottwo"][1], "s"),
        "roottwo.calls": (layers["roottwo"][0], "count"),
        "report.self_s": (layers["report"][1], "s"),
        "report.bytes": (counters.get("report.bytes", 0), "bytes"),
        "cli.self_s": (layers["cli"][1], "s"),
        "instances.self_s": (layers["instances"][1], "s"),
        "bits.calls": (layers["bits"][0], "count"),
        "trace.overhead_frac": (wall / untraced_wall - 1, "ratio"),
        "trace.self_share": (sum(layers[name][1] for name in LAYERS) / wall, "ratio"),
    })
    return m


def median_metrics(samples: list[dict]) -> dict:
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_value, unit) in samples[0].items()}


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, samples: dict, checks_per_op: float) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "checks_per_op": checks_per_op,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "densitylab", "cli.py")):
        sys.stderr.write(f"densitylab sources not found under {SRC}\n")
        return 2
    reference = load_reference(args.workload, args.seed)

    setup = [] if args.trace else measure_setup()
    passes, traced = [], []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        if args.trace:
            untraced, trace_pass = run_passes(args.workload, args.seed, [False, True])
            passes.append(untraced)
            traced.append(trace_pass)
        else:
            passes.extend(run_passes(args.workload, args.seed, [False]))
        elapsed, last = time.perf_counter() - begin, time.perf_counter() - started
        if elapsed + last > args.seconds:  # the next pass would overrun
            break

    ordered = [p for pair in zip(passes, traced) for p in pair] if traced else passes
    failed, notes = count_failures([p["records"] for p in ordered], reference)
    attempted = sum(len(p["records"]) for p in ordered)
    if args.trace:
        metrics = median_metrics([per_layer(t["trace"], t["wall_s"], p["wall_s"])
                                  for p, t in zip(passes, traced)])
        samples = {name: len(traced) for name in metrics}
        shown = metrics
    else:
        metrics, samples = end_to_end(passes, setup, failed)
        shown = {k: v for k, v in metrics.items() if k not in ("failed_frac", "op_p90_s")}
    rows = [r["rows"] for p in passes for r in p["records"]]
    env = environment(args, samples, statistics.mean(rows))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{'' if not traced else ' (+%d traced)' % len(traced)}  ops {attempted}"
          f"  failed {failed}  reference {'yes' if reference else 'no'}")
    for note in notes[:20]:
        print(f"  FAILED {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:9s} (n={samples[name]})")
    if not args.trace and "op_p90_s" not in metrics:
        print(f"  op_p90_s not reported: fewer than ten of {samples['op_p90_s']}"
              " latencies lie beyond the 90th percentile")

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({
            "environment": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": attempted, "failed": failed, "failures": notes,
            "passes": [{"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
                        "records": p["records"]} for p in ordered],
            "spans": [t["trace"]["spans"] for t in traced],
        }, fh, indent=1)
        fh.write("\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
