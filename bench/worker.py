"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE

Generates the workload's ops from SEED, runs them one after another through
``densitylab.cli.main`` in this process (stdin, stdout and stderr swapped for
in-memory buffers), and prints one JSON object: a record per op, the pass
wall time, the peak resident memory and, when TRACE is 1, the tracer's
statistics and spans.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from densitylab import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ops_for  # noqa: E402


class _Stdout:
    """Stands in for sys.stdout; the CLI writes its report to .buffer."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        pass


def run_op(main, op) -> tuple[int | None, str, float, bytes]:
    """(exit code, error, seconds, report bytes) for one op.  An exception
    becomes an error string and exit code None; it never escapes."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = _Stdout(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.doc or ""), out, err
    code, error = None, ""
    start = time.perf_counter()
    try:
        code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a failed pass
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    if code not in (0, None) and not error:
        error = err.getvalue().strip()[:500]
    return code, error, seconds, out.buffer.getvalue()


def report_rows(payload: bytes, csv_format: bool) -> int:
    """Verified rows in a report whose every check holds; raises ValueError
    on a report that does not parse or does not claim all_hold."""
    if csv_format:
        rows = list(csv.reader(io.StringIO(payload.decode("ascii"))))
        if len(rows) < 6 or rows[4][0] != "name" or rows[-1][:2] != ["all_hold", "true"]:
            raise ValueError("CSV report is malformed or does not hold")
        return sum(1 for r in rows[5:-1] if r[0] != "budget_exhausted")
    report = json.loads(payload)
    if report.get("all_hold") is not True:
        raise ValueError("JSON report does not hold")
    return len(report["checks"])


def run_ops(ops, main, tracer=None) -> tuple[list[dict], float, float]:
    """Run ops in order; returns (records, pass wall seconds, peak RSS MB)."""
    results = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        results.append(run_op(main, op))
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = []
    for op, (code, error, seconds, payload) in zip(ops, results):
        rows = 0
        if code == 0 and not error:
            try:
                rows = report_rows(payload, "--csv" in op.argv)
            except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
                error = f"bad report: {exc}"
        records.append({
            "command": op.argv[0], "exit": code, "error": error,
            "seconds": seconds, "bytes": len(payload), "rows": rows,
            "sha256": hashlib.sha256(payload).hexdigest(),
        })
    return records, wall, peak_mb


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    ops = ops_for(workload, seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        records, wall, peak_mb = run_ops(ops, cli.main, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"records": records, "wall_s": wall, "peak_rss_mb": peak_mb,
              "trace": tracer.export() if tracer else None}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
