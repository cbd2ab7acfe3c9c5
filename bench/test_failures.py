"""Failure accounting: each bad op counts once and none stops the pass.

    python3 -m pytest bench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import densitylab.cli  # noqa: E402
from run import count_failures, end_to_end  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import Op, cli_stream_ops  # noqa: E402

# A porosity document whose constant is not an integer: the CLI raises
# ValueError instead of exiting 2.
CRASH = Op(("porosity", "--instance", "-", "--json"),
           json.dumps({"holes": [], "constant": "abc"}))


def test_wrong_digest_and_crash_each_count_once():
    good = [op for op in cli_stream_ops(1) if op.argv[0] == "covering"][:2]
    ops = [good[0], CRASH, good[1]]
    records, wall, rss = run_ops(ops, densitylab.cli.main)
    assert [r["exit"] for r in records] == [0, None, 0]
    assert records[1]["error"].startswith("ValueError")
    reference = ["0" * 64, records[1]["sha256"], records[2]["sha256"]]
    failed, notes = count_failures([records], reference)
    assert failed == 2
    assert "reference digest" in notes[0] and "ValueError" in notes[1]
    pass_ = {"records": records, "wall_s": wall, "peak_rss_mb": rss}
    metrics, _samples = end_to_end([pass_], [0.1], failed)
    assert metrics["failed_frac"][0] == 2 / 3


def test_without_reference_later_passes_must_repeat_the_first():
    ops = [op for op in cli_stream_ops(3) if op.argv[0] == "covering"][:2]
    first, _wall, _rss = run_ops(ops, densitylab.cli.main)
    second = [dict(r) for r in first]
    second[1]["sha256"] = "f" * 64
    failed, notes = count_failures([first, second], None)
    assert failed == 1 and "first pass" in notes[0]
