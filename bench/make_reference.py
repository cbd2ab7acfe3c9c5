"""Write bench/reference.json: the SHA-256 of every op's report bytes, per
workload, at the default seed.

    python3 bench/make_reference.py

Run it only on a commit whose reports are the intended ones: run.py counts
every op whose bytes differ from these digests as failed.  A change that
must alter report bytes rewrites this file and says why.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, run_passes
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        records = run_passes(workload, DEFAULT_SEED, [False])[0]["records"]
        bad = [r for r in records if r["exit"] != 0 or r["error"]]
        if bad:
            sys.stderr.write(f"{workload}: {len(bad)} ops failed, first: {bad[0]}\n")
            return 1
        digests[workload] = {str(DEFAULT_SEED): [r["sha256"] for r in records]}
        print(f"{workload}: {len(records)} ops")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "workloads": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
