"""Seeded operation lists for the benchmark workloads.

An op is one ``densitylab.cli.main`` invocation: an argv list, plus an
instance document that is fed on stdin when the argv says ``--instance -``.
Every document is derived from the workload seed through the library's own
generators in ``densitylab.instances``, so one seed always gives the same ops.
densitylab is imported only when ops are built, so that run.py can
report missing sources instead of failing on import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1

# Per-pass document counts of the cli-stream workload.  density documents
# run the O(n^2) prefix-mass oracle and are kept to about a fifth of the
# pass time, so the oracle does not dominate the stream.
STREAM_COUNTS = {
    "covering": 24,
    "porosity": 20,
    "tests": 20,
    "martingale": 20,
    "counterexample": 24,
    "density": 10,
}

# extend-query documents per pass, one for each of these hole counts: the
# extension's stage count, and with it the cost of a build and of each query,
# grows with the number of holes, so a fixed mix keeps passes comparable
# across seeds.
EXTEND_HOLE_COUNTS = (2, 4, 6)
EXTEND_GRID_DEPTH = 16


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    doc: str | None = None  # instance document, read from stdin


def _holes(intervals) -> list:
    return [i.to_json() for i in intervals]


def _stream_doc(command: str, seed: int, index: int) -> dict:
    from densitylab.bits import format_rational
    from densitylab.counterexample import default_enumeration
    from densitylab.instances import (
        COVERING_EPSILONS,
        battery_rng,
        covering_instance,
        domination_instance,
        escape_instance,
        oracle_match_instance,
        porosity_instance,
        random_fair_table,
    )

    if command == "covering":
        c = covering_instance(seed, index)
        return {"holes": _holes(c.gaps()),
                "epsilons": [format_rational(e) for e in COVERING_EPSILONS]}
    if command == "density":
        c, eps = oracle_match_instance(seed, index)
        return {"holes": _holes(c.gaps()), "epsilon": format_rational(eps)}
    if command == "porosity":
        enum, c, levels = porosity_instance(seed, index)
        return {"holes": _holes(enum.items), "constant": c, "levels": levels,
                "stages": 200}
    if command == "tests":
        scenario, case, n_blocks = domination_instance(seed, index)
        return {
            "escape": [escape_instance(seed, index).to_json()],
            "domination": [{
                "words": list(scenario.words), "z": format_rational(scenario.z),
                "eps": format_rational(scenario.eps), "depth": scenario.depth,
                "case": case, "n_blocks": n_blocks,
            }],
        }
    if command == "martingale":
        m = random_fair_table(battery_rng(seed, "bench-martingale", index), 4)
        return {"martingale": m.to_json(), "q": format_rational(m.value("") + Fraction(1, 2)),
                "eps": "1/2"}
    if command == "counterexample":
        # prefix lengths cycle through 2..18, so every pass has the same mix;
        # a one-interval prefix is a designed violation
        return {"intervals": _holes(default_enumeration()[:2 + index % 17])}
    raise ValueError(f"no stream document for {command!r}")


def cli_stream_ops(seed: int) -> list[Op]:
    """Documents of every command, interleaved round-robin; each command's
    own documents alternate between JSON and CSV output."""
    per_command = []
    for command, count in STREAM_COUNTS.items():
        ops = []
        for index in range(count):
            argv = [command, "--instance", "-", "--json" if index % 2 == 0 else "--csv"]
            if command == "density":
                argv += ["--depth", "8"]
            doc = json.dumps(_stream_doc(command, seed, index), sort_keys=True)
            ops.append(Op(tuple(argv), doc))
        per_command.append(ops)
    stream = []
    for position in range(max(STREAM_COUNTS.values())):
        stream.extend(ops[position] for ops in per_command if position < len(ops))
    return stream


def extend_query_ops(seed: int) -> list[Op]:
    """One extend document per hole count: the first extension_instance(seed, i)
    with that many holes."""
    from densitylab.instances import extension_instance
    from densitylab.piecewise import PiecewiseLinear

    wanted = set(EXTEND_HOLE_COUNTS)
    found: dict[int, dict] = {}
    index = 0
    while wanted - found.keys():
        h, enum = extension_instance(seed, index)
        k = len(enum.items)
        if k in wanted and k not in found:
            xs = tuple(Fraction(j, 8) for j in range(9))
            pl = PiecewiseLinear(xs, tuple(h.exact(x) for x in xs))
            found[k] = {"holes": _holes(enum.items), "h": pl.to_json(), "n": 10}
        index += 1
    argv = ("extend", "--instance", "-", "--depth", str(EXTEND_GRID_DEPTH), "--json")
    return [Op(argv, json.dumps(found[k], sort_keys=True)) for k in EXTEND_HOLE_COUNTS]


def verify_all_ops(seed: int) -> list[Op]:
    return [Op(("verify-all", "--json", "--seed", str(seed)))]


WORKLOADS = {
    "verify-all": verify_all_ops,
    "cli-stream": cli_stream_ops,
    "extend-query": extend_query_ops,
}


def ops_for(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed)
