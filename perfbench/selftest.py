"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs one pass over the smallest instance of each workload, untraced and
traced, and checks that the run is correct, that its JSON line holds
exactly the metrics BENCHMARK.json names, each with its unit, and that the
figures only some workloads have are printed where they belong. Then it
runs the smallest infeasible-search instance with a wrong expected verdict
(feasible) and checks that the correctness gate trips. Exits 0 when every
check holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

SMALLEST = {
    "feasible-search": (3,),
    "infeasible-search": (3,),
    "visibility-precompute": (6,),
    "verify-large": (50,),
}
SEARCH = ("solver.decide_s", "solver.visibility_s", "solver.search_s", "solver.visible_pairs")
# Figures printed beside the JSON line, by workload, untraced and traced.
PRINTED = {
    "feasible-search": (
        ("gen_s", "solve_s", "verify_s", "extract_s"),
        SEARCH + ("solver.decide_s.n133", "verifier.verify_valid_s"),
    ),
    "infeasible-search": (("gen_s", "solve_s"), SEARCH + ("solver.decide_s.n133",)),
    "visibility-precompute": (
        ("gen_s", "solve_s", "verify_s", "extract_s"),
        SEARCH + ("solver.decide_s.n301", "verifier.verify_valid_s"),
    ),
    "verify-large": (
        ("gen_s", "verify_s", "extract_s"),
        ("verifier.verify_valid_s", "verifier.verify_invalid_s", "verifier.violations"),
    ),
}


def expect_feasible(pe, seed, work, sizes):
    """infeasible-search, but every solve is expected to find an embedding."""
    workload = run.infeasible_search(pe, seed, work, sizes)
    chains = workload.chains

    def wrong(i):
        return [
            [dataclasses.replace(s, expect_exit=0) if s.command == "solve" else s for s in chain]
            for chain in chains(i)
        ]

    workload.chains = wrong
    return workload


def main() -> int:
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    pe = run.load_polyembed()
    problems = []
    if set(SMALLEST) != set(run.WORKLOADS) or set(SMALLEST) != {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ between run.py, BENCHMARK.json and this test")

    for name, sizes in SMALLEST.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, figures = run.run_workload(pe, name, 0, 0, trace, sizes)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: run not correct: {result}")
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got}, BENCHMARK.json names {want}")
            missing = set(PRINTED[name][trace]) - set(figures)
            if missing:
                problems.append(f"{name} trace={int(trace)}: no figure for {sorted(missing)}")

    print("# next run: one failure expected")
    run.WORKLOADS["infeasible-search"] = expect_feasible
    result, _ = run.run_workload(pe, "infeasible-search", 0, 0, False, SMALLEST["infeasible-search"])
    if result["correct"] or result["failed"] != 1:
        problems.append(f"a wrong expected verdict did not trip the gate: {result}")

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
