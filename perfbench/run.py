"""Benchmark of the polyembed CLI pipeline on 3-partition reduction instances.

    python3 perfbench/run.py --workload feasible-search --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload in turn, default seed

One process, one thread, closed loop: a single caller runs each step of a
workload through ``polyembed.cli.main(argv)`` in-process, waits for it, and
checks its output against a ground truth known by construction. A run
repeats passes over the workload's steps for ``--seconds`` and reports
medians over passes. The last line of output is one JSON object:
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones. Every metric is also printed as a ``name value unit`` line above it,
together with the figures that exist only on some workloads.

Workloads, metrics, seeds and the recorded baseline are described in
``perfbench/README.md``. ``perfbench/selftest.py`` checks this file.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
# Far above every solve's baseline, so a stalled search ends as a counted
# failure (exit 3) instead of hanging the run. The visibility and
# clean-sightline precompute does not check the deadline yet, so a stall
# there is not cut short by it.
SOLVE_TIMEOUT_MS = 60_000
MUTATION_SWAPS = 3
# The reference machine is a shared VM whose speed drifts by about +-25% over
# seconds, the same for a fixed loop as for the pipeline. End-to-end times are
# therefore reported in nominal seconds: each step's wall time rescaled by a
# fixed pure-Python loop timed just before and after it, to the speed at
# which that loop takes REFERENCE_NOMINAL_S (about the machine when idle).
# Raw wall times are printed beside them.
REFERENCE_ITERATIONS = 40_000
REFERENCE_NOMINAL_S = 0.008

# Per-layer metrics every workload reports in its JSON line; the rest of the
# traced figures exist only on workloads that run the layer.
LAYER_SPANS = (
    "cli.self_s",
    "reduction.build_instance_s",
    "model.make_instance_s",
    "model.serialize_instance_s",
    "model.deserialize_instance_s",
)


def load_polyembed():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "polyembed" / "__init__.py").is_file():
        raise SystemExit(f"error: no polyembed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyembed
    import polyembed.cli

    if Path(polyembed.__file__).resolve().parent != SRC / "polyembed":
        raise SystemExit(f"error: imported polyembed from {polyembed.__file__}")
    return polyembed


# ---------------------------------------------------------------------------
# Steps and workloads


@dataclass(frozen=True)
class Step:
    command: str  # CLI subcommand; also names the step's end-to-end metric
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str], str | None]  # stdout -> problem, or None


@dataclass
class Workload:
    name: str
    # pass index -> one chain of steps per instance; a failed step ends its chain
    chains: Callable[[int], list[list[Step]]]
    probe_instance: Path  # largest instance file, read by the per-call probes


def _first_line(expected: str):
    def check(out: str) -> str | None:
        got = out.split("\n", 1)[0]
        return None if got == expected else f"printed {got!r}, expected {expected!r}"

    return check


def _gen(B: int, values: list[int], inst: Path, meta: Path) -> Step:
    token = f"points={B * len(values) // 3 + 1}"

    def check(out: str) -> str | None:
        return None if token in out.split() else f"printed {out.strip()!r}, expected {token}"

    a = ",".join(map(str, values))
    return Step("gen", ("gen", "--B", str(B), "--a", a, "--out", str(inst), "--meta", str(meta)), 0, check)


def _extract(pe, B: int, values: list[int], meta: Path, emb: Path) -> Step:
    source = pe.validate_3p(B, values)

    def check(out: str) -> str | None:
        if pe.partition_solves(source, pe.deserialize_partition(out)):
            return None
        return "extracted partition does not solve the 3-partition input"

    return Step("extract", ("extract", "--meta", str(meta), "--embedding", str(emb)), 0, check)


def _paths(work: Path, tag: str) -> tuple[Path, Path, Path]:
    return tuple(work / f"{tag}.{kind}.json" for kind in ("inst", "meta", "emb"))


def _solve(inst: Path, emb: Path, expect_exit: int, verdict: str) -> Step:
    argv = ("solve", "--in", str(inst), "--out", str(emb), "--timeout-ms", str(SOLVE_TIMEOUT_MS))
    return Step("solve", argv, expect_exit, _first_line(verdict))


def _solved_chain(pe, work: Path, B: int, values: list[int]) -> list[Step]:
    """gen -> solve -> verify -> extract on a feasible input."""
    inst, meta, emb = _paths(work, f"n{B * len(values) // 3 + 1}")
    return [
        _gen(B, values, inst, meta),
        _solve(inst, emb, 0, "embedded"),
        Step("verify", ("verify", "--in", str(inst), "--embedding", str(emb)), 0, _first_line("valid")),
        _extract(pe, B, values, meta, emb),
    ]


def feasible_search(pe, seed: int, work: Path, sizes=(3, 4, 5)) -> Workload:
    """[6,6,10,7,7,8]*k with B=22: 133, 177 and 221 points, all feasible.

    Each pass draws fresh value orders for the smaller sizes: the triples
    (6,6,10) and (7,7,8) in a shuffled sequence, which keeps every instance
    feasible by construction. The largest keeps the canonical order, where
    search is about 70% of its solve. Seeded orders at 221 points spent
    only 20-60% of a solve on search, or, fully random, ranged over 2-5 s
    per solve; either way the spread between runs hid a change to search.
    """

    def chains(i: int) -> list[list[Step]]:
        rng = random.Random(f"feasible-search:{seed}:{i}")
        out = []
        for k in sizes:
            triples = [t for t in ((6, 6, 10), (7, 7, 8)) for _ in range(k)]
            if k != sizes[-1]:
                rng.shuffle(triples)
            out.append(_solved_chain(pe, work, 22, [a for t in triples for a in t]))
        return out

    return Workload("feasible-search", chains, _paths(work, f"n{44 * sizes[-1] + 1}")[0])


def _no_triple_sums_to(B: int, values: list[int]) -> bool:
    """Every value lies strictly between B/4 and B/2, so a 3-partition must
    use triples; with no triple summing to B there is none."""
    counts = Counter(values)
    return not any(
        sum(t) == B and all(counts[v] >= t.count(v) for v in t)
        for t in combinations_with_replacement(sorted(counts), 3)
    )


def infeasible_search(pe, seed: int, work: Path, sizes=(3, 4, 5)) -> Workload:
    """[7,7,7,7,7,9]*k with B=22: 133, 177 and 221 points, all infeasible.

    The search is exhaustive and never finds a first embedding. Each pass
    draws a fresh uniformly random value order.
    """
    base = [7, 7, 7, 7, 7, 9]
    for k in sizes:
        if not _no_triple_sums_to(22, base * k):
            raise RuntimeError("infeasible-search input is not infeasible by construction")

    def chains(i: int) -> list[list[Step]]:
        rng = random.Random(f"infeasible-search:{seed}:{i}")
        out = []
        for k in sizes:
            values = base * k
            rng.shuffle(values)
            inst, meta, emb = _paths(work, f"n{44 * k + 1}")
            out.append([_gen(22, values, inst, meta), _solve(inst, emb, 1, "infeasible")])
        return out

    return Workload("infeasible-search", chains, _paths(work, f"n{44 * sizes[-1] + 1}")[0])


def visibility_precompute(pe, seed: int, work: Path, sizes=(6, 7, 8)) -> Workload:
    """[17,17,16]*k with B=50: 301, 351 and 401 points, canonical order.

    The seed is not used: in this order the search barely backtracks, so
    solve time is the visibility matrix plus the clean-sightline scan, and
    a permuted order would put search time back in.
    """
    fixed = [_solved_chain(pe, work, 50, [17, 17, 16] * k) for k in sizes]
    return Workload("visibility-precompute", lambda i: fixed, _paths(work, f"n{50 * sizes[-1] + 1}")[0])


def verify_large(pe, seed: int, work: Path, sizes=(50,)) -> Workload:
    """validate_3p(50, [17,17,16]*50): 2501 points; no solve step.

    Verifies the identity embedding, which is valid by construction, and a
    mutation of it made of ``MUTATION_SWAPS`` seeded image swaps between
    adjacent groups, which is invalid; its violation count must repeat
    exactly. Swaps between any two groups gave 10k-35k violations
    depending on the seed, and printing them dominated the run-to-run
    spread; adjacent groups give about 700-1700.
    """
    B, values = 50, [17, 17, 16] * sizes[-1]
    _, meta = pe.build_instance(pe.validate_3p(B, values))
    # Chains fill the groups in input order (17 + 17 + 16 = 50 per group), so
    # sending the i-th chain node to the i-th group point is an embedding.
    nodes = [v for path in meta.path_nodes for v in path]
    mapping = [meta.p0_point] * meta.node_count
    for v, p in zip(nodes, (p for group in meta.group_points for p in group)):
        mapping[v] = p
    group_of = {p: g for g, group in enumerate(meta.group_points) for p in group}
    rng = random.Random(f"verify-large:{seed}")
    mutant, swapped = list(mapping), set()
    while len(swapped) < 2 * MUTATION_SWAPS:
        u, w = rng.sample(nodes, 2)
        if abs(group_of[mutant[u]] - group_of[mutant[w]]) == 1 and not swapped & {u, w}:
            mutant[u], mutant[w] = mutant[w], mutant[u]
            swapped |= {u, w}

    inst, meta_path, ident = _paths(work, "large")
    bad, report = work / "large.mutant.json", work / "large.report.json"
    ident.write_text(pe.serialize_embedding(pe.Embedding(tuple(mapping))), encoding="utf-8")
    bad.write_text(pe.serialize_embedding(pe.Embedding(tuple(mutant))), encoding="utf-8")

    first_count: list[int] = []

    def mutant_check(out: str) -> str | None:
        line = out.split("\n", 1)[0]
        m = re.fullmatch(r"invalid: (\d+) violation\(s\)", line)
        if not m:
            return f"printed {line!r}, expected an invalid verdict"
        count = int(m.group(1))
        written = pe.deserialize_report(report.read_text(encoding="utf-8"))
        if written.valid or len(written.violations) != count:
            return "report file disagrees with the printed verdict"
        first_count.append(count)
        if count != first_count[0]:
            return f"{count} violations where the first pass found {first_count[0]}"
        return None

    chain = [
        _gen(B, values, inst, meta_path),
        Step("verify", ("verify", "--in", str(inst), "--embedding", str(ident)), 0, _first_line("valid")),
        _extract(pe, B, values, meta_path, ident),
        Step(
            "verify",
            ("verify", "--in", str(inst), "--embedding", str(bad), "--report", str(report)),
            1,
            mutant_check,
        ),
    ]
    return Workload("verify-large", lambda i: [chain], inst)


WORKLOADS = {
    "feasible-search": feasible_search,
    "infeasible-search": infeasible_search,
    "visibility-precompute": visibility_precompute,
    "verify-large": verify_large,
}


# ---------------------------------------------------------------------------
# Measuring


@dataclass
class Tally:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)


def run_step(main, step: Step, tracer: Tracer | None) -> tuple[float, str | None]:
    """Time one CLI call; return its seconds and what was wrong, if anything."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = main(list(step.argv))
            else:
                code = tracer.call(f"cli.{step.command}", main, list(step.argv))
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if code != step.expect_exit:
        return seconds, f"exit {code}, expected {step.expect_exit}; stderr {err.getvalue().strip()!r}"
    try:
        return seconds, step.check(out.getvalue())
    except Exception as exc:  # an unreadable output is a counted failure
        return seconds, f"output check raised {type(exc).__name__}: {exc}"


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        t = (i, i * 7 % 13, i ^ 5)
        seen[t[1]] = t
        acc += t[0] * t[2] - len(seen)
    return time.perf_counter() - t0


def nominal(took: float, before: float, after: float) -> float:
    """``took`` seconds rescaled to the speed at which the reference loop
    takes ``REFERENCE_NOMINAL_S``, from its times just before and after."""
    return took * 2 * REFERENCE_NOMINAL_S / (before + after)


def run_pass(main, chains: list[list[Step]], tally: Tally, tracer: Tracer | None = None) -> dict:
    """One pass over every chain: nominal seconds per CLI command and in
    total, and the pass's raw wall seconds."""
    gc.collect()
    seconds: dict[str, float] = defaultdict(float)
    raw = 0.0
    before = reference_seconds()
    for chain in chains:
        for step in chain:
            took, problem = run_step(main, step, tracer)
            after = reference_seconds()
            seconds[f"{step.command}_s"] += nominal(took, before, after)
            raw += took
            before = after
            tally.attempted += 1
            if problem:
                tally.problems.append(f"{step.command}: {problem}")
                break
    seconds["pipeline_s"] = sum(seconds.values())
    seconds["pipeline_raw_s"] = raw
    return seconds


def set_up(pe, name: str, seed: int, sizes=None) -> tuple[Workload, dict[str, float]]:
    """Set the workload up ``SETUP_REPEATS`` times; return it and the
    median set-up time, nominal and raw.

    One set-up is what a user pays before the first step: a fresh
    interpreter importing polyembed (every CLI call pays this), a fresh work
    directory, and the workload's inputs and ground truth.
    """
    work = OUT / f"work-{name}"
    kwargs = {} if sizes is None else {"sizes": sizes}
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import polyembed", str(SRC)],
            check=True,
        )
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = WORKLOADS[name](pe, seed, work, **kwargs)
        raw.append(time.perf_counter() - t0)
        scaled.append(nominal(raw[-1], before, reference_seconds()))
    return workload, {"setup_s": statistics.median(scaled), "setup_raw_s": statistics.median(raw)}


def _per_call(fn, calls: list[tuple], repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(times)


def probe(pe, workload: Workload, seed: int) -> dict[str, float]:
    """Per-call costs measured on the workload's largest instance."""
    instance = pe.deserialize_instance(workload.probe_instance.read_text(encoding="utf-8"))
    pts, polygon = instance.points.points, instance.polygon
    rng = random.Random(f"probe:{workload.name}:{seed}")

    def segments(count: int) -> list:
        return [pe.Segment(*(pts[i] for i in rng.sample(range(len(pts)), 2))) for _ in range(count)]

    embedding = pe.Embedding(tuple(range(len(pts))))
    text = pe.serialize_embedding(embedding)
    return {
        "geometry.point_in_polygon_us": 1e6
        * _per_call(pe.point_in_polygon, [(rng.choice(pts), polygon) for _ in range(256)]),
        "geometry.segment_hits_boundary_us": 1e6
        * _per_call(pe.segment_hits_boundary, [(s, polygon) for s in segments(256)]),
        "geometry.classify_segments_us": 1e6
        * _per_call(pe.classify_segments, list(zip(segments(1024), segments(1024)))),
        "model.serialize_embedding_s": _per_call(pe.serialize_embedding, [(embedding,)] * 32),
        "model.deserialize_embedding_s": _per_call(pe.deserialize_embedding, [(text,)] * 32),
    }


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in rows)


def measure(pe, workload: Workload, seconds: float, trace: bool, seed: int) -> tuple[dict, dict, Tally, int]:
    """Run passes for ``seconds`` (at least one).

    Returns (json, extra, tally, passes): ``json`` holds the metrics of the
    JSON line, ``extra`` the figures that exist only on some workloads.
    With tracing, each pass runs twice on the same inputs, untraced and
    traced in alternating order, and the tracing overhead is the median of
    the paired differences.
    """
    main, tally = pe.cli.main, Tally()
    tracer = Tracer() if trace else None
    plain, layers, overhead = [], [], []
    deadline = time.perf_counter() + seconds
    i, last = 0, 0.0
    # Start a pass only if one as long as the last still ends in time.
    while i == 0 or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        chains = workload.chains(i)
        if tracer is None:
            plain.append(run_pass(main, chains, tally))
        else:
            tracer.pass_id = i
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed():
                        runs[traced] = run_pass(main, chains, tally, tracer)
                else:
                    runs[traced] = run_pass(main, chains, tally)
            plain.append(runs[False])
            overhead.append(runs[True]["pipeline_s"] - runs[False]["pipeline_s"])
            layers.append(tracer.summarize(i))
        last = time.perf_counter() - started
        i += 1

    steps = sorted({k for row in plain for k in row})
    extra = {k: _median_of(plain, k) for k in steps}
    if tracer is None:
        return {"pipeline_s": extra["pipeline_s"]}, extra, tally, i

    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")
    names = sorted({k for row in layers for k in row})
    extra.update({k: _median_of(layers, k) for k in names})
    metrics = {k: extra[k] for k in LAYER_SPANS}
    metrics.update(probe(pe, workload, seed))
    metrics["trace.overhead_s"] = statistics.median(overhead)
    return metrics, extra, tally, i


def unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or "_s.n" in name:
        return "s"
    return "count"


def run_workload(pe, name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Set up, measure and tear down one workload; print every figure.

    Returns the result object of the JSON line and every printed figure.
    """
    workload, setup = set_up(pe, name, seed, sizes)
    try:
        metrics, extra, tally, passes = measure(pe, workload, seconds, trace, seed)
    finally:
        shutil.rmtree(OUT / f"work-{name}", ignore_errors=True)
    if not trace:
        metrics["setup_s"] = setup.pop("setup_s")
        extra.update(setup)
    figures = {**extra, **metrics}
    failed = len(tally.problems)
    print(f"# {name} seed={seed} trace={int(trace)} passes={passes}")
    for problem in tally.problems[:10]:
        print(f"# FAILED {problem}", file=sys.stderr)
    for key in sorted(figures):
        print(f"{key} {figures[key]:.6g} {unit(key)}")
    print(f"ops_failed_ratio {failed / tally.attempted:.6g} ({failed} of {tally.attempted} steps)")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    return result, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pe = load_polyembed()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result, _ = run_workload(pe, name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
