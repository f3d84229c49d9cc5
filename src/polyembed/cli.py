"""Command-line front end for batch workflows.

Subcommands: gen, solve, verify, extract, brute3p, render, embed-free.

Exit codes: 0 success / valid / feasible; 1 a well-formed negative answer
(invalid embedding, infeasible instance, no partition); 2 usage or input
error; 3 solver timeout.

The argument parser is built once per process, on the first call of
:func:`main`, and every later call reuses it, so ``main(argv)`` may be called
repeatedly in one process and each call pays only for its own work.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ParseError, ValidationError
from .model import (
    deserialize_embedding,
    deserialize_instance,
    deserialize_point_set,
    deserialize_tree,
    serialize_embedding,
    serialize_instance,
    serialize_report,
)
from .reduction import (
    brute_force_3p,
    build_instance,
    deserialize_meta,
    extract_partition,
    serialize_meta,
    serialize_partition,
    validate_3p,
)
from .render import render_svg
from .solver import SolveStatus, decide_embedding, embed_tree_unconstrained
from .verifier import verify_embedding

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_TIMEOUT = 3


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {exc}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_gen(args) -> int:
    inst = validate_3p(args.B, args.a)
    instance, meta = build_instance(inst)
    _write(args.out, serialize_instance(instance))
    _write(args.meta, serialize_meta(meta))
    print(
        f"n={meta.n} B={meta.B} points={len(instance.points)} "
        f"polygon_vertices={len(instance.polygon.vertices)}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = deserialize_instance(_read(args.infile))
    outcome = decide_embedding(instance, time_limit_ms=args.timeout_ms)
    if outcome.status is SolveStatus.EMBEDDED:
        _write(args.out, serialize_embedding(outcome.embedding))
        print("embedded")
        return EXIT_OK
    if outcome.status is SolveStatus.INFEASIBLE:
        print("infeasible")
        return EXIT_NEGATIVE
    print(f"timed out after {outcome.elapsed_ms} ms")
    return EXIT_TIMEOUT


def cmd_verify(args) -> int:
    instance = deserialize_instance(_read(args.infile))
    embedding = deserialize_embedding(_read(args.embedding))
    report = verify_embedding(instance, embedding)
    if args.report:
        _write(args.report, serialize_report(report))
    if report.valid:
        print("valid")
        return EXIT_OK
    print(f"invalid: {len(report.violations)} violation(s)")
    for v in report.violations:
        print(f"  {v.kind} edges={list(v.edges)} points={list(v.points)}")
    return EXIT_NEGATIVE


def cmd_extract(args) -> int:
    meta = deserialize_meta(_read(args.meta))
    embedding = deserialize_embedding(_read(args.embedding))
    partition = extract_partition(meta, embedding)
    print(serialize_partition(partition), end="")
    return EXIT_OK


def cmd_brute3p(args) -> int:
    inst = validate_3p(args.B, args.a)
    partition = brute_force_3p(inst)
    if partition is None:
        print("no 3-partition exists")
        return EXIT_NEGATIVE
    print(serialize_partition(partition), end="")
    return EXIT_OK


def cmd_render(args) -> int:
    instance = deserialize_instance(_read(args.infile))
    embedding = None
    if args.embedding:
        embedding = deserialize_embedding(_read(args.embedding))
    highlight = None
    if args.meta:
        highlight = deserialize_meta(_read(args.meta)).p0_point
    _write(args.out, render_svg(instance, embedding, highlight))
    return EXIT_OK


def cmd_embed_free(args) -> int:
    points = deserialize_point_set(_read(args.points))
    tree = deserialize_tree(_read(args.tree))
    embedding = embed_tree_unconstrained(tree, points)
    _write(args.out, serialize_embedding(embedding))
    print("embedded")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The program's parser, built on the first call and kept for the process.

    Every :func:`main` call shares it, which is safe because parsing leaves
    nothing in it: each ``parse_args`` makes a fresh namespace, a
    subcommand's values come from a fresh sub-namespace, no action has a
    mutable default or is an ``append`` or ``count`` action, and
    :func:`_int_list` returns a new list each time. Keep it that way.
    """
    parser = argparse.ArgumentParser(
        prog="polyembed",
        description="Generate, solve, verify, and render polygon-bounded tree embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build an embedding instance from a 3-partition input")
    p.add_argument("--B", type=int, required=True, help="target triple sum")
    p.add_argument("--a", type=_int_list, required=True, help="comma-separated values")
    p.add_argument("--out", required=True, help="instance file to write")
    p.add_argument("--meta", required=True, help="meta file to write")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("solve", help="decide embeddability of an instance file")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--out", required=True, help="embedding file to write on success")
    p.add_argument("--timeout-ms", dest="timeout_ms", type=int, default=None)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify", help="check a claimed embedding")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--embedding", required=True, help="embedding file")
    p.add_argument("--report", default=None, help="optional report file to write")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("extract", help="recover a 3-partition from a valid embedding")
    p.add_argument("--meta", required=True, help="meta file from gen")
    p.add_argument("--embedding", required=True, help="embedding file")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("brute3p", help="exhaustive 3-partition oracle (small inputs)")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--a", type=_int_list, required=True)
    p.set_defaults(handler=cmd_brute3p)

    p = sub.add_parser("render", help="write an SVG view of an instance")
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument("--embedding", default=None, help="optional embedding file")
    p.add_argument("--meta", default=None, help="optional meta file (highlights the anchor)")
    p.add_argument("--out", required=True, help="SVG file to write")
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser("embed-free", help="embed a tree on unbounded general-position points")
    p.add_argument("--points", required=True, help="point set file")
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--out", required=True, help="embedding file to write")
    p.set_defaults(handler=cmd_embed_free)

    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` if ``argv`` is None); return its exit code.

    Usage errors and ``--help`` return their code instead of exiting, so
    ``main`` may be called repeatedly in one process; all calls share the
    parser from :func:`build_parser`.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
