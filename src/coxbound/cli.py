"""Command-line front end.

Commands: classify, sweep, nerve, davis-ball, tessellate, carpet, k5.
Exit codes: 0 success / in-scope verdict, 1 input error (among them a k5
--level below 2, refused before any carpet is built) or an --out path that
cannot be written, 2 OutOfScope verdict (classify) or an argument that
argparse rejects, 3 routing failure (k5).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys as _sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from .carpet import (RoutingError, build_carpet_approx, build_k5_scaffold,
                     carpet_svg, null_family_check, scaffold_svg,
                     scaffold_to_json, verify_k5_graph)
from .classify import OUT_OF_SCOPE, classify_boundary, report_to_json
from .davis import ball_to_json, build_davis_ball, tessellation_svg
from .nerve import build_nerve, nerve_to_json
from .system import PresentationError, complete_graph_system, parse_system


def _emit(text: str, out: str | Path | None) -> None:
    """Write `text` to stdout, or to the file `out`, with exactly one final
    newline either way.  A missing newline is a second write, so that the
    document, which can be tens of MB, is never copied."""
    with nullcontext(_sys.stdout) if out is None else open(out, "w") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


def _load_system(path: str):
    try:
        return parse_system(Path(path).read_text())
    except OSError as exc:
        raise PresentationError(f"cannot read {path}: {exc.strerror}") from exc


def cmd_classify(args) -> int:
    sysm = _load_system(args.input)
    report = classify_boundary(sysm)
    _emit(report_to_json(report), args.out)
    return 2 if report.boundary.tag == OUT_OF_SCOPE else 0


def _sweep_rows(n_min: int, n_max: int, labels: list[int], limit: int):
    for n in range(n_min, n_max + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        seen = 0
        for assignment in product(labels, repeat=len(pairs)):
            if seen >= limit:
                break
            seen += 1
            override = {(f"s{a}", f"s{b}"): m for (a, b), m in zip(pairs, assignment)}
            sysm = complete_graph_system(n, labels=override)
            report = classify_boundary(sysm)
            yield {
                "n": n,
                "labels": ",".join(str(m) for m in assignment),
                "boundary": str(report.boundary),
                "hyperbolic": report.hyperbolic,
            }


def cmd_sweep(args) -> int:
    labels = sorted({int(x) for x in args.labels.split(",")})
    if not (3 <= args.n_min <= args.n_max <= 8):
        raise PresentationError("sweep range must satisfy 3 <= n-min <= n-max <= 8")
    if any(not 2 <= m <= 12 for m in labels):
        raise PresentationError("sweep labels must lie in [2, 12]")
    rows = list(_sweep_rows(args.n_min, args.n_max, labels, args.limit))
    if args.format == "json":
        _emit(json.dumps(rows, indent=2), args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["n", "labels", "boundary", "hyperbolic"],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    return 0


def cmd_nerve(args) -> int:
    sysm = _load_system(args.input)
    _emit(nerve_to_json(sysm, build_nerve(sysm)), args.out)
    return 0


def cmd_davis_ball(args) -> int:
    sysm = _load_system(args.input)
    _emit(ball_to_json(build_davis_ball(sysm, args.radius)), args.out)
    return 0


def cmd_tessellate(args) -> int:
    sysm = _load_system(args.input)
    _emit(tessellation_svg(sysm, args.depth), args.out)
    return 0


def cmd_carpet(args) -> int:
    approx = build_carpet_approx(args.level)
    if args.format == "svg":
        _emit(carpet_svg(approx), args.out)
    else:
        payload = {
            "level": approx.level,
            "kept": 8 ** approx.level,
            "removed": (8 ** approx.level - 1) // 7,
            "null_family_exceeding_1_5": null_family_check(approx, Fraction(1, 5)),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_k5(args) -> int:
    if args.level < 2:      # a scaffold marks level-2 squares
        raise ValueError(f"k5 needs --level >= 2, got {args.level}")
    try:
        scaffold = build_k5_scaffold(level=args.level, seed=args.seed)
    except RoutingError as exc:
        where = "" if exc.carpet_index is None else f" (carpet {exc.carpet_index})"
        print(f"routing failure{where}: {exc}", file=_sys.stderr)
        return 3
    ok = verify_k5_graph(scaffold)
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _emit(scaffold_to_json(scaffold), outdir / "scaffold.json")
        _emit(scaffold_svg(scaffold), outdir / "scaffold.svg")
    elif args.format == "svg":
        _emit(scaffold_svg(scaffold), None)
    else:
        _emit(scaffold_to_json(scaffold), None)
    print(f"verify_k5_graph: {'pass' if ok else 'FAIL'}", file=_sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coxbound",
                                description="Coxeter boundary classification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        if flags.get("input"):
            sp.add_argument("--input", required=True, help="presentation file")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        if flags.get("radius"):
            sp.add_argument("--radius", type=int, default=3)
        if flags.get("depth"):
            sp.add_argument("--depth", type=int, default=6)
        if flags.get("level"):
            sp.add_argument("--level", type=int, default=2)
        if flags.get("seed"):
            sp.add_argument("--seed", type=int, default=None)
        if flags.get("format"):
            sp.add_argument("--format", choices=flags["format"], default=flags["format"][0])
        sp.set_defaults(func=fn)
        return sp

    add("classify", cmd_classify, input=True)
    sw = add("sweep", cmd_sweep, format=["csv", "json"])
    sw.add_argument("--n-min", type=int, default=3)
    sw.add_argument("--n-max", type=int, default=6)
    sw.add_argument("--labels", default="3", help="comma-separated edge labels")
    sw.add_argument("--limit", type=int, default=64,
                    help="max mixed label assignments per rank")
    add("nerve", cmd_nerve, input=True)
    add("davis-ball", cmd_davis_ball, input=True, radius=True)
    add("tessellate", cmd_tessellate, input=True, depth=True)
    add("carpet", cmd_carpet, level=True, format=["json", "svg"])
    add("k5", cmd_k5, level=True, seed=True, format=["json", "svg"])
    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: built on first use, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input or arguments, unwritable --out
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
