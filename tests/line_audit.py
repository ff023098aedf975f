"""Line audit of the library under the Tier-1 suite.

Runs the Tier-1 tests in this process with a `sys.settrace` tracer on the
frames of `src/coxbound`, then prints every statement there that never ran,
and every `if` or `while` whose test went only one way.  Standard library
only (`sys.settrace` and `ast`); pytest does not collect this file, since its
name has no `test_` prefix.  Run it from the repository root:

    python tests/line_audit.py

Two tests are deselected: under tracing, criterion 2 fails its time gate and
the reference-cycle test finds the tracer's own cycles.  On a 2-core machine
the run takes about 5 minutes.  The exit status is pytest's.

A statement ran if a line event fell on one of its lines (for a compound
statement, on its header: the lines before its body).  A test went one way
if, within one frame, no step led from its lines to its body (never true),
or no step led from them anywhere else, leaving the frame included (never
false); a step out of a line that raised is not counted.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coxbound"
DESELECTED = ("test_criterion_2_finite_type_oracle",
              "test_k5_request_leaves_no_reference_cycles")
EXIT = 0    # the step a frame takes when it returns


def _tracer(lines: dict[str, set[int]], steps: dict[str, set[tuple[int, int]]]):
    """A global trace function that records, for each file of the package, the
    lines that ran and the steps (line, next line) taken within a frame."""
    prefix = str(PACKAGE)

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = lines.setdefault(filename, set())
        taken = steps.setdefault(filename, set())
        prev = None

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                if prev is not None:
                    taken.add((prev, line))
                prev = line
            elif event == "return":
                if prev is not None:
                    taken.add((prev, EXIT))
                prev = None
            elif event == "exception":
                prev = None
            return local

        return local

    return call


def _statements(tree: ast.Module):
    """Every statement of the module except docstrings."""
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        for k, stmt in enumerate(body):
            if (k == 0 and isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                    and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue
            yield stmt
        for field in ("orelse", "finalbody"):
            yield from getattr(node, field, [])


def _header(stmt: ast.stmt) -> range:
    """The lines on which a statement's own code runs: a simple statement's
    lines, or a compound statement's lines before its body."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list):
        return range(first, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(first, stmt.end_lineno + 1)


def audit(path: Path, seen: set[int], taken: set[tuple[int, int]]) -> list[str]:
    source = path.read_text()
    text = source.splitlines()
    name = path.relative_to(ROOT)
    out = []
    for stmt in sorted(set(_statements(ast.parse(source))), key=lambda s: s.lineno):
        header = _header(stmt)
        where = f"{name}:{stmt.lineno}: {text[stmt.lineno - 1].strip()}"
        if isinstance(stmt, ast.Try):
            continue            # `try:` runs nothing of its own
        if not seen.intersection(header):
            out.append(f"{where}  [never ran]")
            continue
        if isinstance(stmt, (ast.If, ast.While)):
            body = set(_header(stmt.body[0])) - set(header)
            went = {b for a, b in taken if a in header and b not in header}
            if not went & body:
                out.append(f"{where}  [never true]")
            elif not went - body:
                out.append(f"{where}  [never false]")
    return out


def main() -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))

    lines: dict[str, set[int]] = {}
    steps: dict[str, set[tuple[int, int]]] = {}
    tracer = _tracer(lines, steps)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main([
            "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
            "--rootdir", str(ROOT), "-k", " and ".join(f"not {t}" for t in DESELECTED),
            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        report += audit(path, lines.get(str(path), set()), steps.get(str(path), set()))
    print(*report, sep="\n")
    print(f"line audit: {len(report)} statement(s) never run or condition(s) one way")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
