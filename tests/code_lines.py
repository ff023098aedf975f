"""Code lines of the library: for each module of `src/coxbound`, the lines
that hold code, without blank lines, comments or docstrings, then their total.

Standard library only (`tokenize`); pytest does not collect this file, since
its name has no `test_` prefix.  Run it from the repository root:

    python tests/code_lines.py [DIRECTORY]

DIRECTORY defaults to `src/coxbound`; give another to count another tree's
modules, say a checkout of an older commit.

A line counts if a token other than a comment lies on it, and a token that
spans lines, such as a triple-quoted string, counts for each of them.  A
statement that is a string alone, as a docstring is, counts for none.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coxbound"
# tokens that lay code out and hold none
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of the Python `source` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []    # the tokens of one logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else PACKAGE
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
