"""The rules of `tests/code_lines.py`, the library's code-line count."""

from code_lines import code_lines, main

SNIPPET = '''"""A module docstring
over two lines."""

import os   # a comment after code

# a comment alone


def f(a,
      b):
    """A docstring."""
    text = """a string
    over two lines"""
    return (a +
            b)
'''


def test_code_lines_rules(tmp_path, capsys):
    """Blank lines, comments and docstrings count for nothing; every line of
    a statement that spans lines counts, a string's lines too: here the
    import, the two lines of the signature, of the string and of the
    return."""
    assert code_lines(SNIPPET) == 7
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     7  a.py\n     1  b.py\n     8  total\n"
