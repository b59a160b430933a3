#!/usr/bin/env python3
"""Count the code-only lines of Python files: lines that are not docstrings,
comments or blank.

    python3 scripts/code_lines.py src/boxnodes/*.py tests/*.py scripts/*.py
    python3 scripts/code_lines.py src tests scripts

Prints the count of each file and their total, as wc -l does; a directory
stands for every *.py file under it, in sorted order. A path that is
neither a file nor a directory is an error (exit 2). A line counts
when it holds a token other than a comment, a line break or an indent; each
line of a multi-line expression or string counts, except the lines of a
docstring (the string that opens a module, class or function body).
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code-only lines in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def _files(args):
    """The files that args name, each directory replaced by its *.py files."""
    for arg in args:
        path = Path(arg)
        if path.is_dir():
            yield from map(str, sorted(path.rglob("*.py")))
        elif path.is_file():
            yield arg
        else:
            print(f"code_lines.py: {arg}: not a file or a directory", file=sys.stderr)
            sys.exit(2)


if __name__ == "__main__":
    counts = {path: code_lines(Path(path).read_text(encoding="utf-8"))
              for path in _files(sys.argv[1:])}
    for path, count in counts.items():
        print(f"{count:8d} {path}")
    print(f"{sum(counts.values()):8d} total")
