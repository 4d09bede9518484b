"""Line counts of the Python modules under a directory, split by kind.

From the repo root:

    python .github/line_counts.py          # the modules under src/
    python .github/line_counts.py tests

Per module it prints its total lines and how many of them are code,
docstring, and comment or blank, then the totals over the directory.  A
docstring line is one spanned by the docstring of a module, class or
function (`ast`).  A comment line holds a comment and no other token
(`tokenize`).  A blank line holds only whitespace.  Every other line,
one with code and a trailing comment included, is code.
"""

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
COLUMNS = ("total", "code", "docstring", "comment/blank")


def docstring_lines(tree) -> set:
    """The line numbers spanned by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple:
    """(total, code, docstring, comment/blank) lines of a module's text."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    comments, other = set(), set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            other.update(range(tok.start[0], tok.end[0] + 1))
    quiet = {n for n, line in enumerate(lines, 1)
             if not line.strip() or n in comments and n not in other}
    quiet -= docs
    total = len(lines)
    return total, total - len(docs) - len(quiet), len(docs), len(quiet)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    top = ROOT / (args[0] if args else "src")
    rows = [(str(path.relative_to(ROOT)), counts(path.read_text("utf-8")))
            for path in sorted(top.rglob("*.py"))]
    rows.append((f"{top.relative_to(ROOT)}/ total",
                 tuple(map(sum, zip(*(c for _, c in rows))))
                 if rows else (0,) * len(COLUMNS)))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}", *(f"{c:>13}" for c in COLUMNS))
    for name, row in rows:
        print(f"{name:<{width}}", *(f"{n:>13}" for n in row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
