"""Count the code, docstring and comment lines of each module of a package.

    python tools/loc.py [DIR]

DIR defaults to src/sailfree.  A code line is a physical line that holds
any token other than a comment, outside a docstring (a line of a string
that spans lines counts too).  A docstring line is a line of a module,
class or function docstring, its blank lines included.  A comment line
holds a comment and nothing else.  Blank lines are not counted.  Standard
library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_rows(tree: ast.AST) -> set[int]:
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                rows.update(range(body[0].lineno, body[0].end_lineno + 1))
    return rows


def count(path: Path) -> tuple[int, int, int]:
    """(code, docstring, comment) line counts of one Python file."""
    source = path.read_text(encoding="utf-8")
    docs = _docstring_rows(ast.parse(source))
    code, comments = set(), set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "sailfree"
    rows = [(p.name, *count(p)) for p in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module':<{width}} {'code':>6} {'doc':>6} {'comment':>7}")
    for name, code, doc, comment in rows:
        print(f"{name:<{width}} {code:>6} {doc:>6} {comment:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
