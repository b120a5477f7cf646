"""Print the code volume of the Python modules under a directory.

    python3 tools/codelines.py src/trishape

For each module, and in total, three counts:

* ``lines``: newline characters, as ``wc -l`` counts them;
* ``code``: lines that hold a token other than a comment, outside the
  docstrings of the module, its classes and its functions (a string or
  bracket that spans lines counts each line it spans);
* ``nodes``: the nodes of the module's syntax tree, as ``ast.walk`` visits
  them.

Standard library only.
"""
from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

#: token types that hold no code
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int, int]:
    """(lines, code lines, AST nodes) of one module's source."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstrings), sum(1 for _ in ast.walk(tree))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not pathlib.Path(argv[0]).is_dir():
        print("usage: codelines.py DIRECTORY", file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0])
    rows = [(str(p.relative_to(root)), *count(p.read_text(encoding="utf-8")))
            for p in sorted(root.rglob("*.py"))]
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'nodes':>7}")
    for name, lines, code, nodes in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}  {nodes:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
