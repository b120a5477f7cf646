"""``tools/codelines.py``, the code counter: its line totals are those of
the files, and docstrings, comments and blank lines are not code."""
import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "codelines.py"


def _table(directory) -> dict:
    """{module: (lines, code, nodes)} as the counter prints them, total included."""
    out = subprocess.run([sys.executable, str(TOOL), str(directory)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    return {name: tuple(int(v.replace(",", "")) for v in values) for name, *values in rows}


def test_the_line_counts_are_those_of_the_files():
    package = ROOT / "src" / "trishape"
    table = _table(package)
    total = table.pop("total")
    files = {str(p.relative_to(package)): p.read_bytes().count(b"\n")
             for p in package.rglob("*.py")}
    assert {name: row[0] for name, row in table.items()} == files
    assert total == tuple(sum(row[i] for row in table.values()) for i in range(3))
    assert all(0 < code <= lines < nodes for lines, code, nodes in table.values())


def test_docstrings_comments_and_blank_lines_are_not_code(tmp_path):
    source = ('"""Module\n\ndocstring."""\n# a comment\n\nx = (1,\n     2)  # trailing\n'
              's = """not a\ndocstring"""\n\n\ndef f():\n    """One line."""\n    return x\n')
    (tmp_path / "m.py").write_text(source)
    # code: the two lines of x, the two of s, the def and the return
    nodes = sum(1 for _ in ast.walk(ast.parse(source)))
    assert _table(tmp_path) == {"m.py": (14, 6, nodes), "total": (14, 6, nodes)}
