"""tools/loc.py, the line counter each change reports its net line count with."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# code: 8-10 (a string over two lines too), 13, 16, 20-21; docstring: 1-4
# (its blank line too), 14, 17-18; comment: 6 and 19 (8's trailing comment
# sits on a code line)
FIXTURE = '''\
"""Module docstring.

Second paragraph.
"""

# a comment

X = 1  # a trailing comment
Y = """a string
that spans lines"""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # an inner comment
        return (1,
                2)
'''


def test_counts_code_docstring_and_comment_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert loc.count(path) == (7, 7, 2)


def test_total_row_is_the_module_sums(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text('import os\n\n\ndef g():\n    """One line."""\n    # c\n    return os\n',
                                   encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "code", "doc", "comment"]
    table = {name: tuple(map(int, counts)) for name, *counts in map(str.split, rows)}
    assert table == {"a.py": (7, 7, 2), "b.py": (3, 1, 1), "total": (10, 8, 3)}
