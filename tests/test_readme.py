"""The README's Python examples run as written and print what it states."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run_and_print_the_stated_values():
    blocks = _python_blocks()
    assert len(blocks) == 2
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    lines = printed.getvalue().splitlines()
    assert lines[0] == "12"                              # lasso moves
    assert lines[1] == "['BMI', 'S5', 'BP', 'S3']"       # entry order
    assert lines[2] == "7"                               # Cp argmin_k
    assert namespace["report"].argmin_k == 7
    # one bootstrap df line per step k = 0..10
    assert [int(line.split()[0]) for line in lines[3:]] == list(range(11))
