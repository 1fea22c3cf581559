"""The README's library tour, run as written: every `print(...)  # value`
line must print its comment."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    code = blocks[0]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [re.fullmatch(r"print\(.*\)\s+# (.*)", line).group(1) for line in prints]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
