"""The README run as written: every `print(...)  # value` line of the library
tour must print its comment, and every `$ dyerlashof ...` line whose output
is shown in full must print it."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from dyerlashof.cli import build_parser, main

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


def _shown_commands(text):
    """(argv, output lines) for each `$ dyerlashof` line of the sh blocks."""
    runs = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            if line.startswith("$ dyerlashof "):
                runs.append((shlex.split(line[2:], comments=True)[1:], []))
            elif runs and not line.startswith("$ "):
                runs[-1][1].append(line)
    return runs


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (config,) = re.findall(r"^```json\n(.*?)^```", text, re.S | re.M)
    (tmp_path / "sign3.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    ran = 0
    for argv, shown in _shown_commands(text):
        build_parser().parse_args(argv)  # every command's flags are accepted
        # an output cut short with "...", or none shown, cannot be compared;
        # nor can a command on a context file the README does not give
        if not shown or "..." in shown or any(
            a.endswith(".json") and a != "sign3.json" for a in argv
        ):
            continue
        code = main(argv)
        assert (code, capsys.readouterr().out.splitlines()) == (0, shown), argv
        ran += 1
    assert ran == 5


def test_readme_meter_table_names_every_stage():
    # the stages of the `| stage | units |` table are exactly those the
    # package charges, so a new or renamed stage cannot ship undocumented
    text = README.read_text(encoding="utf-8")
    (table,) = re.findall(r"^\| stage \| units \|\n((?:\|.*\n)+)", text, re.M)
    documented = re.findall(r"^\| `([^`]+)` \|", table, re.M)
    src = README.parent / "src"
    charged = {
        stage
        for path in src.rglob("*.py")
        for stage in re.findall(r"\bcharge\(\s*\"([^\"]+)\"", path.read_text(encoding="utf-8"))
    }
    assert len(documented) == len(set(documented)) == 10
    assert set(documented) == charged
