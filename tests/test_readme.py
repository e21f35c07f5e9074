"""README.md stays true: its CLI examples print what it shows, its
Library block runs, and every name its mechanism map points to exists."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import strip_wall_column

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list:
    """The bodies of README's fenced code blocks in language lang, as
    lists of lines."""
    return [body.splitlines() for body in
            re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)]


def _section(title: str) -> str:
    """The text under the README heading "## title", up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _examples() -> tuple:
    """(setup, examples) from the sh blocks: setup lists the tapsp
    commands shown without a prompt (the gen line), and examples are
    (argv, expected lines) for each "$ tapsp ..." line, its expected
    lines being those up to the next prompt or the block's end."""
    setup, examples = [], []
    for lines in _blocks("sh"):
        shown = None
        for line in lines:
            if line.startswith("tapsp "):
                setup.append(shlex.split(line)[1:])
            elif line.startswith("$ tapsp "):
                shown = []
                examples.append((shlex.split(line)[2:], shown))
            elif shown is not None:
                shown.append(line)
    return setup, examples


SETUP, EXAMPLES = _examples()


def _run(argv: list, cwd: Path) -> list:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAPSP_")}
    proc = subprocess.run([sys.executable, "-m", "tapsp.cli"] + argv,
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, (argv, proc.stderr)
    return proc.stdout.splitlines()


def test_readme_shows_its_examples():
    assert [argv[0] for argv in SETUP] == ["gen"]
    assert [argv[0] for argv, _ in EXAMPLES] == [
        "threshold", "diameter", "oracle", "bench"]


@pytest.mark.parametrize("argv, want", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_cli_example(tmp_path, argv, want):
    # "..." may only end an example: the lines shown are then a prefix of
    # the output. Bench rows are compared without wall_s
    for setup in SETUP:
        _run(setup, tmp_path)
    got = _run(argv, tmp_path)
    assert "..." not in want[:-1]
    if want[-1] == "...":
        want = want[:-1]
        got = got[:len(want)]
    if argv[0] == "bench":
        got, want = (strip_wall_column("\n".join(x)) for x in (got, want))
    assert got == want


def test_readme_library_block_runs(capsys):
    (code,) = _blocks("python")
    exec(compile("\n".join(code), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_map_names_resolve():
    # each row of the map names at least one module.function of tapsp
    # in its last column, and every name there resolves
    rows = [line for line in _section("Where each mechanism is proved").splitlines()
            if line.startswith("| ") and not line.startswith("| Mechanism")]
    assert len(rows) >= 15
    for row in rows:
        names = re.findall(r"`(\w+)\.(\w+)`", row.rstrip(" |").rsplit(" | ", 1)[1])
        assert names, row
        for module, name in names:
            assert hasattr(importlib.import_module(f"tapsp.{module}"), name), (
                f"{module}.{name}")
