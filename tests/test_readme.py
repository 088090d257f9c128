"""The README's examples give the values and the output they show."""
from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

from braidjones.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> list[list[str]]:
    """The lines of each fenced block whose opening fence names ``lang``."""
    found: list[list[str]] = []
    lines = None
    for line in README.splitlines():
        if not line.startswith("```"):
            if lines is not None:
                lines.append(line)
        elif lines is None:
            lines, kind = [], line[3:]
        else:
            if kind == lang:
                found.append(lines)
            lines = None
    return found


def transcripts() -> list[tuple[str, list[str]]]:
    """Each ``$ braidjones`` command of the README with the lines shown after it."""
    out: list[tuple[str, list[str]]] = []
    for lines in blocks(""):
        shown = None
        for line in lines:
            if line.startswith("$ braidjones "):
                shown = []
                out.append((line.removeprefix("$ braidjones "), shown))
            elif shown is not None:
                shown.append(line)
    return out


TRANSCRIPTS = transcripts()


def test_quick_start_values():
    # a line whose code is an expression shows its value as the comment's
    # leading literal; every other line is run as a statement
    (quick_start,) = blocks("python")
    namespace: dict = {}
    checked = 0
    for line in quick_start:
        code, _, comment = line.partition("#")
        try:
            expr = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        shown = re.match(r"\s*('[^']*'|True|False)", comment).group(1)
        assert eval(expr, namespace) == ast.literal_eval(shown), line
        checked += 1
    assert checked == 4


@pytest.mark.parametrize("command, shown", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_cli_transcript(capsys, command, shown):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out.splitlines()
    if not shown or "..." in shown:  # output left out, or some lines of it
        assert set(shown) - {"..."} <= set(out)
        return
    assert len(out) == len(shown)
    for got, want in zip(out, shown):
        if not want.startswith("engine time:"):  # the one line that varies
            assert got == want
