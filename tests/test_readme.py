"""The README's quick tour and Library snippet, run as written."""

import re
import shlex
from pathlib import Path

import pytest

from zsseq.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def tour():
    """(argv, printed lines) for every ``$ zsseq ...`` line of the text blocks."""
    cases = []
    for block in fenced("text"):
        for chunk in re.split(r"^\$ zsseq ", block, flags=re.M)[1:]:
            command, *printed = chunk.rstrip("\n").split("\n")
            cases.append((shlex.split(command), printed))
    return cases


TOUR = tour()


def test_the_tour_is_found():
    assert len(TOUR) == 15
    assert len(fenced("python")) == 1


@pytest.mark.parametrize("argv,printed", TOUR, ids=[" ".join(argv) for argv, _ in TOUR])
def test_tour_command_prints_what_the_readme_shows(capsys, argv, printed):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if printed[-1] == "...":
        # The README shows the head of a longer listing.
        printed = printed[:-1]
        assert len(out) > len(printed)
        out = out[: len(printed)]
    assert out == printed


def test_library_snippet_runs():
    (snippet,) = fenced("python")
    exec(compile(snippet, "README.md", "exec"), {})
