"""Rules on the package source itself."""

import ast
from pathlib import Path

import zsseq

SOURCES = sorted(Path(zsseq.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips ``assert``, so a broken invariant must raise
    # CrossCheckError (or another ZsseqError) instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []
